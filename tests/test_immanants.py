from itertools import combinations, permutations

import pytest

from pfaflab.diagrams import enumerate_sym_tl_even, sym_diagram, tl_diagram
from pfaflab.immanants import (_fold_word, block_pair, inverse_permutation, non_span_witness,
                               quadratic_relation_table, reduced_word, tl_immanant,
                               tl_immanant_coefficients, tl_immanants,
                               verify_imm_decomposition, verify_pfaffinant_immanant_bridge,
                               wiring_word)
from pfaflab.pfaffian import (SkewArray, complementary_pfaffian, determinant, minor,
                              skew_to_matrix)
from pfaflab.pfaffinants import even_subsets, tl_pfaffinant
from pfaflab.poly import express_in_span

P2 = tl_diagram(2, [(1, 4), (2, 3)])
Q2 = tl_diagram(2, [(1, 2), (3, 4)])


def test_identity_and_single_crossing_coefficients():
    assert tl_immanant_coefficients((1, 2)) == {P2: 1}
    assert tl_immanant_coefficients((2, 1)) == {P2: -1, Q2: 1}


def reduced_word_reversed(w) -> list:
    """A second reduced word, from bubble sort scanning right to left."""
    v = list(w)
    word = []
    changed = True
    while changed:
        changed = False
        for i in range(len(v) - 2, -1, -1):
            if v[i] > v[i + 1]:
                v[i], v[i + 1] = v[i + 1], v[i]
                word.append(i + 1)
                changed = True
    return word


def test_reduced_words():
    w = (3, 1, 2)
    assert inverse_permutation(w) == (2, 3, 1)
    for word in (reduced_word(w), reduced_word_reversed(w)):
        assert len(word) == 2  # inversion count


def test_word_independence():
    for n in (2, 3):
        for w in permutations(range(1, n + 1)):
            winv = inverse_permutation(w)
            assert wiring_word(w) == reduced_word(winv)
            a = _fold_word(reduced_word(winv), n)
            b = _fold_word(reduced_word_reversed(winv), n)
            assert a == b == tl_immanant_coefficients(w)


def test_block_example_values():
    A, B = block_pair(2)
    imms = tl_immanants(B)
    assert imms[P2].render() == "a[1,3]*a[2,4] - a[1,4]*a[2,3]"
    assert imms[Q2].render() == "a[1,4]*a[2,3]"
    assert tl_immanant(Q2, B) == imms[Q2]


def test_minor_decomposition_n2():
    for k in range(0, 3):
        for I in combinations((1, 2), k):
            for J in combinations((1, 2), k):
                verify_imm_decomposition(2, I, J)


def test_minor_decomposition_diagonal_example():
    _, B = block_pair(2)
    # I = J = {1}: product of diagonal minors equals the sum over both diagrams
    imms = tl_immanants(B)
    assert minor(B, [1], [1]) * minor(B, [2], [2]) == imms[P2] + imms[Q2]
    assert minor(B, [1, 2], [1, 2]) == determinant(B)


def test_bridge_identity():
    for n in (1, 2):
        for D in enumerate_sym_tl_even(n):
            assert verify_pfaffinant_immanant_bridge(n, D)["ok"]
    # one n=3 diagram as a spot check (the full set runs in acceptance)
    D = enumerate_sym_tl_even(3)[4]
    assert verify_pfaffinant_immanant_bridge(3, D)["diagram"] == D.key()


def test_bridge_builds_each_g_tilde_table_once(monkeypatch):
    from pfaflab import immanants

    built = []
    g_tilde = immanants.g_tilde_coefficient
    monkeypatch.setattr(immanants, "g_tilde_coefficient",
                        lambda d, n: built.append(d) or g_tilde(d, n))
    immanants._g_tilde_tables.cache_clear()
    for D in enumerate_sym_tl_even(2):
        verify_pfaffinant_immanant_bridge(2, D)
    assert sorted(built, key=lambda d: sorted(d.edges)) == [Q2, P2]


def test_verify_builds_the_block_tables_once_per_n(monkeypatch):
    from collections import Counter

    from pfaflab import immanants, verify

    calls = Counter()

    def counted(name):
        fn = getattr(immanants, name)
        monkeypatch.setattr(immanants, name, lambda *args: calls.update([name]) or fn(*args))

    for name in ("block_pair", "tl_immanants", "g_tilde_coefficient"):
        counted(name)
    for run in ("thm-4.1", "thm-4.3"):
        immanants.block_immanants.cache_clear()
        immanants._g_tilde_tables.cache_clear()
        calls.clear()
        assert verify.run(run)["failures"] == []
        # one block array and one set of immanants per n = 1..3; g-tilde
        # tables for the 1 + 2 + 5 TL diagrams, which thm-4.1 does not read
        want = {"block_pair": 3, "tl_immanants": 3}
        if run == "thm-4.3":
            want["g_tilde_coefficient"] = 8
        assert calls == want, run
    calls.clear()
    verify.run("thm-4.1")
    verify.run("thm-4.3")
    assert not calls


def test_squared_pfaffian_vs_principal_minors():
    for n in (1, 2):
        A = SkewArray.symbolic(2 * n)
        G = skew_to_matrix(A)
        for I in even_subsets(2 * n):
            Ibar = [p for p in range(1, 2 * n + 1) if p not in I]
            lhs = complementary_pfaffian(A, I) ** 2
            assert lhs == minor(G, sorted(I), sorted(I)) * minor(G, Ibar, Ibar)


def test_squared_decomposition_identity_sampled():
    # pf_{I,Ibar}(A)^2 expands over S-compatible TL immanants of A itself
    A = SkewArray.symbolic(4)
    G = skew_to_matrix(A)
    imms = tl_immanants(G)
    n2 = 4
    for I in (frozenset(), frozenset({1, 2}), frozenset({1, 3}), frozenset({1, 2, 3, 4})):
        S = set(I) | {2 * n2 + 1 - i for i in range(1, n2 + 1) if i not in I}
        total = sum((imms[d] for d in imms
                     if all((u in S) != (v in S) for u, v in d.edges)),
                    start=list(imms.values())[0] - list(imms.values())[0])
        assert complementary_pfaffian(A, I) ** 2 == total


QUADRATIC_ROWS = {
    "T[(1,8)(2,7)(3,6)(4,5)]": {"L^2": 1},
    "T[(1,2)(3,6)(4,5)(7,8)]": {"L^2": -1},
    "T[(1,2)(3,8)(4,5)(6,7)]": {"L*M": -1},
    "T[(1,2)(3,8)(4,7)(5,6)]": {"L^2": -1, "L*N": -1},
    "T[(1,8)(2,3)(4,5)(6,7)]": {"L*M": 2},
    "T[(1,4)(2,3)(5,8)(6,7)]": {"M^2": 1},
    # unique expansion has 2*L*M here (confirmed by integer evaluation at
    # a12..a34 = 1,2,3,5,7,11: Imm = 153 = L^2 + 2LM + LN + MN)
    "T[(1,2)(3,4)(5,8)(6,7)]": {"L^2": 1, "L*M": 2, "L*N": 1, "M*N": 1},
    "T[(1,2)(3,4)(5,6)(7,8)]": {"L^2": 2, "L*N": 2, "N^2": 1},
}


def test_quadratic_relation_table():
    rows = {r["diagram"]: r for r in quadratic_relation_table()}
    assert len(rows) == 14
    for key, want in QUADRATIC_ROWS.items():
        row = rows[key]
        assert row["in_span"]
        got = {lbl: c for lbl, c in row["coefficients"].items() if c}
        assert got == want, (key, got)
    assert all(r["in_span"] for r in rows.values())


def test_quadratic_table_convention_binding():
    # with the iterated-closure TL values the immanants still lie in the
    # span of products (same span, different coordinates)
    A4 = SkewArray.symbolic(4)
    L, M, N = (tl_pfaffinant(sym_diagram(2, edges), A4)
               for edges in ([], [(2, 3), (1, 4)], [(1, 2), (3, 4)]))
    products = [L * L, L * M, L * N, M * M, M * N, N * N]
    imms = tl_immanants(skew_to_matrix(A4))
    assert len(imms) == 14
    assert all(express_in_span(imm, products) is not None for imm in imms.values())


@pytest.mark.slow
def test_non_span_witness():
    rep = non_span_witness()
    assert rep["diagram"] == "T[(1,12)(2,3)(4,5)(6,7)(8,9)(10,11)]"
    assert rep["in_span"] is False
