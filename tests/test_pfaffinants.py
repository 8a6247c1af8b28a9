import random
import re
from fractions import Fraction

import pytest

from pfaflab.diagrams import (OddSubsetError, crossing_number, enumerate_matchings,
                              enumerate_sym_tl, enumerate_sym_tl_even, sym_diagram)
from pfaflab.pfaffian import SkewArray, complementary_pfaffian, monomial_pfaffian
from pfaflab.pfaffinants import (ConeElement, PfaffinantFunctional, VerificationError,
                                 _require_equal, boolean_cone_check,
                                 certify_basis, check_pfafprime_in_span, cone_membership,
                                 decomposition_cone_element, diagram_pfaffinant, even_subsets,
                                 maximal_diagrams, min_difference_element, tl_pfaffinant,
                                 transition_matrix, verify_diagram_decomposition,
                                 verify_tl_decomposition)
from pfaflab.poly import Poly, UsageError, a, express_in_span, matrix_rank

D2 = lambda *edges: sym_diagram(2, edges)
A4 = SkewArray.symbolic(4)


def test_diagram_pfaffinant_table_n2():
    table = {
        "V[]": "a[1,2]*a[3,4] - a[1,3]*a[2,4] + a[1,4]*a[2,3]",
        "V[(2,3)]": "0",
        "V[(2,3)(1,4)]": "a[1,3]*a[2,4] - a[1,4]*a[2,3]",
    }
    for key, want in table.items():
        from pfaflab.diagrams import parse_diagram_key
        D = parse_diagram_key(key, 2)
        assert diagram_pfaffinant(D, A4).render() == want


def test_tl_pfaffinant_table_n2():
    assert tl_pfaffinant(D2(), A4).render() == "a[1,2]*a[3,4] - a[1,3]*a[2,4] + a[1,4]*a[2,3]"
    assert tl_pfaffinant(D2((2, 3), (1, 4)), A4).render() == "a[1,3]*a[2,4] - a[1,4]*a[2,3]"
    # under the iterated closure the four-element sum collapses to one monomial
    assert tl_pfaffinant(D2((1, 2), (3, 4)), A4).render() == "a[1,4]*a[2,3]"
    with pytest.raises(ValueError):
        tl_pfaffinant(D2((2, 3)), A4)


def test_decompositions_n_le_2():
    for n in (1, 2):
        A = SkewArray.symbolic(2 * n)
        for I in even_subsets(2 * n):
            verify_diagram_decomposition(A, I)
            verify_tl_decomposition(A, I)


def test_tl_decomposition_examples():
    assert complementary_pfaffian(A4, [1, 2]) == \
        tl_pfaffinant(D2(), A4) + tl_pfaffinant(D2((1, 4), (2, 3)), A4)
    # the full index set picks out the all-horizontal diagram alone
    for n in (1, 2, 3):
        A = SkewArray.symbolic(2 * n)
        full = frozenset(range(1, 2 * n + 1))
        from pfaflab.diagrams import i_maximal_diagrams
        assert i_maximal_diagrams(full, n) == {sym_diagram(n, [])}


def test_identity_failure_reports_monomial():
    p = Poly.var(a(1, 2))
    with pytest.raises(VerificationError, match=r"a\[1,2\]"):
        _require_equal(p, 2 * p, "probe")


def test_transition_matrices():
    rows1, cols1, mat1 = transition_matrix(1)
    assert mat1 == [[1]] and len(cols1) == 1
    rows2, cols2, mat2 = transition_matrix(2)
    assert [c.key() for c in cols2] == ["V[(1,2)(3,4)]", "V[(1,4)(2,3)]", "V[]"]
    assert [r[0] for r in rows2] == [(1, 3), (1, 2), (1, 2, 3, 4)]
    assert mat2 == [[1, 1, 0], [0, 1, 1], [0, 0, 1]]
    _, _, mat3 = transition_matrix(3)
    assert len(mat3) == 10


def test_certify_basis():
    assert certify_basis(1) == {"n": 1, "tl_count": 1, "tl_rank": 1, "complementary_rank": 1}
    rep = certify_basis(2)
    assert rep["tl_rank"] == rep["complementary_rank"] == 3
    rep = certify_basis(3)
    assert rep["tl_rank"] == rep["complementary_rank"] == 10
    # the Poly oracle: ranks of the pfaffinants and of all 2^(2n-1)
    # complementary pfaffians built one by one, where certify_basis ranks
    # one product per complementary pair
    for n in (1, 2, 3, 4):
        A = SkewArray.symbolic(2 * n)
        rep = certify_basis(n)
        assert rep["tl_rank"] == \
            matrix_rank([tl_pfaffinant(D, A) for D in enumerate_sym_tl_even(n)])
        assert rep["complementary_rank"] == \
            matrix_rank([complementary_pfaffian(A, I) for I in even_subsets(2 * n)])


def _tl_rows(n):
    from pfaflab.pfaffinants import _row_terms, tl_functional

    return [_row_terms(tl_functional(D).row) for D in enumerate_sym_tl_even(n)]


def _complementary_rows(n):
    from pfaflab.pfaffinants import _row_terms, complementary_functional

    return [_row_terms(complementary_functional(n, I).row)
            for I in even_subsets(2 * n) if 1 in I]


def test_row_ranks_match_the_poly_ranks():
    from pfaflab.pfaffinants import complementary_functional, tl_functional
    from pfaflab.poly import row_rank

    for n in (1, 2, 3, 4):
        A = SkewArray.symbolic(2 * n)
        tl = [tl_functional(D).evaluate(A) for D in enumerate_sym_tl_even(n)]
        comp = [complementary_functional(n, I).evaluate(A) for I in even_subsets(2 * n) if 1 in I]
        assert row_rank(_tl_rows(n)) == matrix_rank(tl), n
        assert row_rank(_complementary_rows(n)) == matrix_rank(comp), n


def test_peel_places_every_tl_row():
    from pfaflab.poly import _echelon, _peel, row_rank

    for n in (1, 2, 3, 4, 5):
        rows = _tl_rows(n)
        assert _peel(rows) == len(rows), n
        assert row_rank(rows) == len(_echelon(rows, track=False)[0]) == len(rows), n


def test_stalled_peel_falls_back_to_the_echelon():
    from pfaflab.poly import _echelon, _peel, row_rank

    tl = _tl_rows(3)
    stalls = {
        "complementary rows": _complementary_rows(3),
        "duplicated TL row": tl + [tl[4]],
        "zero row": tl + [{}],
        "duplicated row": [{0: 1, 1: 2}, {0: 1, 1: 2}],
    }
    assert _peel(stalls["complementary rows"]) == 0
    for what, rows in stalls.items():
        assert _peel(rows) < len(rows), what
        assert row_rank(rows) == len(_echelon(rows, track=False)[0]) < len(rows), what
    assert row_rank(_complementary_rows(3)) == 10
    assert row_rank([]) == 0


def test_complementary_functional_matches_complementary_pfaffian():
    from pfaflab.pfaffinants import complementary_functional

    for n in (1, 2, 3, 4):
        A = SkewArray.symbolic(2 * n)
        for I in even_subsets(2 * n):
            f = complementary_functional(n, I)
            assert f.evaluate(A) == complementary_pfaffian(A, I), (n, sorted(I))
            assert all(c in (1, -1) for c in f.coefficients.values())
    # pf_I * pf_Ibar is this functional on any array, not only the generic one
    for A in _fraction_arrays():
        for I in even_subsets(4):
            assert complementary_functional(2, I).evaluate(A) == complementary_pfaffian(A, I)
    with pytest.raises(OddSubsetError):
        complementary_functional(2, {1})
    with pytest.raises(UsageError):
        complementary_functional(2, {1, 5})


def _restricted_sign_functional(n, I):
    """The definition: each matching of [2n] whose every pair lies inside I
    or inside Ibar, with the sign (-1)^(cr(pi|I) + cr(pi|Ibar))."""
    out = {}
    for pi in enumerate_matchings(n):
        inside = frozenset(e for e in pi if e[0] in I)
        if all((q in I) == (p in I) for p, q in pi):
            out[pi] = (-1) ** (crossing_number(inside) + crossing_number(pi - inside))
    return out


def test_complementary_functional_matches_the_definition():
    from pfaflab.pfaffinants import complementary_functional

    rng = random.Random(0)
    cases = [(5, I) for I in even_subsets(10)]
    cases += [(6, I) for I in rng.sample(list(even_subsets(12)), 16)]
    for n, I in cases:
        assert complementary_functional(n, I).coefficients == \
            _restricted_sign_functional(n, I), (n, sorted(I))


def _pi_rule_cases(n, matchings):
    """Per matching pi and i with pi(i) != i+1: (c(pi), c(sigma), i) for
    sigma = s_i pi s_i, where c(pi) maps every even I to the coefficient of
    pi in pf_I * pf_Ibar."""
    from pfaflab.pfaffinants import complementary_functional

    comp = {I: complementary_functional(n, I).coefficients for I in even_subsets(2 * n)}

    def c(pi):
        return {I: f.get(pi, 0) for I, f in comp.items()}

    for pi in matchings:
        for i in range(1, 2 * n):
            if (i, i + 1) in pi:
                continue
            swap = {i: i + 1, i + 1: i}
            sigma = frozenset(tuple(sorted((swap.get(p, p), swap.get(q, q)))) for p, q in pi)
            yield c(pi), c(sigma), i


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_conjugation_rule_for_complementary_coefficients(n):
    # c(s_i pi s_i)_I = -c(pi)_I when i and i+1 lie on one side of I, and
    # c(pi)_{s_i I} otherwise: every matching at n <= 4, a seeded sample at 5
    matchings = enumerate_matchings(n)
    if n == 5:
        matchings = random.Random(0).sample(matchings, 40)
    cases = 0
    for c_pi, c_sigma, i in _pi_rule_cases(n, matchings):
        for I, got in c_sigma.items():
            if (i in I) == (i + 1 in I):
                want = -c_pi[I]
            else:
                want = c_pi[I ^ {i, i + 1}]
            assert got == want, (n, i, sorted(I))
            cases += 1
    assert cases > 0   # 48, 1920 and 80,640 at n = 2, 3 and 4


@pytest.mark.parametrize("build", ["compatible_diagrams", "i_maximal_diagrams",
                                   "decomposition_cone_element", "min_difference_element"])
def test_points_out_of_range_are_refused(build):
    from pfaflab import diagrams, pfaffinants

    function = getattr(diagrams, build, None) or getattr(pfaffinants, build)
    for I, n in (({1, 99}, 2), ({0, 1}, 2), ({1, 2, 3, 7}, 3)):
        with pytest.raises(UsageError) as want:
            pfaffinants.complementary_functional(n, I)
        with pytest.raises(UsageError) as got:
            function(I, n)
        assert str(got.value) == str(want.value) \
            == f"indices {sorted(I)} out of range for size {2 * n}"


def _message(check, *args):
    """None if check(*args) passes, else the VerificationError text."""
    try:
        check(*args)
    except VerificationError as exc:
        return str(exc)
    return None


def _poly_oracle(A, I, functionals, what):
    """The identity as a Poly comparison: complementary_pfaffian against the
    sum of the evaluated functionals."""
    rhs = Poly.zero()
    for f in functionals:
        rhs = rhs + f.evaluate(A)
    return _message(_require_equal, complementary_pfaffian(A, I), rhs, what)


@pytest.fixture
def fresh_functionals():
    """Empties the memos of ``pfaflab.pfaffinants`` before and after the
    test, so that rows built from a corrupted table reach no other test."""
    from pfaflab import pfaffinants

    def clear():
        for value in vars(pfaffinants).values():
            if getattr(value, "__module__", None) == pfaffinants.__name__ \
                    and hasattr(value, "cache_clear"):
                value.cache_clear()

    clear()
    yield
    clear()


def _corrupt_one_entry(monkeypatch, n):
    """Make ``pfaffinants`` read the rank tables of [2n] with the weight of
    the last even diagram in the last matching's table raised by one; the
    shared tables stay as they are."""
    from pfaflab import pfaffinants
    from pfaflab.uncross import rank_tables

    tables = list(rank_tables(n))
    r = enumerate_sym_tl(n).index(enumerate_sym_tl_even(n)[-1])
    last = list(tables[-1])
    last[r] = (last[r] or 0) + 1
    tables[-1] = tuple(last)
    monkeypatch.setattr(pfaffinants, "rank_tables",
                        lambda m: tuple(tables) if m == n else rank_tables(m))


def _summed_side(n, functionals):
    """The sum of ``functionals``, matching by matching, as dicts: the oracle
    of the row sums."""
    coeffs = {}
    for f in functionals:
        for pi, c in f.coefficients.items():
            coeffs[pi] = coeffs.get(pi, 0) + c
    return PfaffinantFunctional.from_dict(n, coeffs)


def _dict_path(n, I, functionals, what):
    """The identity as the coefficient dicts of the summed side decide it."""
    from pfaflab.pfaffinants import _require_same, complementary_functional

    return _message(_require_same, complementary_functional(n, I), _summed_side(n, functionals),
                    SkewArray.symbolic(2 * n), f"{what} at I={sorted(I)}")


@pytest.mark.parametrize("corrupt", [False, True])
def test_identities_agree_with_poly_oracle(monkeypatch, fresh_functionals, corrupt):
    from pfaflab import pfaffinants
    from pfaflab.diagrams import compatible_diagrams, i_maximal_diagrams

    failures = {"diagram decomposition": 0, "TL decomposition": 0}
    for n in (1, 2, 3):
        if corrupt:
            _corrupt_one_entry(monkeypatch, n)
        A = SkewArray.symbolic(2 * n)
        for I in even_subsets(2 * n):
            for check, functional, diagrams, what in (
                    (verify_diagram_decomposition, pfaffinants.diagram_functional,
                     compatible_diagrams(I, n), "diagram decomposition"),
                    (verify_tl_decomposition, pfaffinants.tl_functional,
                     i_maximal_diagrams(I, n), "TL decomposition")):
                functionals = [functional(D) for D in diagrams]
                want = _poly_oracle(A, I, functionals, f"{what} at I={sorted(I)}")
                assert _message(check, A, I) == want, (n, sorted(I), what)
                assert _dict_path(n, I, functionals, what) == want, (n, sorted(I), what)
                failures[what] += want is not None
    if corrupt:
        assert all(failures.values()), failures
    else:
        assert not any(failures.values()), failures


def test_row_sums_match_the_summed_side():
    from pfaflab.diagrams import compatible_diagrams, i_maximal_diagrams
    from pfaflab.pfaffinants import (_column_sum, _diagram_rows, complementary_functional,
                                     diagram_functional, tl_functional)

    # at every I both identities hold, by the rows and by the dicts alike
    for n in (1, 2, 3, 4):
        rows, diagrams = _diagram_rows(n), enumerate_sym_tl(n)
        for I in even_subsets(2 * n):
            want = complementary_functional(n, I).row
            comp, maximal = compatible_diagrams(I, n), i_maximal_diagrams(I, n)
            assert _column_sum(rows[diagrams.index(D)] for D in comp) == want
            assert _summed_side(n, map(diagram_functional, comp)).row == want
            assert _column_sum(tl_functional(D).row for D in maximal) == want
            assert _summed_side(n, map(tl_functional, maximal)).row == want


def test_row_functionals_match_the_table_probe():
    from pfaflab.pfaffinants import diagram_functional, f_tables

    # oracle: each diagram's weight probed in every table, in matching order
    for n in (1, 2, 3, 4, 5):
        tables = f_tables(n)
        for D in enumerate_sym_tl(n):
            want = PfaffinantFunctional.from_dict(n, {pi: t.get(D, 0) for pi, t in tables.items()})
            assert list(diagram_functional(D).coefficients.items()) == \
                list(want.coefficients.items()), D.key()


def test_identities_need_the_generic_array():
    A = SkewArray.symbolic(4)
    scaled = SkewArray(4, {ij: (2 if ij == (1, 3) else 1) * v for ij, v in A.entries.items()})
    missing = SkewArray(4, {ij: v for ij, v in A.entries.items() if ij != (2, 4)})
    for bad in (scaled, missing, SkewArray.block_symbolic(2), *_fraction_arrays()):
        for check in (verify_diagram_decomposition, verify_tl_decomposition):
            with pytest.raises(UsageError, match="SkewArray.symbolic"):
                check(bad, frozenset({1, 2}))


def test_generic_verdict_is_kept_per_array():
    from pfaflab.pfaffinants import _require_symbolic

    A = SkewArray.symbolic(4)
    scaled = SkewArray(4, {ij: (2 if ij == (1, 3) else 1) * v for ij, v in A.entries.items()})
    for _ in range(2):
        with pytest.raises(UsageError, match="SkewArray.symbolic"):
            _require_symbolic(scaled)
        _require_symbolic(A)
    _require_symbolic(SkewArray.symbolic(4))
    assert verify_tl_decomposition(SkewArray.symbolic(4), frozenset({1, 2}))["ok"]


@pytest.mark.slow
def test_complementary_rank_n5():
    A = SkewArray.symbolic(10)
    comp = [complementary_pfaffian(A, I) for I in even_subsets(10)]
    assert len(comp) == 512
    assert matrix_rank(comp) == 126


def test_z_span_equality():
    # every complementary pfaffian is an integer combination of TL
    # pfaffinants via the unit-triangular transition matrix
    for n in (1, 2):
        A = SkewArray.symbolic(2 * n)
        gens = [tl_pfaffinant(D, A) for D in enumerate_sym_tl_even(n)]
        for I in even_subsets(2 * n):
            coeffs = express_in_span(complementary_pfaffian(A, I), gens)
            assert coeffs is not None
            assert all(c.denominator == 1 for c in coeffs)


def test_cone_membership():
    for D in enumerate_sym_tl_even(2):
        assert cone_membership(ConeElement.from_dict(2, {D: 1})).positive
    bad = ConeElement.from_dict(2, {D2(): -1})
    verdict = cone_membership(bad)
    assert not verdict.positive and verdict.witness == D2()
    with pytest.raises(ValueError, match="even diagrams only"):
        ConeElement.from_dict(2, {D2(): 1, D2((1, 2)): 1})
    assert ConeElement.from_dict(2, {D2(): 0, D2((1, 4), (2, 3)): 2}).tl_coeffs == \
        {D2((1, 4), (2, 3)): Fraction(2)}


def test_cone_element_refuses_diagrams_of_another_n():
    # an even diagram of n = 3, whose row has 15 columns, not the 3 of [4]
    D3 = sym_diagram(3, [])
    assert D3.is_even
    with pytest.raises(ValueError, match=r"n=2 take no diagram of n=3"):
        ConeElement.from_dict(2, {D3: 1})
    with pytest.raises(ValueError, match=r"n=3 take no diagram of n=2"):
        ConeElement.from_dict(3, {D2(): 1})


def test_min_difference_cone_examples():
    elt = min_difference_element(frozenset({2, 3}), 2)
    assert cone_membership(elt).positive
    assert elt.tl_coeffs == {D2((1, 4), (2, 3)): Fraction(1)}
    for n in (2, 3):
        for I in even_subsets(2 * n):
            if len(I) >= n and I:
                assert cone_membership(min_difference_element(I, n)).positive


def test_decomposition_cone_element_matches_theorem():
    elt = decomposition_cone_element(frozenset({1, 2}), 2)
    assert elt.tl_coeffs == {D2(): Fraction(1), D2((1, 4), (2, 3)): Fraction(1)}


def test_maximal_diagrams_no_addable_odd_edge():
    # maximal = even diagrams not contained in any other removal closure
    from pfaflab.diagrams import removal_closure
    for n in (1, 2, 3):
        all_d = enumerate_sym_tl(n)
        brute = {D for D in all_d if D.is_even
                 and not any(D2 != D and D in removal_closure(D2) for D2 in all_d)}
        assert maximal_diagrams(n) == brute
    # every diagram is alternating-compatible since vertical edges join
    # opposite parities
    from pfaflab.diagrams import is_compatible
    alt = frozenset(range(1, 7, 2))
    assert all(is_compatible(D, alt) for D in enumerate_sym_tl(3))


def test_cone_restriction_to_maximal_blocks():
    maximal = maximal_diagrams(2)
    assert maximal == {D2((1, 2), (3, 4)), D2((1, 4), (2, 3))}
    from pfaflab.diagrams import removal_closure
    elt = decomposition_cone_element(frozenset({1, 3}), 2)
    for Dm in maximal:
        assert cone_membership(elt.restrict(removal_closure(Dm))).positive


def test_boolean_cone_check():
    for vec in [(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
                (1, -1, -1, 1), (1, -1, 1, -1), (1, 1, -1, -1),
                (1, -1, 0, 0), (1, 0, -1, 0), (1, 0, 0, -1)]:
        assert boolean_cone_check(3, "odd", vec)
    assert not boolean_cone_check(3, "odd", (0, -1, 0, 0))
    assert boolean_cone_check(2, "even", (1, 0))
    with pytest.raises(ValueError):
        boolean_cone_check(3, "odd", (1, 2, 3))


def test_span_probe_n2():
    rows = {r["diagram"]: r for r in check_pfafprime_in_span(2)}
    assert all(r["in_span"] for r in rows.values())
    assert rows["V[(2,3)]"]["in_span"]  # the zero functional
    assert rows["V[]"]["coefficients"] is not None


def test_f_tables_memo():
    from pfaflab.diagrams import enumerate_matchings
    from pfaflab.pfaffinants import f_tables
    from pfaflab.uncross import f_coefficient, rank_tables

    tables = f_tables(2)
    assert set(tables) == set(enumerate_matchings(2))
    assert all(tables[pi] == f_coefficient(pi, 2, 0) for pi in tables)
    # one view of one set of rank tables per n
    assert f_tables(2) is tables
    ranks = rank_tables(2)
    f_tables.cache_clear()
    rank_tables.cache_clear()
    again = f_tables(2)
    assert again is not tables and again == tables and rank_tables(2) is not ranks


def _evaluate_oracle(f, A):
    """Sum of c * pf_pi(A) in plain Poly arithmetic."""
    total = Poly.zero()
    for pi, c in f.coefficients.items():
        total = total + c * monomial_pfaffian(A, pi)
    return total


def _fraction_arrays():
    """n = 2 arrays whose entries are multi-term polynomials with Fraction coefficients."""
    from pfaflab.networks import path_weight_matrix, random_fence_network
    from pfaflab.schurq import q_jt_matrix
    from test_networks import reweighted

    def scaled(A, c):
        return SkewArray(A.size, {ij: c * v for ij, v in A.entries.items()})

    fence = reweighted(random_fence_network(2, 4, seed=1))
    N = reweighted(fence, [Fraction(1, t + 2) * e.weight for t, e in enumerate(fence.edges)])
    return [scaled(q_jt_matrix([3, 2, 1, 0], [], 2, allow_nonstrict=True), Fraction(1, 3)),
            scaled(q_jt_matrix([2, 2, 1, 1], [], 3, allow_nonstrict=True), Fraction(2, 3)),
            path_weight_matrix(N)]


def test_evaluate_matches_poly_oracle():
    from pfaflab.diagrams import enumerate_matchings
    from pfaflab.pfaffinants import PfaffinantFunctional, diagram_functional, tl_functional

    pis = enumerate_matchings(2)
    functionals = [diagram_functional(D) for D in enumerate_sym_tl(2)]
    functionals += [tl_functional(D) for D in enumerate_sym_tl_even(2)]
    functionals.append(PfaffinantFunctional.from_dict(2, {pis[0]: 3, pis[1]: -5, pis[2]: 4}))
    arrays = _fraction_arrays()
    assert all(any(isinstance(c, Fraction) for c in v.terms.values()) and len(v.terms) > 1
               for A in arrays for v in A.entries.values())
    for A in arrays:
        for f in functionals:
            got = f.evaluate(A)
            assert got == _evaluate_oracle(f, A)
            assert all(type(c) is int or c.denominator != 1 for c in got.terms.values())
    # equal entries: pf_pi(A) is the same for every matching, so +1 and -1 cancel
    P = Fraction(1, 2) * Poly.var(a(1, 2)) + Fraction(1, 3) * Poly.var(a(3, 4))
    flat = SkewArray(4, {(i, j): P for i in range(1, 5) for j in range(i + 1, 5)})
    cancel = PfaffinantFunctional.from_dict(2, {pis[0]: 1, pis[2]: -1})
    assert cancel.evaluate(flat).terms == {} == _evaluate_oracle(cancel, flat).terms
    # 36 clears the denominators of P^2, so every coefficient is an int
    square = PfaffinantFunctional.from_dict(2, {pis[1]: 36})
    got = square.evaluate(flat)
    assert got == _evaluate_oracle(square, flat)
    assert got.terms and all(type(c) is int for c in got.terms.values())


def test_from_dict_keeps_rational_coefficients():
    from pfaflab.diagrams import enumerate_matchings
    from pfaflab.pfaffinants import PfaffinantFunctional

    pis = enumerate_matchings(2)
    raw = {pis[0]: Fraction(1, 2), pis[1]: Fraction(4, 2), pis[2]: Fraction(0)}
    f = PfaffinantFunctional.from_dict(2, raw)
    assert f.coefficients == {pis[0]: Fraction(1, 2), pis[1]: 2}
    assert type(f.coefficients[pis[1]]) is int
    for A in [A4] + _fraction_arrays():
        A = SkewArray(A.size, A.entries)   # the same entries, with empty memos
        # the oracle sums the raw coefficients, not the stored ones
        want = Poly.zero()
        for pi, c in raw.items():
            want = want + c * monomial_pfaffian(A, pi)
        # the second evaluation reads the array's memo, which the first filled
        assert f.evaluate(A) == want == f.evaluate(A) == _evaluate_oracle(f, A)
        assert set(A.monomials) == {pis[0], pis[1]}


def test_from_dict_refuses_keys_that_are_not_matchings():
    from pfaflab.diagrams import matching

    pis = enumerate_matchings(2)
    for key in (matching([(1, 2), (3, 4), (5, 6)]),       # a matching of [6], not of [4]
                frozenset([(2, 1), (3, 4)]),              # a pair given unsorted
                frozenset([(1, 2)])):                     # a partial matching
        with pytest.raises(ValueError, match=re.escape(str(sorted(key)))):
            PfaffinantFunctional.from_dict(2, {pis[0]: 1, key: 1})
    # every matching of [4] is taken, as a frozenset or as a list of pairs
    f = PfaffinantFunctional.from_dict(2, {pis[0]: 1, tuple(sorted(pis[2])): -1})
    assert f.row == (1, 0, -1) and f.coefficients == {pis[0]: 1, pis[2]: -1}


def test_functional_rows_are_held_once_per_n():
    from pfaflab.diagrams import removal_closure
    from pfaflab.pfaffinants import _column_sum, _diagram_rows, diagram_functional, tl_functional

    for n in (1, 2, 3, 4):
        rows = _diagram_rows(n)
        for r, D in enumerate(enumerate_sym_tl(n)):
            # the very tuple of the per-n rows, not a copy
            assert diagram_functional(D).row is rows[r], D.key()
        for D in enumerate_sym_tl_even(n):
            closure = [rows[enumerate_sym_tl(n).index(Dp)] for Dp in removal_closure(D)]
            assert tl_functional(D).row == _column_sum(closure), D.key()
            assert len(tl_functional(D).row) == len(enumerate_matchings(n))


def test_shared_pfaffian_memo_matches_fresh_evaluation():
    from pfaflab.pfaffinants import diagram_functional, tl_functional

    for n in (2, 3):
        functionals = [diagram_functional(D) for D in enumerate_sym_tl(n)]
        functionals += [tl_functional(D) for D in enumerate_sym_tl_even(n)]
        A = SkewArray.symbolic(2 * n)
        for f in functionals:
            fresh = SkewArray.symbolic(2 * n)
            assert f.evaluate(A) == f.evaluate(fresh) == _evaluate_oracle(f, A)
            assert set(fresh.monomials) == set(f.coefficients)
        assert set(A.monomials) == {pi for f in functionals for pi in f.coefficients}


def test_cone_element_functional_is_the_tl_combination():
    import random

    from pfaflab.pfaffinants import cone_elements, tl_functional

    for n in (1, 2, 3):
        A = SkewArray.symbolic(2 * n)
        for label, elt in cone_elements(n, random.Random(n), 2):
            want = Poly.zero()
            for D, c in elt.tl_coeffs.items():
                want = want + c * tl_functional(D).evaluate(A)
            assert elt.functional().evaluate(A) == want, label
    half = ConeElement.from_dict(2, {D: Fraction(1, 2) for D in enumerate_sym_tl_even(2)})
    want = Poly.zero()
    for D in enumerate_sym_tl_even(2):
        want = want + Fraction(1, 2) * tl_pfaffinant(D, A4)
    assert half.functional().evaluate(A4) == want


def test_summed_side_matches_per_diagram_sum():
    from pfaflab.diagrams import compatible_diagrams, i_maximal_diagrams
    from pfaflab.pfaffinants import diagram_functional, tl_functional

    for n in (1, 2, 3):
        A = SkewArray.symbolic(2 * n)
        for I in even_subsets(2 * n):
            comp, maximal = compatible_diagrams(I, n), i_maximal_diagrams(I, n)
            want = Poly.zero()
            for D in comp:
                want = want + diagram_pfaffinant(D, A)
            assert _summed_side(n, map(diagram_functional, comp)).evaluate(A) == want
            want = Poly.zero()
            for D in maximal:
                want = want + tl_pfaffinant(D, A)
            assert _summed_side(n, map(tl_functional, maximal)).evaluate(A) == want


def test_tl_functional_matches_closure_sum_over_tables():
    from pfaflab.diagrams import removal_closure
    from pfaflab.pfaffinants import f_tables, tl_functional

    # oracle: per matching, the table weights summed over the removal closure
    for n in (1, 2, 3, 4):
        tables = f_tables(n)
        for D in enumerate_sym_tl_even(n):
            closure = removal_closure(D)
            want = {pi: sum(t.get(Dp, 0) for Dp in closure) for pi, t in tables.items()}
            assert tl_functional(D).coefficients == {pi: c for pi, c in want.items() if c}, \
                D.key()


def test_functional_memo_keys_are_canonical():
    from pfaflab import verify
    from pfaflab.pfaffinants import diagram_functional, tl_functional

    diagram_functional.cache_clear()
    tl_functional.cache_clear()
    diagrams, even = enumerate_sym_tl(2), enumerate_sym_tl_even(2)
    for D in diagrams:
        # an equal diagram built anew finds the same entry
        copy = sym_diagram(2, [(j, i) for i, j in D.vertical_left])
        assert copy is not D and diagram_functional(D) is diagram_functional(copy)
    for D in even:
        assert tl_functional(D) is tl_functional(sym_diagram(2, D.vertical_left))
    assert diagram_functional.cache_info().currsize == len(diagrams)
    assert tl_functional.cache_info().currsize == len(even)
    # thm-2.12 sums the TL rows at n = 1 and 2, and thm-5.4 reads the same
    # functionals at n = 2: one entry per diagram, and each row held once
    tl_functional.cache_clear()
    verify.run("thm-2.12", {"n": 2})
    rows = {D: tl_functional(D).row for D in even}
    verify.run("thm-5.4", {"bound": 2})
    assert tl_functional.cache_info().currsize == len(enumerate_sym_tl_even(1)) + len(even)
    assert all(tl_functional(D).row is row for D, row in rows.items())
