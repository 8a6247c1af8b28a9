from collections import Counter
from fractions import Fraction
from itertools import permutations
from math import comb

import pytest

from pfaflab.pfaffian import monomial_pfaffian, pfaffian
from pfaflab.poly import Poly, UsageError, a, x
from pfaflab.schurq import (_record, classify_difference, expand_in_q_basis, join_meet,
                            join_meet_parts, merged_positions, monomial_expand, one_row_q,
                            peel_decreasing, q_decreasing, q_from_pfaffian, q_jt_matrix,
                            q_product, scan_cell_transfer, scan_q_positivity, scan_sort,
                            schur_q, shifted_cells, sort_split, strict_partitions,
                            strict_subpartitions, two_row_q, verify_min_difference_q)


def schur_q_tableaux(lam, mu, k: int) -> Poly:
    """Weight generating function of shifted tableaux in letters 1' < 1 < ... < k.

    Rows and columns weakly increase; each primed letter appears at most
    once per row and each unprimed letter at most once per column.  The
    tableaux are enumerated one by one: this is the oracle for ``schur_q``.
    """
    if k < 1:
        raise ValueError("need at least one variable")
    cells = shifted_cells(lam, mu)
    # letters encoded 1..2k: odd = primed, even = unprimed
    filling = {}
    weights = Counter()

    def letter_ok(r, c, v):
        left = filling.get((r, c - 1))
        up = filling.get((r - 1, c))
        if left is not None and (v < left or v == left and v % 2 == 1):
            return False  # a decrease, or a repeated primed letter in a row
        if up is not None and (v < up or v == up and v % 2 == 0):
            return False  # a decrease, or a repeated unprimed letter in a column
        return True

    def rec(i, wt):
        if i == len(cells):
            weights[tuple(wt)] += 1
            return
        r, c = cells[i]
        for v in range(1, 2 * k + 1):
            if letter_ok(r, c, v):
                filling[(r, c)] = v
                wt[(v - 1) // 2] += 1
                rec(i + 1, wt)
                wt[(v - 1) // 2] -= 1
                del filling[(r, c)]

    rec(0, [0] * k)
    return Poly({tuple(x(i + 1) for i, e in enumerate(wt) for _ in range(e)): count
                 for wt, count in weights.items()})


def test_one_row_values():
    for r in (1, 2, 3):
        assert schur_q((r,), (), 1) == 2 * Poly.var(x(1)) ** r
    assert schur_q((), (), 3) == Poly.const(1)
    assert one_row_q(0, 2) == Poly.const(1)
    assert one_row_q(-2, 2).is_zero()


def test_q1_value():
    assert schur_q((1,), (), 2).render() == "2*x[1] + 2*x[2]"


def _skew_shapes(max_size):
    """Every strict lam/mu with |lam| <= max_size."""
    for size in range(max_size + 1):
        for lam in strict_partitions(size) if size else [()]:
            for mu in strict_subpartitions(lam):
                yield lam, mu


def test_branching_matches_tableaux():
    for k in range(1, 5):
        for lam, mu in _skew_shapes(8):
            assert schur_q(lam, mu, k) == schur_q_tableaux(lam, mu, k), (lam, mu, k)
    for lam, mu in _skew_shapes(7):
        assert schur_q(lam, mu, 5) == schur_q_tableaux(lam, mu, 5), (lam, mu, 5)


def test_branching_corner_components():
    # the strip (4,1)/(2) has two components that touch only at a corner
    assert schur_q((4, 1), (2,), 1) == 4 * Poly.var(x(1)) ** 3


def test_decreasing_part_matches_schur_q():
    for k in range(1, 7):
        for lam, mu in _skew_shapes(9):
            assert q_decreasing(lam, mu, k) == monomial_expand(schur_q(lam, mu, k), k), (lam, mu, k)


def test_schur_q_input_errors():
    for fn in (schur_q, q_decreasing, schur_q_tableaux):
        with pytest.raises(ValueError):
            fn((2, 1), (), 0)
        with pytest.raises(ValueError):
            fn((2, 2), (), 3)


def test_shifted_cells_and_validation():
    assert shifted_cells((3, 1)) == [(1, 1), (1, 2), (1, 3), (2, 2)]
    assert shifted_cells((3, 1), (2,)) == [(1, 3), (2, 2)]
    with pytest.raises(ValueError):
        shifted_cells((2, 2))
    with pytest.raises(ValueError):
        shifted_cells((2,), (3,))


def test_symmetry_under_adjacent_swap():
    for lam in ((2, 1), (3,), (3, 1)):
        p = schur_q(lam, (), 3)
        swapped = {}
        for mono, c in p.items():
            sub = tuple(sorted(x(2) if v == x(1) else x(1) if v == x(2) else v for v in mono))
            swapped[sub] = c
        assert Poly(swapped) == p


def test_two_row_antisymmetry():
    assert two_row_q(1, 3, 4) == -two_row_q(3, 1, 4)
    assert two_row_q(2, 2, 4).is_zero()
    assert two_row_q(2, 0, 3) == one_row_q(2, 3)


def test_jacobi_trudi_identities():
    assert q_from_pfaffian((2, 1), (), 3) == schur_q((2, 1), (), 3)
    assert q_from_pfaffian((3, 1), (2,), 4) == schur_q((3, 1), (2,), 4)
    assert q_from_pfaffian((4, 2, 1), (2, 1), 4) == schur_q((4, 2, 1), (2, 1), 4)


def test_jacobi_trudi_sign_variant():
    for lam, mu in (((3, 1), (2,)), ((4, 2), (3, 1))):
        A = q_jt_matrix(lam, mu, 3)
        At = q_jt_matrix(lam, mu, 3, reversed_h=True)
        assert pfaffian(A) == (-1) ** comb(len(mu), 2) * pfaffian(At)


def test_generalized_matrix_allows_nonstrict():
    A = q_jt_matrix([2, 2], [], 3, allow_nonstrict=True)
    assert A.upper(1, 2).is_zero()
    with pytest.raises(ValueError):
        q_jt_matrix([2, 2], [], 3)


def test_expand_in_q_basis():
    assert expand_in_q_basis(schur_q((2, 1), (), 3), 3) == ({(2, 1): Fraction(1)}, Poly.zero())
    sq1 = schur_q((1,), (), 3)
    coeffs, remainder = expand_in_q_basis(sq1 * sq1, 3)
    assert remainder.is_zero() and coeffs == {(2,): Fraction(2)}
    # recombination reproduces the input
    back = Poly.zero()
    for lam, c in coeffs.items():
        back = back + c * schur_q(lam, (), 3)
    assert back == sq1 * sq1


def test_expand_remainder_flag():
    # a lone variable is not symmetric once a second variable exists
    assert not expand_in_q_basis(Poly.var(x(1)), 2)[1].is_zero()
    # a matrix-entry polynomial is rejected outright
    assert not expand_in_q_basis(Poly.var(a(1, 2)), 2)[1].is_zero()


def _expand_by_poly_arithmetic(f, k):
    """expand_in_q_basis with the remainder kept as a Poly: rem - c * Q_lam."""
    from pfaflab.schurq import is_strict

    coeffs = {}
    rem = f
    while not rem.is_zero():
        vecs = {}
        for mono, c in rem.items():
            if any(v[0] != "x" or v[1] > k for v in mono):
                return coeffs, rem
            vecs[tuple(mono.count(x(i)) for i in range(1, k + 1))] = c
        lead = max(vecs)
        lam = tuple(p for p in lead if p)
        if list(lead) != sorted(lead, reverse=True) or not is_strict(lam):
            return coeffs, rem
        c = Fraction(vecs[lead], 2 ** len(lam))
        coeffs[lam] = coeffs.get(lam, Fraction(0)) + c
        rem = rem - c * schur_q(lam, (), k)
    return {l: c for l, c in coeffs.items() if c}, Poly.zero()


def test_expand_matches_poly_arithmetic():
    k = 4
    in_span = schur_q((3, 1), (), k) * schur_q((2, 1), (), k) - 3 * schur_q((4, 2, 1), (), k)
    # peels the same three Q-functions, then stops at the asymmetric x[1]^2*x[2]^3
    out_of_span = in_span + Fraction(1, 3) * Poly.var(x(1)) ** 2 * Poly.var(x(2)) ** 3
    for f, ok in ((in_span, True), (out_of_span, False)):
        got, want = expand_in_q_basis(f, k), _expand_by_poly_arithmetic(f, k)
        assert got == want and got[1].is_zero() is ok and len(got[0]) > 2
    assert not expand_in_q_basis(out_of_span, k)[1].is_zero()
    # peeling Q_(2) off x[1]^2 brings in monomials that f lacks, and stops at x[1]*x[2]
    lone = Poly.var(x(1)) ** 2
    got = expand_in_q_basis(lone, k)
    assert got == _expand_by_poly_arithmetic(lone, k) and got[0] == {(2,): Fraction(1, 2)}
    # a monomial in a matrix entry stops the expansion before any peel, with all of f left
    with_entry = in_span + Poly.var(a(1, 2))
    got = expand_in_q_basis(with_entry, k)
    assert got == _expand_by_poly_arithmetic(with_entry, k)
    assert got == ({}, with_entry)


def _monomial_expand_by_orbits(f, k):
    """monomial_expand with each shape's orbit built from its permutations."""
    by_shape = {}
    for mono, c in f.items():
        if any(v[0] != "x" or v[1] > k for v in mono):
            return None
        e = tuple(mono.count(x(i)) for i in range(1, k + 1))
        by_shape.setdefault(tuple(sorted(e, reverse=True)), {})[e] = c
    out = {}
    for shape, seen in by_shape.items():
        if len(set(seen.values())) != 1 or set(seen) != set(permutations(shape)):
            return None
        out[tuple(p for p in shape if p)] = seen[shape]
    return out


def test_monomial_expand():
    assert monomial_expand(schur_q((1,), (), 2), 2) == {(1,): 2}
    assert monomial_expand(Poly.var(a(1, 2)), 2) is None
    assert monomial_expand(Poly.var(x(1)), 2) is None
    q2 = schur_q((2,), (), 2)
    assert monomial_expand(q2, 2) == {(2,): 2, (1, 1): 4}


def test_monomial_expand_matches_orbit_oracle():
    k = 4

    def monomial(e, c=1):
        return Poly({tuple(x(i + 1) for i, p in enumerate(e) for _ in range(p)): c})

    m21 = Poly.zero()
    for e in set(permutations((2, 1, 0, 0))):
        m21 = m21 + monomial(e)
    q = schur_q((3, 1), (), k) * schur_q((2,), (), k) - schur_q((4, 2), (), k)
    cases = [q, m21, q + m21, Poly.zero(),
             q + m21 + monomial((2, 1, 0, 0)),                         # one coefficient differs
             q + monomial((1, 1, 0, 0)) + monomial((1, 0, 1, 0)),      # 2 of an orbit of 6
             q + Poly.var(a(1, 2))]
    got = [monomial_expand(f, k) for f in cases]
    assert got == [_monomial_expand_by_orbits(f, k) for f in cases]
    assert got[1] == {(2, 1): 1}
    assert [m is None for m in got] == [False] * 4 + [True] * 3


def test_join_meet():
    assert join_meet_parts((3, 1), (2, 1)) == ((3, 1), (2, 1))
    assert join_meet_parts((3, 2), (4, 1)) == ((4, 2), (3, 1))
    (jl, jm), (ml, mm) = join_meet(((3, 1), (2,)), ((2, 1), (1,)))
    assert (jl, jm) == ((3, 1), (2,)) and (ml, mm) == ((2, 1), (1,))


def test_sort_split():
    assert sort_split((3, 1), (2,)) == ((3, 1), (2,))
    assert sort_split((2, 1), (2, 1)) == ((2, 1), (2, 1))
    for asize in range(0, 5):
        for lam in (strict_partitions(asize) if asize else [()]):
            for bsize in range(0, 8 - asize + 1):
                for mu in (strict_partitions(bsize) if bsize else [()]):
                    s1, s2 = sort_split(lam, mu)
                    assert sorted(s1 + s2, reverse=True) == sorted(lam + mu, reverse=True)


def test_merged_positions():
    parts, I = merged_positions((2,), (1,))
    assert parts == (2, 1, 0, 0) and I == frozenset({1, 3})
    parts, I = merged_positions((3,), (2, 1))
    assert parts == (3, 2, 1, 0) and I == frozenset({1, 4})


def test_min_difference_bridge():
    verify_min_difference_q((2,), (1,), 3)
    verify_min_difference_q((3,), (2, 1), 4)
    verify_min_difference_q((2, 1), (2, 1), 3)
    verify_min_difference_q((4, 1), (3, 2), 4)


def test_strict_subpartitions():
    assert strict_subpartitions((3, 1)) == [(3, 1), (3,), (2, 1), (2,), (1,), ()]


def test_scan_sort_trivialities():
    recs = {(tuple(r["instance"]["lam"]), tuple(r["instance"]["mu"])): r
            for r in scan_sort(6, k=4)}
    fixed = recs[((2,), (3, 1))]  # the pair is already an alternating split
    assert fixed["zero_difference"] and fixed["verdict"] == "positive"
    assert all(r["verdict"] == "positive" for r in recs.values())


def test_scan_cell_transfer_trivialities():
    recs = list(scan_cell_transfer(5, k=4))
    same = [r for r in recs if r["instance"]["shape1"] == r["instance"]["shape2"]]
    assert same and all(r["zero_difference"] and r["verdict"] == "positive" for r in same)
    assert all(r["verdict"] == "positive" for r in recs)


def test_scan_q_positivity_classification():
    recs = list(scan_q_positivity(2, 4, k=4))
    assert all(r["verdict"] == "positive" for r in recs if r["in_cone"])
    # the odd-diagram functionals are flagged as outside the cone
    flags = {r["instance"]["element"]: r["in_cone"] for r in recs}
    assert flags["diagram:V[(1,2)]"] is False
    assert flags["diagram:V[]"] is True
    assert flags["diagram:V[(2,3)]"] is True


def test_classify_difference_detects_negativity():
    q2 = schur_q((2,), (), 3)
    verdict, expansion = classify_difference(-q2, 3)
    assert verdict == "counterexample" and expansion == {(2,): Fraction(-1)}


@pytest.mark.parametrize("scan", [
    lambda k: scan_q_positivity(2, 3, k=k),
    lambda k: scan_cell_transfer(3, k=k),
    lambda k: scan_sort(4, k=k),
], ids=["con1", "con2", "con3"])
@pytest.mark.parametrize("k", [0, -1])
def test_scans_need_a_variable(scan, k):
    with pytest.raises(UsageError, match="need at least one variable"):
        list(scan(k))


def test_restricted_product_matches_poly_product():
    k = 4
    for (s1, s2), (join, meet) in _con2_pairs(6):
        for s, t in ((s1, s2), (join, meet)):
            full = schur_q(*s, k) * schur_q(*t, k)
            assert q_product(s, t, k) == monomial_expand(full, k), (s, t)


def _symmetric_cases(k):
    """Symmetric polynomials in k variables: in the Q-span, with a negative
    coefficient, and outside it (m_(1,1) and m_(2,2) are not Q-combinations)."""
    q = lambda *lam: schur_q(lam, (), k)
    m11 = Poly({(x(i), x(j)): 1 for i in range(1, k + 1) for j in range(i + 1, k + 1)})
    m22 = Poly({(x(i), x(i), x(j), x(j)): 1 for i in range(1, k + 1) for j in range(i + 1, k + 1)})
    in_span = q(3, 1) * q(2) - 3 * q(4, 2, 1)
    return [Poly.zero(), Poly.const(3), in_span, -in_span, q(2, 1) * q(1) - q(3, 1),
            m11, in_span + Fraction(1, 3) * m22, q(3) * q(1) + m11]


def test_restricted_peel_matches_the_full_peel():
    for k in (2, 4):
        verdicts = set()
        for f in _symmetric_cases(k):
            coeffs, remainder = expand_in_q_basis(f, k)
            got = peel_decreasing(monomial_expand(f, k), k)
            assert got == (coeffs, monomial_expand(remainder, k)), (f.render(), k)
            verdicts.add(classify_difference(f, k)[0])
        assert verdicts == {"positive", "counterexample", "not-in-q-span"}


def test_record_falls_back_to_the_full_peel():
    """A Poly that is not symmetric in x_1..x_k, or that holds another
    variable, gets the full peel's record with its partial expansion; a
    symmetric one gets the same record from the decreasing part."""
    k = 4
    square = Poly.var(x(1)) ** 2
    with_entry = schur_q((2, 1), (), k) + Poly.var(a(1, 2))
    for f in [square, with_entry] + _symmetric_cases(k):
        want = _oracle_record("con1", {}, lambda j: f, k, recheck=False)
        assert _record("con1", {}, f, k) == want, f.render()
    assert _record("con1", {}, square, k)["expansion"] == {"[2]": "1/2"}
    assert _record("con1", {}, with_entry, k)["verdict"] == "not-in-q-span"


def test_recheck_in_one_more_variable():
    lone = Poly.var(x(1))  # not symmetric in two variables
    asked = []

    def rebuild(j):
        asked.append(j)
        return schur_q((1,), (), j)

    rec = _record("con1", {}, lone, 2, rebuild)
    assert (rec["verdict"], rec["expansion"]) == ("positive", {"[1]": "1"})
    assert asked == [3]
    assert _record("con1", {}, lone, 2)["verdict"] == "not-in-q-span"
    assert _record("con1", {}, schur_q((1,), (), 2), 2, rebuild)["verdict"] == "positive"
    assert asked == [3]


# -- the scanners against records rebuilt from first principles ----------------


def _oracle_record(conjecture, instance, diff_at, k, recheck=True):
    """A scan record from the full difference at k, a Poly product, by the
    full peel, reclassified at k + 1 when it is not positive."""
    diff = diff_at(k)
    verdict, expansion = classify_difference(diff, k)
    if verdict != "positive" and recheck:
        verdict, expansion = classify_difference(diff_at(k + 1), k + 1)
    return {"conjecture": conjecture, "instance": instance, "zero_difference": diff.is_zero(),
            "verdict": verdict,
            "expansion": {str(list(l)): str(c) for l, c in sorted(expansion.items())}}


def _con2_pairs(bound):
    """Each con2 pair of skew shapes, in scan order, with its join and meet."""
    shapes = [(lam, mu) for size in range(bound + 1)
              for lam in (strict_partitions(size) if size else [()])
              for mu in strict_subpartitions(lam)]
    return [((s1, s2), join_meet(s1, s2)) for i, s1 in enumerate(shapes) for s2 in shapes[i:]
            if sum(s1[0]) + sum(s2[0]) <= bound]


def _con3_pairs(bound):
    """Each con3 pair of strict partitions, in scan order, with its sorted split."""
    parts = [()] + [lam for size in range(1, bound + 1) for lam in strict_partitions(size)]
    return [((lam, mu), sort_split(lam, mu)) for i, lam in enumerate(parts) for mu in parts[i:]
            if sum(lam) + sum(mu) <= bound]


@pytest.mark.parametrize("k", [2, 4])
def test_cell_transfer_scan_matches_oracle(k):
    bound = 6
    want = []
    for (s1, s2), (join, meet) in _con2_pairs(bound):
        def diff_at(j):
            return schur_q(*join, j) * schur_q(*meet, j) - schur_q(*s1, j) * schur_q(*s2, j)

        instance = {"shape1": f"{list(s1[0])}/{list(s1[1])}",
                    "shape2": f"{list(s2[0])}/{list(s2[1])}"}
        want.append(_oracle_record("con2", instance, diff_at, k))
    got = list(scan_cell_transfer(bound, k=k))
    assert got == want
    # the commutative pairs include distinct shapes, and some pairs are not commutative
    zeros = [r for r in got if r["zero_difference"]]
    assert any(r["instance"]["shape1"] != r["instance"]["shape2"] for r in zeros)
    assert len(zeros) < len(got)


@pytest.mark.parametrize("k", [2, 4])
def test_sort_scan_matches_oracle(k):
    bound = 8
    want = []
    for (lam, mu), (s1, s2) in _con3_pairs(bound):
        def diff_at(j):
            return schur_q(s1, (), j) * schur_q(s2, (), j) \
                - schur_q(lam, (), j) * schur_q(mu, (), j)

        want.append(_oracle_record("con3", {"lam": list(lam), "mu": list(mu)}, diff_at, k))
    got = list(scan_sort(bound, k=k))
    assert got == want
    assert 0 < sum(r["zero_difference"] for r in got) < len(got)


def test_commuting_pairs_multiply_nothing(monkeypatch):
    """A pair with the same two factors on both sides, in either order, gets
    its record with no product and no expansion; every other pair multiplies,
    in m-coefficients and never as Polys."""
    from pfaflab import schurq

    calls = []
    product, peel = schurq.q_product, schurq.peel_decreasing
    monkeypatch.setattr(Poly, "__mul__", lambda f, g: pytest.fail("a Poly product"))
    monkeypatch.setattr(schurq, "q_product",
                        lambda s, t, k: calls.append("mul") or product(s, t, k))
    monkeypatch.setattr(schurq, "peel_decreasing",
                        lambda m, k: calls.append("expand") or peel(m, k))
    swapped = []
    for records, pairs in ((scan_cell_transfer(6, k=4), _con2_pairs(6)),
                           (scan_sort(8, k=4), _con3_pairs(8))):
        swapped.append([])
        for pair, sides in pairs:
            calls.clear()
            next(records)
            commuting = sides in (pair, pair[::-1])
            assert not calls if commuting else calls, (pair, sides)
            if commuting and sides != pair:
                swapped[-1].append(pair)
        assert next(records, None) is None
    assert (((1,), ()), ((2,), ())) in swapped[0] and ((1,), (2,)) in swapped[1]


def _m11(j):
    """m_(1,1) in j variables: symmetric, but no Q-combination."""
    return Poly({(x(p), x(q)): 1 for p in range(1, j + 1) for q in range(p + 1, j + 1)})


def _perturbed_q_jt(extra, at=None, asked=None):
    """``q_jt_matrix`` with ``extra(j)`` added to the (1, 2) entry of the
    arrays in j variables (every j, or only j == at); ``asked`` collects the
    j of every array built."""
    from pfaflab.pfaffian import SkewArray

    def build(lam, mu, j, **kw):
        A = q_jt_matrix(lam, mu, j, **kw)
        if asked is not None:
            asked.append(j)
        if at is not None and j != at:
            return A
        return SkewArray(A.size, {**A.entries, (1, 2): A.upper(1, 2) + extra(j)})

    return build


def _with_rational_combination(monkeypatch):
    """Adds a cone element with non-integral TL coefficients to the con1
    elements: the seeded random combinations draw integers, so their rows
    hold ints only."""
    from pfaflab import schurq
    from pfaflab.diagrams import enumerate_sym_tl_even
    from pfaflab.pfaffinants import ConeElement

    elements = schurq.cone_test_elements

    def with_rational(n, seed):
        even = enumerate_sym_tl_even(n)
        weights = {D: Fraction(1, i + 2) for i, D in enumerate(even)}
        return elements(n, seed) + [("rational", ConeElement.from_dict(n, weights), True)]

    monkeypatch.setattr(schurq, "cone_test_elements", with_rational)


def _con1_oracle(n, bound, k, seed, build=q_jt_matrix):
    """The con1 records rebuilt on the Poly path: every value is the sum of
    the weighted TL (or diagram) evaluations on a fresh array from
    ``build``, peeled in full, and rechecked on a fresh array at k + 1."""
    from pfaflab.pfaffinants import ConeElement, diagram_functional, tl_functional
    from pfaflab.schurq import cone_test_elements, weakly_decreasing_parts

    def value(obj, A):
        if not isinstance(obj, ConeElement):
            return diagram_functional(obj).evaluate(A)
        total = Poly.zero()
        for D, c in obj.tl_coeffs.items():
            total = total + c * tl_functional(D).evaluate(A)
        return total

    want = []
    for pi in weakly_decreasing_parts(bound, 2 * n):
        for label, obj, in_cone in cone_test_elements(n, seed):
            def diff_at(j):
                return value(obj, build(list(pi), [], j, allow_nonstrict=True))

            rec = _oracle_record("con1", {"pi": list(pi), "element": label}, diff_at, k, in_cone)
            want.append({**rec, "in_cone": in_cone})
    return want


@pytest.mark.parametrize("n, bound, k, seed, perturbed", [
    pytest.param(2, 5, 4, 1, False, id="2-5"),
    pytest.param(3, 3, 4, 1, False, id="3-3"),
    pytest.param(2, 7, 3, 0, True, id="n2-k3-seed0-rechecked"),
    pytest.param(2, 8, 3, 3, True, id="n2-k3-seed3-rechecked"),
    pytest.param(3, 9, 3, 2, True, id="n3-k3-seed2-rechecked"),
])
def test_q_positivity_scan_matches_oracle(monkeypatch, n, bound, k, seed, perturbed):
    """The scan's records equal the Poly path's.  A perturbed run adds
    m_(1,1) to one entry of each array in k variables only: the symmetric
    values that hold it leave the Q-span, so the cone elements there are
    rechecked at k + 1, on the unperturbed arrays."""
    from pfaflab import schurq

    _with_rational_combination(monkeypatch)
    asked = []
    build = _perturbed_q_jt(_m11, at=k, asked=asked) if perturbed else q_jt_matrix
    want = _con1_oracle(n, bound, k, seed, build)
    monkeypatch.setattr(schurq, "q_jt_matrix", build)
    asked.clear()
    got = list(scan_q_positivity(n, bound, k=k, seed=seed))
    assert got == want
    rational = [r for r in got if r["instance"]["element"] == "rational"]
    assert rational and (bound < 4 or not all(r["zero_difference"] for r in rational))
    if perturbed:
        # the in-span test fails at k, and the recheck, one array per rechecked
        # instance, restores every cone element's verdict; the others keep theirs
        assert any(r["verdict"] == "not-in-q-span" for r in got)
        assert 0 < asked.count(k + 1) < asked.count(k)
        assert all(r["verdict"] == "positive" for r in got if r["in_cone"])


@pytest.mark.parametrize("n, bound", [(2, 6), (3, 8)])
def test_q_positivity_falls_back_per_element(monkeypatch, n, bound):
    """An array whose (1, 2) entry also holds the variable a[1,2]: the
    monomial pfaffians through that pair are not symmetric in x_1..x_k, so
    the elements whose support meets one take the Poly path, the others the
    m-coefficients, and every record is the Poly path's."""
    from pfaflab import pfaffinants, schurq

    k, seed = 3, 0
    build = _perturbed_q_jt(lambda j: Poly.var(a(1, 2)))
    want = _con1_oracle(n, bound, k, seed, build)
    evaluated = []
    evaluate = pfaffinants.PfaffinantFunctional.evaluate
    monkeypatch.setattr(pfaffinants.PfaffinantFunctional, "evaluate",
                        lambda f, A: evaluated.append(f) or evaluate(f, A))
    monkeypatch.setattr(schurq, "q_jt_matrix", build)
    got = list(scan_q_positivity(n, bound, k=k, seed=seed))
    assert got == want
    assert any(r["verdict"] == "not-in-q-span" for r in got)
    assert 0 < len(evaluated) < len(got)


def test_q_positivity_expands_each_monomial_pfaffian_once(monkeypatch):
    """Each monomial pfaffian of each scanned array goes through
    ``monomial_expand`` at most once, and a forced recheck builds one array
    in k + 1 variables per instance, whose expansions are shared the same way."""
    from pfaflab import schurq

    k = 3
    arrays = []  # every scanned array, kept alive so that no id is reused
    expanded = Counter()

    def tagged_q_jt_matrix(lam, mu, j, **kw):
        A = q_jt_matrix(lam, mu, j, **kw)
        arrays.append((tuple(lam), j, A))
        return A

    def counted_monomial_expand(f, j):
        owners = [(id(A), pi) for _, _, A in arrays for pi, pf in A.monomials.items() if pf is f]
        assert len(owners) == 1
        expanded[owners[0]] += 1
        return monomial_expand(f, j)

    classify = schurq._classify
    monkeypatch.setattr(schurq, "q_jt_matrix", tagged_q_jt_matrix)
    monkeypatch.setattr(schurq, "monomial_expand", counted_monomial_expand)
    # every verdict at k reads as a counterexample, so each cone element is rechecked
    monkeypatch.setattr(schurq, "_classify",
                        lambda diff, j: ("counterexample", {}) if j == k else classify(diff, j))
    for n, bound in ((2, 6), (3, 8)):
        arrays.clear()
        expanded.clear()
        records = list(scan_q_positivity(n, bound, k=k))
        assert expanded and max(expanded.values()) == 1
        instances = {tuple(r["instance"]["pi"]) for r in records}
        for j in (k, k + 1):
            built = [parts for parts, i, _ in arrays if i == j]
            assert sorted(built) == sorted(instances), j
        # and each monomial pfaffian that an array built was expanded
        assert set(expanded) == {(id(A), pi) for *_, A in arrays for pi in A.monomials}


def test_diagram_in_cone_reads_the_cone_membership():
    from pfaflab import schurq
    from pfaflab.diagrams import (enumerate_sym_tl, enumerate_sym_tl_even, matching,
                                  removal_closure)
    from pfaflab.pfaffian import SkewArray
    from pfaflab.pfaffinants import PfaffinantFunctional, diagram_functional, tl_functional
    from pfaflab.poly import express_in_span

    # oracle: the induced coefficients summed over the removal closures
    verdicts = []
    for n in (1, 2, 3):
        A = SkewArray.symbolic(2 * n)
        even = enumerate_sym_tl_even(n)
        gens = [tl_functional(E).evaluate(A) for E in even]
        in_cone = {label: flag for label, _, flag in schurq.cone_test_elements(n, 0)}
        for D in enumerate_sym_tl(n):
            coeffs = express_in_span(diagram_functional(D).evaluate(A), gens)
            induced = {}
            for E, c in zip(even, coeffs):
                for Ep in removal_closure(E):
                    induced[Ep] = induced.get(Ep, 0) + c
            verdicts.append(all(v >= 0 for v in induced.values()))
            assert in_cone[f"diagram:{D.key()}"] == verdicts[-1], D.key()
    assert True in verdicts and False in verdicts
    # a functional with no TL presentation is outside the cone: no single
    # monomial pfaffian at n = 3 lies in the span of the even TL functionals
    value = PfaffinantFunctional.from_dict(3, {matching([(1, 2), (3, 4), (5, 6)]): 1}).evaluate(A)
    assert schurq._in_cone(value, 3, even, gens) is False


def test_cone_test_elements_evaluate_the_generators_once(monkeypatch):
    from pfaflab import pfaffinants, schurq

    calls = []
    evaluate = pfaffinants.PfaffinantFunctional.evaluate
    monkeypatch.setattr(pfaffinants.PfaffinantFunctional, "evaluate",
                        lambda self, A, *rest: calls.append(A) or evaluate(self, A, *rest))
    schurq.cone_test_elements(3, 0)
    # 20 diagrams and 10 even TL generators, all on one symbolic array
    assert len(calls) == 30 and len({id(A) for A in calls}) == 1


def test_q_positivity_builds_each_monomial_pfaffian_once(monkeypatch):
    from collections import Counter

    from pfaflab import pfaffinants, schurq

    tags = {}      # id of each scanned array -> (parts, number of variables)
    arrays = []    # keeps every tagged array alive, so that no id is reused
    built = Counter()

    def tagged_q_jt_matrix(lam, mu, k, **kw):
        A = q_jt_matrix(lam, mu, k, **kw)
        arrays.append(A)
        tags[id(A)] = (tuple(lam), k)
        return A

    def counted_monomial_pfaffian(A, pi):
        if id(A) in tags:
            built[tags[id(A)], pi] += 1
        return monomial_pfaffian(A, pi)

    monkeypatch.setattr(schurq, "q_jt_matrix", tagged_q_jt_matrix)
    monkeypatch.setattr(pfaffinants, "monomial_pfaffian", counted_monomial_pfaffian)
    k = 4
    records = list(scan_q_positivity(2, 5, k=k))
    at_k = {key: count for key, count in built.items() if key[0][1] == k}
    assert at_k and max(at_k.values()) == 1
    assert {parts for (parts, _), _ in at_k} == {tuple(r["instance"]["pi"]) for r in records}
