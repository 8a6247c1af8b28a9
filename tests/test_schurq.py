from fractions import Fraction
from math import comb

import pytest

from pfaflab.pfaffian import pfaffian
from pfaflab.poly import Poly, a, x
from pfaflab.schurq import (_classify_with_recheck, classify_difference, expand_in_q_basis,
                            join_meet, join_meet_parts, merged_positions, monomial_expand,
                            one_row_q, q_from_pfaffian, q_jt_matrix, scan_cell_transfer,
                            scan_q_positivity, scan_sort, schur_q, schur_q_tableaux, shifted_cells,
                            sort_split, strict_partitions, strict_subpartitions, two_row_q,
                            verify_min_difference_q)


def test_one_row_values():
    for r in (1, 2, 3):
        assert schur_q((r,), (), 1) == 2 * Poly.var(x(1)) ** r
    assert schur_q((), (), 3) == Poly.const(1)
    assert one_row_q(0, 2) == Poly.const(1)
    assert one_row_q(-2, 2).is_zero()


def test_q1_value():
    assert schur_q((1,), (), 2).render() == "2*x[1] + 2*x[2]"


def test_branching_matches_tableaux():
    def shapes(max_size):
        for size in range(max_size + 1):
            for lam in strict_partitions(size) if size else [()]:
                for mu in strict_subpartitions(lam):
                    yield lam, mu

    for k in range(1, 5):
        for lam, mu in shapes(8):
            assert schur_q(lam, mu, k) == schur_q_tableaux(lam, mu, k), (lam, mu, k)
    for lam, mu in shapes(7):
        assert schur_q(lam, mu, 5) == schur_q_tableaux(lam, mu, 5), (lam, mu, 5)


def test_branching_corner_components():
    # the strip (4,1)/(2) has two components that touch only at a corner
    assert schur_q((4, 1), (2,), 1) == 4 * Poly.var(x(1)) ** 3


def test_schur_q_input_errors():
    for fn in (schur_q, schur_q_tableaux):
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
    assert expand_in_q_basis(schur_q((2, 1), (), 3), 3).as_dict() == {(2, 1): Fraction(1)}
    sq1 = schur_q((1,), (), 3)
    exp = expand_in_q_basis(sq1 * sq1, 3)
    assert exp.ok and exp.as_dict() == {(2,): Fraction(2)}
    # recombination reproduces the input
    back = Poly.zero()
    for lam, c in exp.coeffs:
        back = back + c * schur_q(lam, (), 3)
    assert back == sq1 * sq1


def test_expand_remainder_flag():
    # a lone variable is not symmetric once a second variable exists
    exp = expand_in_q_basis(Poly.var(x(1)), 2)
    assert not exp.ok
    # a matrix-entry polynomial is rejected outright
    exp = expand_in_q_basis(Poly.var(a(1, 2)), 2)
    assert not exp.ok


def _expand_by_poly_arithmetic(f, k):
    """expand_in_q_basis with the remainder kept as a Poly: rem - c * Q_lam."""
    from pfaflab.schurq import QExpansion, is_strict

    coeffs = {}
    rem = f
    while not rem.is_zero():
        vecs = {}
        for mono, c in rem.items():
            if any(v[0] != "x" or v[1] > k for v in mono):
                return QExpansion(tuple(sorted(coeffs.items())), rem)
            vecs[tuple(mono.count(x(i)) for i in range(1, k + 1))] = c
        lead = max(vecs)
        lam = tuple(p for p in lead if p)
        if list(lead) != sorted(lead, reverse=True) or not is_strict(lam):
            return QExpansion(tuple(sorted(coeffs.items())), rem)
        c = Fraction(vecs[lead], 2 ** len(lam))
        coeffs[lam] = coeffs.get(lam, Fraction(0)) + c
        rem = rem - c * schur_q(lam, (), k)
    return QExpansion(tuple(sorted((l, c) for l, c in coeffs.items() if c)), Poly.zero())


def test_expand_matches_poly_arithmetic():
    k = 4
    in_span = schur_q((3, 1), (), k) * schur_q((2, 1), (), k) - 3 * schur_q((4, 2, 1), (), k)
    # peels the same three Q-functions, then stops at the asymmetric x[1]^2*x[2]^3
    out_of_span = in_span + Fraction(1, 3) * Poly.var(x(1)) ** 2 * Poly.var(x(2)) ** 3
    for f, ok in ((in_span, True), (out_of_span, False)):
        got, want = expand_in_q_basis(f, k), _expand_by_poly_arithmetic(f, k)
        assert got == want and got.ok is ok and len(got.coeffs) > 2
    assert not expand_in_q_basis(out_of_span, k).remainder.is_zero()


def test_monomial_expand():
    assert monomial_expand(schur_q((1,), (), 2), 2) == {(1,): 2}
    assert monomial_expand(Poly.var(a(1, 2)), 2) is None
    assert monomial_expand(Poly.var(x(1)), 2) is None
    q2 = schur_q((2,), (), 2)
    assert monomial_expand(q2, 2) == {(2,): 2, (1, 1): 4}


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
    recs = list(scan_q_positivity(2, 4, k=4, combos=1))
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


def test_recheck_in_one_more_variable():
    lone = Poly.var(x(1))  # not symmetric in two variables
    asked = []

    def rebuild(j):
        asked.append(j)
        return schur_q((1,), (), j)

    assert _classify_with_recheck(lone, 2, rebuild) == ("positive", {(1,): Fraction(1)})
    assert asked == [3]
    assert _classify_with_recheck(lone, 2)[0] == "not-in-q-span"
    assert _classify_with_recheck(schur_q((1,), (), 2), 2, rebuild)[0] == "positive"
    assert asked == [3]
