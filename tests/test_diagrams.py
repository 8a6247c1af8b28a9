from math import comb

import pytest

from pfaflab.diagrams import (NotStandardError, OddSubsetError, compatible_diagrams,
                              crossing_number, diagram_order_key, enumerate_matchings,
                              enumerate_noncrossing_4n, enumerate_sym_tl, enumerate_sym_tl_even,
                              enumerate_tl, i_maximal_diagrams, i_set, is_standard_partition,
                              matching, matching_sign, omega_involution, parse_diagram_key,
                              parse_tl_key, removal_closure, standard_partition,
                              standard_partition_inv, subset_bijection, subset_bijection_inv,
                              sym_diagram, tl_diagram)

M = matching
D2 = lambda *edges: sym_diagram(2, edges)


def test_matching_counts():
    assert enumerate_matchings(1) == [frozenset({(1, 2)})]
    assert len(enumerate_matchings(2)) == 3
    assert len(enumerate_matchings(4)) == 105
    with pytest.raises(ValueError):
        enumerate_matchings(7)


def test_crossing_numbers():
    assert crossing_number(M([(1, 2), (3, 4)])) == 0
    assert crossing_number(M([(1, 3), (2, 4)])) == 1
    assert crossing_number(M([(1, 4), (2, 3)])) == 0
    assert matching_sign(M([(1, 3), (2, 4)])) == -1


def test_diagram_validation():
    with pytest.raises(ValueError):
        sym_diagram(2, [(1, 4)])  # points 2, 3 would be horizontal inside (1,4)
    with pytest.raises(ValueError):
        sym_diagram(2, [(1, 3), (2, 4)])  # crossing verticals
    D = D2((1, 4), (2, 3))
    assert D.order == 2 and D.is_even


def test_diagram_counts_against_binomials():
    for n in range(1, 6):
        assert len(enumerate_sym_tl(n)) == comb(2 * n, n)
        assert len(enumerate_sym_tl_even(n)) == comb(2 * n - 1, n)


def test_enumeration_against_noncrossing_oracle():
    # mirror-symmetric non-crossing matchings on 4n boundary positions
    for n in (1, 2, 3):
        mirror = lambda p: 4 * n + 1 - p
        oracle = set()
        for matching_4n in enumerate_noncrossing_4n(n):
            if all(tuple(sorted((mirror(i), mirror(j)))) in matching_4n for i, j in matching_4n):
                oracle.add(matching_4n)
        ours = {D.full_position_matching() for D in enumerate_sym_tl(n)}
        assert ours == oracle


def test_subset_bijection_rule():
    assert subset_bijection(D2()) == frozenset({3, 4})
    for n in (1, 2, 3):
        for D in enumerate_sym_tl(n):
            assert subset_bijection_inv(subset_bijection(D), n) == D
    assert len({subset_bijection(D) for D in enumerate_sym_tl(3)}) == 20


def test_omega_involution():
    assert omega_involution(D2()) == D2((1, 2))
    for n in (1, 2, 3):
        diagrams = enumerate_sym_tl(n)
        for D in diagrams:
            w = omega_involution(D)
            assert omega_involution(w) == D
            assert abs(w.order - D.order) == 1
        evens = [D for D in diagrams if D.is_even]
        image = {omega_involution(D) for D in evens}
        assert image == {D for D in diagrams if not D.is_even}


def test_removal_closure_examples():
    assert removal_closure(D2((1, 4), (2, 3))) == {D2((1, 4), (2, 3)), D2((2, 3))}
    assert removal_closure(D2((2, 3))) == {D2((2, 3))}
    assert removal_closure(D2((1, 2), (3, 4))) == {
        D2((1, 2), (3, 4)), D2((1, 2)), D2((3, 4)), D2()}


def test_removal_closure_properties():
    for n in range(1, 5):
        for D in enumerate_sym_tl(n):
            S = removal_closure(D)  # power-of-2 size asserted internally
            for D1 in S:
                assert removal_closure(D1) <= S


def test_compatible_diagrams_examples():
    assert compatible_diagrams(frozenset({1, 2, 3, 4}), 2) == {D2()}
    assert compatible_diagrams(frozenset({1, 3}), 2) == set(enumerate_sym_tl(2))
    assert compatible_diagrams(frozenset({1, 2}), 2) == {
        D2(), D2((2, 3)), D2((1, 4), (2, 3))}
    with pytest.raises(OddSubsetError):
        compatible_diagrams(frozenset({1}), 2)


def test_i_maximal_examples():
    assert i_maximal_diagrams(frozenset({1, 2, 3, 4}), 2) == {D2()}
    assert i_maximal_diagrams(frozenset({1, 2}), 2) == {D2(), D2((1, 4), (2, 3))}
    assert i_maximal_diagrams(frozenset({1, 3}), 2) == {
        D2((1, 2), (3, 4)), D2((1, 4), (2, 3))}


def test_i_maximal_matches_quadratic_definition():
    from itertools import combinations

    from pfaflab.diagrams import _i_maximal_cached, is_compatible
    from pfaflab.pfaffinants import maximal_diagrams

    # oracle: even compatible diagrams inside no other compatible diagram's
    # closure, for every even I and the alternating set of maximal_diagrams
    for n in (1, 2, 3, 4):
        points = range(1, 2 * n + 1)
        subsets = [frozenset(c) for r in range(0, 2 * n + 1, 2) for c in combinations(points, r)]
        for I in subsets + [frozenset(range(1, 2 * n + 1, 2))]:
            comp = [D for D in enumerate_sym_tl(n) if is_compatible(D, I)]
            want = {D for D in comp if D.is_even
                    and not any(D2 != D and D in removal_closure(D2) for D2 in comp)}
            # the alternating set has odd size when n is odd, and the
            # compatibility index holds only even subsets
            got = _i_maximal_cached(I, n) if len(I) % 2 == 0 else maximal_diagrams(n)
            assert got == want, (n, sorted(I))


def test_compatible_index_matches_the_filter():
    from itertools import combinations

    from pfaflab.diagrams import _compatible_index, is_compatible

    # oracle: is_compatible tested for every diagram at every even I
    for n in (1, 2, 3, 4, 5):
        points = range(1, 2 * n + 1)
        subsets = [frozenset(c) for r in range(0, 2 * n + 1, 2) for c in combinations(points, r)]
        want = {I: frozenset(D for D in enumerate_sym_tl(n) if is_compatible(D, I))
                for I in subsets}
        assert _compatible_index(n) == want, n


def test_every_diagram_is_maximal_for_its_own_subset():
    for n in (1, 2, 3):
        for D in enumerate_sym_tl(n):
            I = i_set(D)
            if len(I) % 2 == 0:
                assert D in i_maximal_diagrams(I, n)


def test_order_chain_n2():
    order = [D.key() for D in enumerate_sym_tl(2)]
    assert order == ["V[]", "V[(3,4)]", "V[(2,3)]", "V[(1,2)]",
                     "V[(1,4)(2,3)]", "V[(1,2)(3,4)]"]
    assert i_set(D2()) == frozenset({1, 2, 3, 4})


def test_standard_partition_examples():
    assert standard_partition(D2((1, 2), (3, 4))) == ((1, 3), (2, 4))
    assert standard_partition_inv((1, 2), (3, 4), 2) == D2((2, 3), (1, 4))
    with pytest.raises(NotStandardError):
        standard_partition_inv((2, 4), (1, 3), 2)
    for n in (1, 2, 3):
        for D in enumerate_sym_tl(n):
            I, Ibar = standard_partition(D)
            assert is_standard_partition(I, Ibar, n)
            assert standard_partition_inv(I, Ibar, n) == D


def test_tl_enumeration():
    assert len(enumerate_tl(2)) == 2
    assert len(enumerate_tl(3)) == 5
    assert len(enumerate_tl(4)) == 14
    with pytest.raises(ValueError):
        tl_diagram(2, [(1, 3), (2, 4)])


def test_diagram_keys_parse_round_trip():
    for D in enumerate_sym_tl(3):
        assert parse_diagram_key(D.key(), 3) == D
    for n in range(1, 5):
        for d in enumerate_tl(n):
            assert parse_tl_key(d.key(), n) == d
    for key in ("T[1,2]", "T[(1,2)(3,4)x]", "V[(1,2)(3,4)]"):
        with pytest.raises(ValueError, match="bad TL diagram key"):
            parse_tl_key(key, 2)


def test_order_key_is_total():
    for n in (2, 3):
        keys = [diagram_order_key(D) for D in enumerate_sym_tl(n)]
        assert len(set(keys)) == len(keys)
        assert keys == sorted(keys)
