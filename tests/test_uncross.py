from itertools import combinations

import pytest

from pfaflab.diagrams import enumerate_matchings, enumerate_tl, matching, sym_diagram, tl_diagram
from pfaflab.uncross import (DEFAULT_CLASS_BOUND, CapacityError, ChordMap, embed_nu_d, embed_nu_pi,
                             enumerate_uncrossings, f_coefficient, g_coefficient,
                             g_tilde_coefficient, nu_pi_positions, z_count)

D2 = lambda *edges: sym_diagram(2, edges)


def test_single_edge_census():
    cmap = embed_nu_pi(matching([(1, 2)]), 1)
    assert cmap.census() == {"crossings": 1, "unpaired": 1, "paired_orbits": 0}
    uns = enumerate_uncrossings(cmap)
    assert len(uns) == 2
    assert {u.diagram.key(): u.weight for u in uns} == {"V[]": 1, "V[(1,2)]": -1}


def test_nested_pair_census_and_table():
    pi = matching([(1, 4), (2, 3)])
    for seed in (0, 1):
        cmap = embed_nu_pi(pi, 2, seed)
        assert cmap.census() == {"crossings": 6, "unpaired": 2, "paired_orbits": 2}
        assert len(enumerate_uncrossings(cmap)) == 16
        table = {D.key(): w for D, w in f_coefficient(pi, 2, seed).items()}
        assert table == {"V[]": 1, "V[(1,2)]": -1, "V[(3,4)]": -1,
                         "V[(1,2)(3,4)]": 2, "V[(2,3)]": 0, "V[(1,4)(2,3)]": -1}


def test_disjoint_pair_census():
    pi = matching([(1, 2), (3, 4)])
    cmap = embed_nu_pi(pi, 2)
    assert cmap.census() == {"crossings": 2, "unpaired": 2, "paired_orbits": 0}
    table = {D.key(): w for D, w in f_coefficient(pi, 2).items()}
    assert table == {"V[]": 1, "V[(1,2)]": -1, "V[(3,4)]": -1, "V[(1,2)(3,4)]": 1}


def test_n1_f_table_consistent_with_decomposition():
    table = {D.key(): w for D, w in f_coefficient(matching([(1, 2)]), 1).items()}
    assert table == {"V[]": 1, "V[(1,2)]": -1}


def test_crossing_free_doubled_tl_diagram():
    d = tl_diagram(2, [(1, 2), (3, 4)])  # all cups and caps
    cmap = embed_nu_d(d, 2)
    assert cmap.census()["crossings"] == 0
    table = g_coefficient(d, 2)
    assert len(table) == 1
    ((D, w),) = table.items()
    assert w == 1 and D.order == 2


def test_doubled_tl_mirror_symmetry():
    for n in (2, 3):
        for d in enumerate_tl(n):
            cmap = embed_nu_d(d, n)
            mirror = {tuple(sorted((cmap.mirror_pos(p), cmap.mirror_pos(q))))
                      for p, q in cmap.chords}
            assert mirror == set(cmap.chords)
            for kind in cmap.class_kind:
                assert kind in ("unpaired", "paired")


def test_seed_independence_exhaustive():
    for n in (1, 2, 3):
        for pi in enumerate_matchings(n):
            assert f_coefficient(pi, n, 0) == f_coefficient(pi, n, 1)
        for d in enumerate_tl(n):
            assert g_coefficient(d, n, 0) == g_coefficient(d, n, 1)


def test_weight_multiset_seed_invariant():
    pi = matching([(1, 4), (2, 3)])
    multisets = []
    for seed in (0, 1):
        uns = enumerate_uncrossings(embed_nu_pi(pi, 2, seed))
        multisets.append(sorted(u.weight for u in uns))
    assert multisets[0] == multisets[1]


def test_paired_orbit_inequality_clause():
    # for every paired orbit between chords (q, p') and (s, r'), the
    # inequalities q < s and r < p agree in truth value
    for n in (1, 2, 3):
        for pi in enumerate_matchings(n):
            cmap = embed_nu_pi(pi, n)
            for orbit, members in enumerate(cmap.classes):
                if cmap.class_kind[orbit] != "paired":
                    continue
                cr = cmap.crossings[members[0]]
                c1, c2 = (cmap.chords[c] for c in cr.chords)
                q, p = c1[0], 4 * n + 1 - c1[1]
                s, r = c2[0], 4 * n + 1 - c2[1]
                assert (q < s) == (r < p), (pi, c1, c2)


def test_class_bound():
    pi = matching([(1, 4), (2, 3)])
    with pytest.raises(ValueError) as info:
        f_coefficient(pi, 2, state_bound=2)
    assert info.type is CapacityError
    assert str(info.value) == "4 uncrossing fold states exceed the bound 2"
    with pytest.raises(CapacityError, match=r"^4 resolution classes exceed the bound 3$"):
        enumerate_uncrossings(embed_nu_pi(pi, 2), class_bound=3)


# peak fold state counts, recorded from the union-find fold that the
# mate fold replaced
N3_PEAKS = {((1, 2), (3, 4), (5, 6)): 8, ((1, 3), (2, 4), (5, 6)): 12,
            ((1, 3), (2, 5), (4, 6)): 18, ((1, 6), (2, 5), (3, 4)): 20}


def test_state_bound_is_the_peak():
    for edges, peak in N3_PEAKS.items():
        pi = matching(edges)
        assert f_coefficient(pi, 3, state_bound=peak) == f_coefficient(pi, 3)
        with pytest.raises(CapacityError, match=rf"^{peak} uncrossing fold states exceed "
                                                rf"the bound {peak - 1}$"):
            f_coefficient(pi, 3, state_bound=peak - 1)


def _oracle(cmap):
    """Weights summed per diagram over the enumerated uncrossings."""
    acc = {}
    for u in enumerate_uncrossings(cmap):
        acc[u.diagram] = acc.get(u.diagram, 0) + u.weight
    return acc


def _num_classes(positions, n):
    """Resolution classes of a doubled matching, from interleaving alone:
    a chord crossing its own mirror is one class, other crossings pair up."""
    crossings = unpaired = 0
    for c1, c2 in combinations(positions, 2):
        (a, b), (c, d) = sorted(c1), sorted(c2)
        if a < c < b < d or c < a < d < b:
            crossings += 1
            unpaired += sorted((4 * n + 1 - b, 4 * n + 1 - a)) == [c, d]
    return unpaired + (crossings - unpaired) // 2


def test_fold_matches_enumeration():
    # every matching up to n = 3, n = 4 up to 12 classes (86 of 105) and
    # n = 5 up to 9 classes (65 of 945); every TL diagram up to n = 4
    class_limit = {1: 3, 2: 8, 3: 15, 4: 12, 5: 9}
    for n in (1, 2, 3, 4, 5):
        pis = [pi for pi in enumerate_matchings(n)
               if _num_classes(nu_pi_positions(pi, n), n) <= class_limit[n]]
        for seed in (0, 1):
            for pi in pis:
                assert f_coefficient(pi, n, seed) == _oracle(embed_nu_pi(pi, n, seed)), (pi, seed)
            for d in enumerate_tl(n) if n <= 4 else ():
                assert g_coefficient(d, n, seed) == _oracle(embed_nu_d(d, n, seed)), (d, seed)
    assert len(pis) == 65
    pi = matching([(1, 8), (2, 7), (3, 6), (4, 5)])   # 16 classes, the most at n = 4
    assert f_coefficient(pi, 4) == _oracle(embed_nu_pi(pi, 4))


def test_fold_reaches_n5():
    pi = matching([(1, 10), (2, 9), (3, 8), (4, 7), (5, 6)])
    assert embed_nu_pi(pi, 5).num_classes == 25 > DEFAULT_CLASS_BOUND
    tables = [f_coefficient(pi, 5, seed) for seed in (0, 1)]
    assert tables[0] and tables[0] == tables[1]


def test_z_count_and_tilde_sign():
    d_cups = tl_diagram(2, [(1, 2), (3, 4)])
    d_through = tl_diagram(2, [(1, 4), (2, 3)])
    assert z_count(d_cups, 2) == 1
    assert z_count(d_through, 2) == 0
    # n even: tilde never flips the sign
    assert g_tilde_coefficient(d_cups, 2) == g_coefficient(d_cups, 2)
    # n odd with one cup: global sign flip
    d3 = tl_diagram(3, [(1, 2), (3, 6), (4, 5)])
    assert z_count(d3, 3) == 1
    flipped = {D: -w for D, w in g_coefficient(d3, 3).items()}
    assert g_tilde_coefficient(d3, 3) == flipped


def test_boundary_partition_validation():
    with pytest.raises(ValueError):
        ChordMap(1, [(1, 2), (3, 3)])
