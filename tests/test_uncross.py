import hashlib
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from pfaflab import uncross
from pfaflab.diagrams import (enumerate_matchings, enumerate_sym_tl, enumerate_tl, matching,
                              sym_diagram, tl_diagram)
from pfaflab.networks import _find, _union
from pfaflab.pfaffinants import f_tables
from pfaflab.uncross import (CapacityError, ChordMap, embed_nu_d, embed_nu_pi, f_coefficient,
                             g_coefficient, g_tilde_coefficient, nu_pi_positions, z_count)

D2 = lambda *edges: sym_diagram(2, edges)


def _uncrossings(cmap):
    """(diagram, weight) of each of the 2^k uncrossings, traced one by one.

    Each class resolves vertically or horizontally at all its crossings;
    the strands and loops are read from a union-find over the chord
    pieces.  The weight is 2^(mirror orbits of loops) times -1 per
    unpaired vertical and per paired horizontal resolution.
    """
    diagrams = {}   # left edges -> diagram, built once each
    for mask in range(1 << cmap.num_classes):
        parent = list(range(cmap.n_pieces))
        flips = 0
        for ci, members in enumerate(cmap.classes):
            vertical = (mask >> ci) & 1 == 1
            flips += vertical == (cmap.class_kind[ci] == "unpaired")
            for k in members:
                ub, ua, vb, va = cmap.cross_pieces[k]
                _union(parent, ub, vb if vertical else va)
                _union(parent, ua, va if vertical else vb)
        by_root = {}
        for p, end in cmap.boundary_end.items():
            by_root.setdefault(_find(parent, end >> 1), []).append(p)
        loops = {_find(parent, piece) for piece in range(cmap.n_pieces)} - set(by_root)
        # a loop and its mirror image count once
        orbits = {frozenset((r, _find(parent, cmap.mirror_piece[r]))) for r in loops}
        left = uncross._left_edges(cmap.n, by_root.values())
        if left not in diagrams:
            diagrams[left] = sym_diagram(cmap.n, left)
        yield diagrams[left], 2 ** len(orbits) * (-1) ** flips


def test_single_edge_census():
    cmap = embed_nu_pi(matching([(1, 2)]), 1)
    assert cmap.census() == {"crossings": 1, "unpaired": 1, "paired_orbits": 0}
    uns = list(_uncrossings(cmap))
    assert len(uns) == 2
    assert {D.key(): w for D, w in uns} == {"V[]": 1, "V[(1,2)]": -1}


def test_nested_pair_census_and_table():
    pi = matching([(1, 4), (2, 3)])
    for seed in (0, 1):
        cmap = embed_nu_pi(pi, 2, seed)
        assert cmap.census() == {"crossings": 6, "unpaired": 2, "paired_orbits": 2}
        assert len(list(_uncrossings(cmap))) == 16
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
        multisets.append(sorted(w for _, w in _uncrossings(embed_nu_pi(pi, 2, seed))))
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


def test_class_bound(monkeypatch):
    pi = matching([(1, 4), (2, 3)])
    monkeypatch.setattr(uncross, "DEFAULT_STATE_BOUND", 2)
    with pytest.raises(ValueError) as info:
        f_coefficient(pi, 2)
    assert info.type is CapacityError
    assert str(info.value) == "4 uncrossing fold states exceed the bound 2"


# peak fold state counts, recorded from the union-find fold that the
# mate fold replaced
N3_PEAKS = {((1, 2), (3, 4), (5, 6)): 8, ((1, 3), (2, 4), (5, 6)): 12,
            ((1, 3), (2, 5), (4, 6)): 18, ((1, 6), (2, 5), (3, 4)): 20}


def test_state_bound_is_the_peak(monkeypatch):
    for edges, peak in N3_PEAKS.items():
        pi = matching(edges)
        want = f_coefficient(pi, 3)
        monkeypatch.setattr(uncross, "DEFAULT_STATE_BOUND", peak)
        assert f_coefficient(pi, 3) == want
        monkeypatch.setattr(uncross, "DEFAULT_STATE_BOUND", peak - 1)
        with pytest.raises(CapacityError, match=rf"^{peak} uncrossing fold states exceed "
                                                rf"the bound {peak - 1}$"):
            f_coefficient(pi, 3)
        monkeypatch.undo()


def _oracle(cmap):
    """Weights summed per diagram over the enumerated uncrossings."""
    acc = {}
    for D, w in _uncrossings(cmap):
        acc[D] = acc.get(D, 0) + w
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
    assert embed_nu_pi(pi, 5).num_classes == 25
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


# -- exact geometry ---------------------------------------------------------------


def _fraction_segment_crossing(A, B, C, D):
    """The all-Fraction segment crossing that the integer helper replaced,
    kept as its oracle; t and u are made Fractions so int inputs stay exact."""
    r = (B[0] - A[0], B[1] - A[1])
    s = (D[0] - C[0], D[1] - C[1])
    denom = r[0] * s[1] - r[1] * s[0]
    if denom == 0:
        return None
    q = (C[0] - A[0], C[1] - A[1])
    t = Fraction(q[0] * s[1] - q[1] * s[0]) / denom
    u = Fraction(q[0] * r[1] - q[1] * r[0]) / denom
    if not (0 < t < 1 and 0 < u < 1):
        return None
    return (A[0] + t * r[0], A[1] + t * r[1]), t, u


_coords = st.one_of(st.integers(-4, 4), st.fractions(-3, 3, max_denominator=6))
_points = st.tuples(_coords, _coords)
_ratios = st.fractions(-2, 2, max_denominator=4)
_inside = st.integers(1, 7).map(lambda k: Fraction(k, 8))   # strictly inside (0, 1)


@st.composite
def _segment_pairs(draw):
    """Two segments: often crossing, parallel, collinear or touching at an end."""
    A, B, C, D = (draw(_points) for _ in range(4))
    r = (B[0] - A[0], B[1] - A[1])
    d = (D[0] - C[0], D[1] - C[1])
    along = lambda P, k, v: (P[0] + k * v[0], P[1] + k * v[1])
    kind = draw(st.sampled_from(("any", "through", "through", "parallel", "collinear",
                                 "touching", "shared end")))
    if kind == "through":       # CD along d through a point of AB
        X = along(A, draw(_inside), r)
        C, D = along(X, -draw(_inside), d), along(X, draw(_inside), d)
    elif kind == "parallel":
        D = along(C, draw(_ratios), r)
    elif kind == "collinear":
        C, D = along(A, draw(_ratios), r), along(A, draw(_ratios), r)
    elif kind == "touching":    # an end of CD on the line AB
        C = along(A, draw(_ratios), r)
    elif kind == "shared end":
        C = draw(st.sampled_from((A, B)))
    segs = [(A, B), (C, D)]
    if draw(st.booleans()):
        segs.reverse()
    return segs[0] + segs[1]


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_segment_pairs())
def test_segment_crossing_matches_fraction_oracle(segments):
    got = uncross._segment_crossing(*segments)
    want = _fraction_segment_crossing(*segments)
    assert (got is None) == (want is None)
    if got is not None:
        assert got == want
        assert all(c.__class__ is Fraction for c in (*got[0], got[1], got[2]))


def _chord_maps(seed):
    return [embed_nu_pi(pi, n, seed) for n in (1, 2, 3, 4) for pi in enumerate_matchings(n)] \
        + [embed_nu_d(d, n, seed) for n in (1, 2, 3) for d in enumerate_tl(n)]


def _geometry(cmap):
    return cmap.retry, cmap.crossings, cmap.cross_along, cmap.classes


@pytest.mark.parametrize("seed", [0, 1])
def test_chord_maps_match_fraction_geometry(seed, monkeypatch):
    fast = [_geometry(cmap) for cmap in _chord_maps(seed)]
    uncross._chord_crossing.cache_clear()
    try:
        monkeypatch.setattr(uncross, "_segment_crossing", _fraction_segment_crossing)
        slow = [_geometry(cmap) for cmap in _chord_maps(seed)]
    finally:
        uncross._chord_crossing.cache_clear()
    assert fast == slow


def test_concurrency_retry():
    # the unjittered seed-0 placement has three chords through one point in
    # 19 doubled matchings at n = 4; each map is re-perturbed until none do
    maps = [embed_nu_pi(pi, 4, 0) for pi in enumerate_matchings(4)]
    retried = [cmap for cmap in maps if cmap.retry > 0]
    assert len(retried) == 19
    for cmap in maps:
        points = [cr.point for cr in cmap.crossings]
        assert len(set(points)) == len(points)
    for cmap, pi in zip(maps, enumerate_matchings(4)):
        if cmap.retry:
            assert f_coefficient(pi, 4, 0) == _oracle(cmap), pi


def _concurrency(n, seed, retry, chords):
    """(two crossings share a point, some chord has two crossings at one
    parameter) in one placement, both read from the memoised chord crossings.
    The first is the point-set check that the ties along a chord replaced."""
    points = []
    params = [[] for _ in chords]
    for (i, c1), (j, c2) in combinations(enumerate(chords), 2):
        hit = uncross._chord_crossing(n, seed, retry, c1, c2)
        if hit is not None:
            point, t, u = hit
            points.append(point)
            params[i].append(t)
            params[j].append(u)
    return len(set(points)) < len(points), any(len(set(ps)) < len(ps) for ps in params)


# rejected placements of all those maps: at seed 0 one each for 2 maps at
# n = 3 and 19 at n = 4, at seed 1 none
REJECTED_PLACEMENTS = {0: 21, 1: 0}


@pytest.mark.parametrize("seed", [0, 1])
def test_concurrency_is_a_tie_along_a_chord(seed):
    # every placement tried for every map at n <= 4: it is rejected exactly
    # when two crossings share a point, which is exactly when a chord has a tie
    rejected = 0
    for cmap in _chord_maps(seed):
        for retry in range(cmap.retry + 1):
            shared_point, tie = _concurrency(cmap.n, seed, retry, cmap.chords)
            assert shared_point == tie == (retry < cmap.retry), (cmap.chords, retry)
            rejected += shared_point
    assert rejected == REJECTED_PLACEMENTS[seed]


def test_final_diagram_checks_each_input():
    strands = frozenset({(1, 4), (2, 3)})
    assert uncross._final_diagram(1, strands) == sym_diagram(1, ())
    # the same strand set is not a valid uncrossing at n = 2
    with pytest.raises(AssertionError, match="not mirror-symmetric"):
        uncross._final_diagram(2, strands)
    with pytest.raises(AssertionError, match=r"asymmetric cross-side strand \(3,8\)"):
        uncross._final_diagram(2, frozenset({(1, 2), (3, 8), (4, 7), (5, 6)}))


# -- the tables ---------------------------------------------------------------------


def _render_tables(tables):
    """One line per matching: its pairs, then each diagram key with its weight."""
    lines = []
    for pi in sorted(tables, key=sorted):
        row = " ".join(f"{key}:{w}" for key, w in sorted((D.key(), w)
                                                          for D, w in tables[pi].items()))
        lines.append("".join(f"({i},{j})" for i, j in sorted(pi)) + " " + row)
    return "\n".join(lines) + "\n"


# sha256 of the rendered tables, the same at every seed (thm-2.4); recorded
# with the all-Fraction geometry and one diagram built per final state
TABLE_DIGESTS = {
    1: "5be49e1ba7bc50738f62357b9d596a4b4cb5767f41ac68318ecc46a73d6fa332",
    2: "9f2a8c74ca019c1aa765f6c2b42c42a21b31630c0366144bcbd97f9899c4ce90",
    3: "c6288f7755ef8de9521d2637b78ca6c17baba9dd69435a62bf200e5a23330eda",
    4: "4ef30c072785f489e673248019a2e1481f1f8a8b9b97ed1d7d92e831a4501d8c",
}


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_table_digests(n, seed):
    # the library's tables and the fold's at the seed render alike (thm-2.4)
    for tables in (f_tables(n), {pi: f_coefficient(pi, n, seed) for pi in enumerate_matchings(n)}):
        text = _render_tables(tables)
        assert hashlib.sha256(text.encode()).hexdigest() == TABLE_DIGESTS[n]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_reflection_identity(n):
    # f(rev pi)(rev D) = f(pi)(D) with rev(i) = 2n+1-i: observed, not
    # proven, so the library computes every table itself
    rev = lambda i: 2 * n + 1 - i
    tables = f_tables(n)
    for pi, table in tables.items():
        rev_pi = frozenset(tuple(sorted((rev(i), rev(j)))) for i, j in pi)
        reflected = {sym_diagram(n, [(rev(j), rev(i)) for i, j in D.vertical_left]): w
                     for D, w in table.items()}
        assert reflected == tables[rev_pi], sorted(pi)


# -- the conjugation recursion against the fold -------------------------------------


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_recursion_matches_fold(n, seed):
    # dict equality: the same diagrams, zero weights included
    assert f_tables(n) == {pi: f_coefficient(pi, n, seed) for pi in enumerate_matchings(n)}


# the fully nested matching has the most classes (25) at n = 5
NESTED_5 = matching([(1, 10), (2, 9), (3, 8), (4, 7), (5, 6)])


def test_recursion_matches_fold_n5_sample():
    tables = f_tables(5)
    sample = random.Random(5).sample(enumerate_matchings(5), 40) + [NESTED_5]
    for pi in sample:
        assert tables[pi] == f_coefficient(pi, 5, 0), sorted(pi)


@pytest.mark.slow
def test_recursion_matches_fold_n5():
    tables = f_tables(5)
    assert len(tables) == 945
    for pi in enumerate_matchings(5):
        assert tables[pi] == f_coefficient(pi, 5, 0), sorted(pi)


# n = 6: the base and the fully nested matching (36 classes, all 924
# diagrams), and a fixed sample of 8 more
N6_MATCHINGS = [
    [(1, 2), (3, 4), (5, 6), (7, 8), (9, 10), (11, 12)],
    [(1, 12), (2, 11), (3, 10), (4, 9), (5, 8), (6, 7)],
    [(1, 8), (2, 10), (3, 4), (5, 11), (6, 12), (7, 9)],
    [(1, 9), (2, 5), (3, 10), (4, 7), (6, 12), (8, 11)],
    [(1, 2), (3, 10), (4, 7), (5, 8), (6, 9), (11, 12)],
    [(1, 6), (2, 8), (3, 7), (4, 12), (5, 9), (10, 11)],
    [(1, 10), (2, 11), (3, 9), (4, 7), (5, 6), (8, 12)],
    [(1, 10), (2, 6), (3, 11), (4, 9), (5, 12), (7, 8)],
    [(1, 9), (2, 3), (4, 6), (5, 8), (7, 11), (10, 12)],
    [(1, 8), (2, 4), (3, 12), (5, 6), (7, 10), (9, 11)],
]


@pytest.mark.parametrize("edges", N6_MATCHINGS, ids=lambda e: "".join(f"({i},{j})" for i, j in e))
def test_recursion_matches_fold_n6(edges):
    # each through the recursion from a fresh memo, its ranks read back as diagrams
    pi = matching(edges)
    diagrams = enumerate_sym_tl(6)
    table = {diagrams[r]: w for r, w in enumerate(uncross.uncrossing_table(pi, 6, {}))
             if w is not None}
    assert table == f_coefficient(pi, 6, 0)
    if edges == N6_MATCHINGS[1]:
        assert len(table) == 924


def test_base_table_and_descents():
    # the base matching's n disjoint unpaired crossings resolve alone
    diagrams = enumerate_sym_tl(2)
    table = uncross._base_table(2)
    assert len(table) == len(diagrams)
    assert {diagrams[r].key(): w for r, w in enumerate(table) if w is not None} == \
        {"V[]": 1, "V[(1,2)]": -1, "V[(3,4)]": -1, "V[(1,2)(3,4)]": 1}
    # every other matching has a descent
    for n in (1, 2, 3, 4):
        base = frozenset((k, k + 1) for k in range(1, 2 * n, 2))
        for pi in enumerate_matchings(n):
            i = uncross._descent(pi, n)
            assert (i is None) == (pi == base), sorted(pi)


def _cup_cap_oracle(D, i):
    """(V_i(D), loops) by gluing: the caps (i, i+1) and (i', (i+1)') join
    the strands of D's full position matching that end there, and new cups
    take their place; loops are counted per mirror orbit."""
    n4 = 4 * D.n
    cap = {i: i + 1, i + 1: i, n4 + 1 - i: n4 - i, n4 - i: n4 + 1 - i}
    mate = {}
    for p, q in D.full_position_matching():
        mate[p], mate[q] = q, p
    edges, loops, seen = set(), [], set()
    for start in [p for p in mate if p not in cap] + list(cap):
        if start in seen:
            continue
        p, ring = start, []
        while True:   # a strand from a free point, or around a loop
            q = mate[p]
            ring += (p, q)
            if q not in cap or cap[q] == start:
                break
            p = cap[q]
        seen.update(ring)
        if q in cap:
            loops.append(frozenset(ring))
        else:
            edges.add((min(start, q), max(start, q)))
    self_mirror = sum(ring == frozenset(n4 + 1 - p for p in ring) for ring in loops)
    left = [(p, q) for p, q in edges | {(i, i + 1)} if q <= 2 * D.n]
    return sym_diagram(D.n, left), (len(loops) + self_mirror) // 2


def test_cup_cap_loops():
    diagrams = enumerate_sym_tl(2)
    caps = uncross.cup_cap_ranks(2)
    V = lambda D, i: (lambda r, loops: (diagrams[r].key(), loops))(*caps[i][diagrams.index(D)])
    assert V(D2(), 1) == ("V[(1,2)]", 1)             # both horizontal: one self-mirror loop
    assert V(D2((1, 2)), 1) == ("V[(1,2)]", 1)       # the edge itself: a mirror pair of loops
    assert V(D2((1, 2)), 2) == ("V[(2,3)]", 0)       # 1 now runs across
    assert V(D2((1, 2), (3, 4)), 2) == ("V[(1,4)(2,3)]", 0)
    assert V(D2((1, 4), (2, 3)), 1) == ("V[(1,2)(3,4)]", 0)
    # the rank arrays against gluing on the full position matchings
    for n in (1, 2, 3, 4):
        diagrams, caps = enumerate_sym_tl(n), uncross.cup_cap_ranks(n)
        assert sorted(caps) == list(range(1, 2 * n))
        for i, V in caps.items():
            assert len(V) == len(diagrams)
            for D, (r, loops) in zip(diagrams, V):
                assert (diagrams[r], loops) == _cup_cap_oracle(D, i), (D.key(), i)


def test_cup_cap_is_idempotent_up_to_a_loop():
    # V_i(V_i(D)) = V_i(D) with one loop: e_i^2 = delta e_i
    for n in (1, 2, 3, 4, 5):
        for V in uncross.cup_cap_ranks(n).values():
            for r, (v, _) in enumerate(V):
                assert V[v] == (v, 1), (n, r)
