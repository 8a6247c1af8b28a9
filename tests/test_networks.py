import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from pfaflab.diagrams import (enumerate_sym_tl, enumerate_sym_tl_even, is_compatible,
                              removal_closure, sym_diagram)
from pfaflab.networks import (InvalidNetworkError, Network, _find, _segments_touch, _union,
                              construct_network_of_diagram, hat_pfaf, hat_pfaf_prime,
                              i_disjoint_counts, marked_subnetworks, network_from_json,
                              network_to_json, path_weight_matrix, q_i_weight,
                              random_fence_network)
from pfaflab.pfaffian import complementary_pfaffian
from pfaflab.pfaffinants import even_subsets, tl_pfaffinant
from pfaflab.poly import Poly, poly_prod, x


def reweighted(N, weights=None):
    """N with its edges, in order, weighted by ``weights``; by x[1], x[2], ...
    when none are given."""
    if weights is None:
        weights = [Poly.var(x(k)) for k in range(1, len(N.edges) + 1)]
    return Network(N.vertices, [(e.tail, e.head, w) for e, w in zip(N.edges, weights)],
                   N.sources, N.sinks)


def _families(N, compatible):
    """All path families (one path per source) with pairwise test `compatible`:
    the exhaustive oracle of the family table, with `_triple_free`."""
    paths = [N.paths_from(u) for u in N.sources]
    out = []

    def rec(i, chosen):
        if i == len(paths):
            out.append(tuple(chosen))
            return
        for p in paths[i]:
            if all(compatible(i, j, p, chosen[j]) for j in range(i)):
                chosen.append(p)
                rec(i + 1, chosen)
                chosen.pop()

    rec(0, [])
    return out


def _triple_free(family) -> bool:
    use = Counter(v for p in family for v in p[0])
    return all(c <= 2 for c in use.values())


def test_validation_rejects_bad_networks():
    with pytest.raises(InvalidNetworkError):
        Network({"u1": (0, 1), "u2": (0, 0), "w1": (1, 1)},
                [("w1", "u1", 1)], ["u1", "u2"], ["w1"])  # decreasing x
    with pytest.raises(InvalidNetworkError):
        # two edges crossing away from any vertex
        Network({"u1": (0, 2), "u2": (0, 0), "w1": (2, 0), "w2": (2, 2)},
                [("u1", "w1", 1), ("u2", "w2", 1)], ["u1", "u2"], ["w2", "w1"])


def test_two_rails():
    D = sym_diagram(1, [])
    N = construct_network_of_diagram(D)
    A = path_weight_matrix(N)
    assert A.upper(1, 2).render() == "x[1]*x[2]"
    assert q_i_weight(N, [1, 2]) == A.upper(1, 2)


def test_single_vertical_edge_network():
    D = sym_diagram(1, [(1, 2)])
    N = construct_network_of_diagram(D)
    subs = marked_subnetworks(N)
    assert len(subs) == 1  # only one triple-free marked subnetwork
    assert subs[0].type == D and subs[0].mult == 1


def test_brute_force_pair_matrix():
    for N in [random_fence_network(1, 3, seed=5), *_oracle_networks()]:
        _check_pair_matrix(N)


def _check_pair_matrix(N):
    A = path_weight_matrix(N)
    paths = [N.paths_from(u) for u in N.sources]
    m = len(paths)
    for i in range(m):
        for j in range(i + 1, m):
            total = Poly.zero()
            for p in paths[i]:
                for q in paths[j]:
                    if not set(p[0]) & set(q[0]):
                        total = total + N.path_weight(p) * N.path_weight(q)
            assert A.upper(i + 1, j + 1) == total


def test_path_pfaffian_identity_n2():
    for D in enumerate_sym_tl(2):
        N = construct_network_of_diagram(D)
        A = path_weight_matrix(N)
        for I in even_subsets(4):
            assert q_i_weight(N, I) == complementary_pfaffian(A, I)


def test_separating_network_types():
    for n in (1, 2, 3):
        for D in enumerate_sym_tl(n):
            N = construct_network_of_diagram(D)
            subs = marked_subnetworks(N)
            full = [s for s in subs
                    if s.kept == frozenset(range(len(N.edges))) and not s.marked]
            assert len(full) == 1 and full[0].type == D


def test_separator_isolates_its_diagram():
    for D in enumerate_sym_tl(2):
        N = construct_network_of_diagram(D)
        subs = marked_subnetworks(N)
        assert not hat_pfaf_prime(N, D, subs).is_zero()
        for Dp in removal_closure(D) - {D}:
            assert hat_pfaf_prime(N, Dp, subs).is_zero()


def test_covering_family_counts():
    # |families covering a marked subnetwork that are I-compatible| is mult
    # or 0, and i_disjoint_counts reads it from the family table
    for D in enumerate_sym_tl(2):
        N = construct_network_of_diagram(D)
        subs = marked_subnetworks(N)
        fams = [f for f in _families(N, lambda *a: True) if _triple_free(f)]
        for row, s in enumerate(subs):
            for I in even_subsets(4):
                count = 0
                for fam in fams:
                    use = {}
                    for p in fam:
                        for k in p[1]:
                            use[k] = use.get(k, 0) + 1
                    if frozenset(use) != s.kept:
                        continue
                    if frozenset(k for k, c in use.items() if c == 2) != s.marked:
                        continue
                    ok = all(not (set(fam[i][0]) & set(fam[j][0]))
                             for i in range(4) for j in range(i + 1, 4)
                             if ((i + 1) in I) == ((j + 1) in I))
                    count += ok
                assert count == (s.mult if is_compatible(s.type, I) else 0)
                assert i_disjoint_counts(N, I)[row] == count


def test_network_equality_n2():
    for D0 in enumerate_sym_tl(2):
        N = construct_network_of_diagram(D0)
        subs = marked_subnetworks(N)
        A = path_weight_matrix(N)
        for D in enumerate_sym_tl_even(2):
            assert tl_pfaffinant(D, A) == hat_pfaf(N, D, subs)


def test_network_equality_on_fences():
    for seed in range(3):
        N = random_fence_network(2, 6, seed=seed)
        subs = marked_subnetworks(N)
        A = path_weight_matrix(N)
        for D in enumerate_sym_tl_even(2):
            assert tl_pfaffinant(D, A) == hat_pfaf(N, D, subs)


def test_tl_positivity_on_positive_weights():
    for n, seeds in ((2, range(3)), (3, range(1))):
        for seed in seeds:
            N = random_fence_network(n, 5, seed=10 + seed)
            A = path_weight_matrix(N)
            for D in enumerate_sym_tl_even(n):
                val = tl_pfaffinant(D, A)
                assert all(c >= 0 for c in val.terms.values())


def test_json_round_trip():
    N = random_fence_network(2, 4, seed=1)
    text = network_to_json(N)
    N2 = network_from_json(text)
    assert network_to_json(N2) == text
    Ns = construct_network_of_diagram(sym_diagram(2, [(1, 4), (2, 3)]))
    text = network_to_json(Ns)
    assert network_to_json(network_from_json(text)) == text


def test_symbolic_fence():
    N = reweighted(random_fence_network(1, 2, seed=0))
    A = path_weight_matrix(N)
    for I in even_subsets(2):
        assert q_i_weight(N, I) == complementary_pfaffian(A, I)


# -- the one-pass family table against the exhaustive enumeration ----------------


def _oracle_q_i_weight(N, I):
    """The per-I enumeration: families disjoint on each side of I, triple-free."""
    def compatible(i, j, p, q):
        return ((i + 1) in I) != ((j + 1) in I) or not set(p[0]) & set(q[0])

    total = Poly.zero()
    for fam in _families(N, compatible):
        if _triple_free(fam):
            total = total + poly_prod(N.path_weight(p) for p in fam)
    return total


def _oracle_type_mult(N, kept, marked):
    """Type and multiplicity by scanning every arc at every vertex."""
    arcs = [(k, c) for k in sorted(kept) for c in ((0, 1) if k in marked else (0,))]
    parent = list(range(len(arcs)))
    for v in N.vertices:
        ins = [t for t, (k, _) in enumerate(arcs) if N.edges[k].head == v]
        outs = [t for t, (k, _) in enumerate(arcs) if N.edges[k].tail == v]
        joins = [js for js in (ins, outs) if len(js) == 2]
        if len(ins) == 1 and len(outs) == 1:
            joins.append(ins + outs)
        for s, t in joins:
            if arcs[s][0] not in marked and arcs[t][0] not in marked:
                _union(parent, s, t)
    live = [t for t, (k, _) in enumerate(arcs) if k not in marked]
    root = {}
    for i, u in enumerate(N.sources, start=1):
        (t,) = [t for t in live if N.edges[arcs[t][0]].tail == u]
        root[i] = _find(parent, t)
    typ = sym_diagram(len(N.sources) // 2,
                      [(i, j) for i in root for j in root if i < j and root[i] == root[j]])
    free = {_find(parent, t) for t in live} - set(root.values())
    return typ, 2 ** len(free)


def _oracle_subnetworks(N):
    groups = {}
    for fam in _families(N, lambda *a: True):
        if _triple_free(fam):
            use = Counter(k for p in fam for k in p[1])
            marked = frozenset(k for k, c in use.items() if c == 2)
            groups.setdefault((frozenset(use), marked), []).append(fam)
    out = []
    for (kept, marked), fams in sorted(groups.items(),
                                       key=lambda kv: (sorted(kv[0][0]), sorted(kv[0][1]))):
        weight = poly_prod(N.edges[k].weight for k in sorted(kept)) \
            * poly_prod(N.edges[k].weight for k in sorted(marked))
        assert all(poly_prod(N.path_weight(p) for p in fam) == weight for fam in fams)
        out.append((kept, marked, *_oracle_type_mult(N, kept, marked), weight, len(fams)))
    return out


def _oracle_networks():
    for n in (1, 2, 3):
        for D in enumerate_sym_tl(n):
            yield construct_network_of_diagram(D)
    for seed in range(10):
        yield random_fence_network(2, 6, seed=seed)
        yield reweighted(random_fence_network(2, 6, seed=seed))


def test_family_table_matches_enumeration():
    for N in _oracle_networks():
        m = len(N.sources)
        for I in even_subsets(m):
            assert q_i_weight(N, I) == _oracle_q_i_weight(N, I)
        got = [(s.kept, s.marked, s.type, s.mult, s.weight, s.families)
               for s in marked_subnetworks(N)]
        assert got == _oracle_subnetworks(N)


# -- the planarity sweep against the all-pairs test ------------------------------


def _all_pairs_error(vertices, edges):
    """The message of the first touching pair in combinations order, or None."""
    for (p, q, _), (r, s, _) in combinations(edges, 2):
        if {p, q} & {r, s}:
            continue
        if _segments_touch(vertices[p], vertices[q], vertices[r], vertices[s]):
            return f"edges {p}->{q} and {r}->{s} cross off-vertex"
    return None


def _build_error(vertices, edges, sources, sinks):
    try:
        Network(vertices, edges, sources, sinks)
    except InvalidNetworkError as exc:
        return str(exc)
    return None


def _random_layout(rng):
    """A small network that passes every check but planarity.

    Coordinates come from a coarse grid with denominators 1, 2 and 3, so
    x-coordinates are often shared and edges often collinear; some vertices
    sit on an earlier edge (a T-junction).
    """
    grid = sorted({Fraction(a, d) for d in (1, 2, 3) for a in range(0, 3 * d + 1)})
    top = grid[-1] + 1
    n_src = rng.choice((2, 4))
    ys = sorted(rng.sample(grid, n_src), reverse=True)
    vertices = {f"u{i}": (Fraction(0), y) for i, y in enumerate(ys, start=1)}
    sinks = [f"w{i}" for i in range(1, rng.randint(1, 4) + 1)]
    for w in sinks:
        vertices[w] = (top, rng.choice(grid))
    inner = []
    edges = []
    deg_in, deg_out = {}, {}

    def add_edge(p, q):
        if vertices[p][0] >= vertices[q][0]:
            return
        if p in inner and deg_out.get(p, 0) == 2 or q in inner and deg_in.get(q, 0) == 2:
            return   # the degree caps of internal vertices
        deg_out[p] = deg_out.get(p, 0) + 1
        deg_in[q] = deg_in.get(q, 0) + 1
        edges.append((p, q, 1))

    for t in range(rng.randint(2, 7)):
        v = f"v{t}"
        if edges and rng.random() < 0.3:
            p, q, _ = rng.choice(edges)
            (x0, y0), (x1, y1) = vertices[p], vertices[q]
            lam = Fraction(rng.randint(1, 3), 4)
            vertices[v] = (x0 + lam * (x1 - x0), y0 + lam * (y1 - y0))
        else:
            vertices[v] = (rng.choice(grid[1:]), rng.choice(grid))
        inner.append(v)
        for _ in range(rng.randint(1, 3)):
            add_edge(rng.choice([u for u in vertices if u.startswith(("u", "v"))]),
                     rng.choice(inner + sinks))
    return vertices, edges, list(vertices)[:n_src], sinks


def _orientation(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _orientation_touch(A, B, C, D) -> bool:
    """The four-orientation test that the shared segment kernel replaced,
    kept as the oracle of `_segments_touch`."""
    d1, d2 = _orientation(A, B, C), _orientation(A, B, D)
    d3, d4 = _orientation(C, D, A), _orientation(C, D, B)
    if ((d1 > 0) != (d2 > 0) and d1 != 0 and d2 != 0 and
            (d3 > 0) != (d4 > 0) and d3 != 0 and d4 != 0):
        return True
    for P, (U, V) in ((C, (A, B)), (D, (A, B)), (A, (C, D)), (B, (C, D))):
        if _orientation(U, V, P) == 0 and min(U[0], V[0]) <= P[0] <= max(U[0], V[0]) \
                and min(U[1], V[1]) <= P[1] <= max(U[1], V[1]):
            return True
    return False


_coord = st.integers(-4, 4)


@st.composite
def _rising_segment_pairs(draw):
    """Two integer segments increasing in x: often collinear, meeting in a
    T-junction (an end of CD on AB) or sharing an end."""
    A = (draw(_coord), draw(_coord))
    v = (draw(st.integers(1, 3)), draw(st.integers(-3, 3)))
    along = lambda k: (A[0] + k * v[0], A[1] + k * v[1])
    B = along(draw(st.integers(1, 3)))
    kind = draw(st.sampled_from(("any", "collinear", "T-junction", "shared end")))
    if kind == "collinear":
        a = draw(st.integers(-3, 4))
        C, D = along(a), along(draw(st.integers(a + 1, 5)))
    else:
        if kind == "any":
            P = (draw(_coord), draw(_coord))
        elif kind == "T-junction":
            P = along(draw(st.integers(0, 3)))
        else:
            P = draw(st.sampled_from((A, B)))
        Q = (P[0] + draw(st.integers(1, 4)) * draw(st.sampled_from((1, -1))), draw(_coord))
        C, D = (P, Q) if P[0] < Q[0] else (Q, P)
    segs = [(A, B), (C, D)]
    if draw(st.booleans()):
        segs.reverse()
    return segs[0] + segs[1]


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(_rising_segment_pairs())
def test_segments_touch_matches_orientation_oracle(segments):
    assert _segments_touch(*segments) == _orientation_touch(*segments)


def test_planarity_sweep_matches_all_pairs():
    rng = random.Random(2006)
    outcomes = Counter()
    for _ in range(2000):
        vertices, edges, sources, sinks = _random_layout(rng)
        want = _all_pairs_error(vertices, edges)
        assert _build_error(vertices, edges, sources, sinks) == want
        outcomes[want is None] += 1
    assert min(outcomes.values()) > 200   # accepted and rejected layouts both occur


TWO_CROSSINGS = (
    {"u1": (0, 3), "u2": (0, 2), "u3": (0, 1), "u4": (0, 0), "a1": (5, 3), "a2": (5, 2),
     "b3": (1, 0), "b4": (1, 1), "w1": (6, 2), "w2": (6, 3), "w3": (6, 0), "w4": (6, 1)},
    [("a1", "w1", 1), ("a2", "w2", 1), ("u3", "b3", 1), ("u4", "b4", 1),
     ("u1", "a1", 1), ("u2", "a2", 1), ("b3", "w3", 1), ("b4", "w4", 1)],
    ["u1", "u2", "u3", "u4"], ["w1", "w2", "w3", "w4"])


def test_planarity_reports_first_pair():
    # two off-vertex crossings; the later one in x comes first in edge order
    assert _build_error(*TWO_CROSSINGS) == "edges a1->w1 and a2->w2 cross off-vertex"
    # a T-junction: u2->t ends inside u1->w1
    V = {"u1": (0, 1), "u2": (0, 0), "t": (1, 1), "w1": (2, 1), "w2": (2, 0)}
    E = [("u1", "w1", 1), ("u2", "t", 1), ("t", "w2", 1)]
    assert _build_error(V, E, ["u1", "u2"], ["w1", "w2"]) \
        == _all_pairs_error(V, E) == "edges u1->w1 and u2->t cross off-vertex"
    # a collinear overlap on y = 1 between x = 1 and x = 2, with mixed denominators
    V = {"u1": (0, 1), "u2": (0, 0), "a": (2, 1), "b": (1, 1),
         "w1": (3, 1), "w2": (Fraction(7, 2), Fraction(-1, 3))}
    E = [("u1", "a", 1), ("b", "w1", 1), ("u2", "b", 1), ("a", "w2", 1)]
    assert _build_error(V, E, ["u1", "u2"], ["w1", "w2"]) \
        == _all_pairs_error(V, E) == "edges u1->a and b->w1 cross off-vertex"


def test_identities_on_n3_fences():
    for seed in range(3):
        N = random_fence_network(3, 8, seed=seed)
        A = path_weight_matrix(N)
        for I in even_subsets(6):
            assert q_i_weight(N, I) == complementary_pfaffian(A, I)
        subs = marked_subnetworks(N)
        for D in enumerate_sym_tl_even(3):
            assert tl_pfaffinant(D, A) == hat_pfaf(N, D, subs)
