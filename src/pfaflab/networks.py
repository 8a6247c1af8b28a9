"""Planar directed networks, path families, and their pfaffian semantics.

Networks live in the plane with exact rational coordinates, all edges
strictly increasing in x, sources on the left boundary and sinks on the
right.  Any two edges may meet only at shared endpoint vertices, so every
geometric crossing is itself a vertex; internal vertices have in- and
out-degree at most 2.  Under these checks the sources and sinks sit in
order on a common bounding curve.  `Network.validate` checks planarity
with an x-sweep: edges sorted by tail x, each tested only against the
edges whose closed x-range reaches its tail, in integer coordinates over
the common denominator, by the segment kernel `_crossing_params` that the
chord crossings of `uncross` share.

A path family (one path per source, no vertex used three times) induces a
marked subnetwork: its edge support with the doubly used edges marked.
Vertically uncrossing every twice-used vertex and deleting the marked
edges yields a union of curves; sources in a common curve give the
boundary matching `type`, and curves containing no source contribute a
factor of 2 each to `mult`.

Each network enumerates its path families once.  The path table holds
every path of every source with its vertex and edge bitmasks and its
weight; the family table, built by one depth-first pass over the
sources, groups the triple-free families by marked subnetwork and counts
them per meeting mask (which pairs of paths share a vertex).  No edge is
used three times, so every family of a group weighs the group's weight.
A group keeps its kept and marked edges as int edge masks, and
`_theta_type_mult` reads its curves from them against the in- and
out-edge masks of each vertex, cached on the network; `MarkedSubnetwork`
also gives the masks as frozensets.  `i_disjoint_counts` reads from a
group's meeting masks how many of its families are disjoint on each side
of an index set I; `q_i_weight` and the lem-3.4 check read those counts,
`marked_subnetworks` and `path_weight_matrix` read the tables.  The tests enumerate the families
one by one as the oracle of these tables.  `_find` and `_union` are the
library's one union-find.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import lcm

from .diagrams import OddSubsetError, SymTLDiagram, ranks_of, removal_closure, sym_diagram
from .pfaffian import SkewArray
from .poly import CapacityError, Poly, UsageError, poly_prod, poly_sum, x
from .uncross import _crossing_params, _segment_crossing


class InvalidNetworkError(ValueError):
    pass


@dataclass(frozen=True)
class Edge:
    tail: str
    head: str
    weight: Poly


class Network:
    """Planar left-to-right DAG with ordered sources and sinks."""

    def __init__(self, vertices: dict, edges: list, sources: list, sinks: list):
        self.vertices = dict(vertices)
        self.edges = [e if isinstance(e, Edge) else Edge(e[0], e[1], _as_poly(e[2]))
                      for e in edges]
        self.sources = list(sources)
        self.sinks = list(sinks)
        self._index()
        self.validate()

    def _index(self):
        self.out_edges = {v: [] for v in self.vertices}
        self.in_edges = {v: [] for v in self.vertices}
        for k, e in enumerate(self.edges):
            self.out_edges[e.tail].append(k)
            self.in_edges[e.head].append(k)

    def validate(self):
        pts = self.vertices
        for e in self.edges:
            if e.tail not in pts or e.head not in pts:
                raise InvalidNetworkError(f"edge {e.tail}->{e.head} uses unknown vertex")
            if pts[e.tail][0] >= pts[e.head][0]:
                raise InvalidNetworkError(f"edge {e.tail}->{e.head} does not increase x")
        if len(set(self.sources)) != len(self.sources) or len(self.sources) % 2:
            raise InvalidNetworkError("need an even number of distinct sources")
        for u in self.sources:
            if self.in_edges[u]:
                raise InvalidNetworkError(f"source {u} has incoming edges")
        for w in self.sinks:
            if self.out_edges[w]:
                raise InvalidNetworkError(f"sink {w} has outgoing edges")
        xs = [pts[u][0] for u in self.sources]
        if self.sinks and not xs:
            raise InvalidNetworkError("sinks need a source to their left")
        if len(set(xs)) > 1 or any(pts[w][0] <= xs[0] for w in self.sinks):
            raise InvalidNetworkError("sources must share the minimal x coordinate")
        ys = [pts[u][1] for u in self.sources]
        if ys != sorted(ys, reverse=True):
            raise InvalidNetworkError("sources must be ordered top to bottom")
        for v in self.vertices:
            if v in self.sources or v in self.sinks:
                continue
            if len(self.in_edges[v]) > 2 or len(self.out_edges[v]) > 2:
                raise InvalidNetworkError(f"internal vertex {v} exceeds degree caps")
        self._check_planar()

    def _check_planar(self):
        """Edges meet only at shared endpoints, by an exact x-sweep.

        Of several touching pairs the first in `combinations` order is
        reported, as an all-pairs test would.
        """
        scale = lcm(*(Fraction(c).denominator for p in self.vertices.values() for c in p))
        pts = {v: (int(Fraction(p[0]) * scale), int(Fraction(p[1]) * scale))
               for v, p in self.vertices.items()}
        segs = [(pts[e.tail], pts[e.head]) for e in self.edges]
        active = []   # earlier edges (by tail x) whose head x reaches the sweep
        first = None
        for j in sorted(range(len(segs)), key=lambda k: segs[k][0][0]):
            C, D = segs[j]
            ends = (self.edges[j].tail, self.edges[j].head)
            active = [i for i in active if segs[i][1][0] >= C[0]]
            for i in active:
                pair = (i, j) if i < j else (j, i)
                if first is not None and pair >= first:
                    continue
                e = self.edges[i]
                if e.tail in ends or e.head in ends:
                    continue
                if _segments_touch(*segs[i], C, D):
                    first = pair
            active.append(j)
        if first is not None:
            e, f = (self.edges[k] for k in first)
            raise InvalidNetworkError(
                f"edges {e.tail}->{e.head} and {f.tail}->{f.head} cross off-vertex")

    # -- paths -------------------------------------------------------------

    def paths_from(self, u: str) -> list:
        """All directed paths from u to any sink, as (vertex tuple, edge tuple)."""
        sinks = set(self.sinks)
        out = []

        def rec(v, vs, es):
            if v in sinks:
                out.append((tuple(vs), tuple(es)))
                return
            for k in self.out_edges[v]:
                e = self.edges[k]
                rec(e.head, vs + [e.head], es + [k])

        rec(u, [u], [])
        return out

    def path_weight(self, path) -> Poly:
        return poly_prod(self.edges[k].weight for k in path[1])

    @cached_property
    def _path_table(self) -> list:
        """Per source, every path as (vertex mask, edge mask, weight)."""
        bit = {v: 1 << i for i, v in enumerate(self.vertices)}
        return [[(sum(bit[v] for v in p[0]), sum(1 << k for k in p[1]), self.path_weight(p))
                 for p in self.paths_from(u)] for u in self.sources]

    @cached_property
    def _family_table(self) -> list:
        """The triple-free path families grouped by marked subnetwork.

        One row (kept, marked, weight, meets) per group, kept and marked
        as edge masks, sorted by their ascending bit lists: the order of
        `marked_subnetworks`; meets maps a meeting mask, with bit i*m + j
        set when paths i < j share a vertex, to its number of families.
        No edge is used three times (its tail would be), so a family's
        weight, the product of its path weights, is Π kept w · Π marked w:
        the same for every family of the group.
        """
        paths = self._path_table
        m = len(paths)
        groups = {}   # (kept mask, marked mask) -> [path weights of one family, meets]
        # depth first over the sources on an explicit stack: a recursive
        # closure is a reference cycle, which keeps what it holds alive until
        # the cycle collector runs
        stack = [(0, 0, 0, 0, 0, 0, ())]   # a partial family, and the paths it chose
        while stack:
            i, once, twice, kept, marked, meet, chosen = stack.pop()
            if i == m:
                group = groups.get((kept, marked))
                if group is None:
                    group = groups[(kept, marked)] = [[row[2] for row in chosen], {}]
                group[1][meet] = group[1].get(meet, 0) + 1
                continue
            for row in paths[i]:
                pv, pe, _ = row
                if pv & twice:
                    continue
                met = meet
                if pv & once:
                    for j, (qv, _, _) in enumerate(chosen):
                        if pv & qv:
                            met |= 1 << (j * m + i)
                stack.append((i + 1, once | pv, twice | (once & pv), kept | pe,
                              marked | (kept & pe), met, chosen + (row,)))

        rows = sorted(groups.items(),
                      key=lambda row: (list(ranks_of(row[0][0])), list(ranks_of(row[0][1]))))
        return [(kept, marked, poly_prod(weights), meets)
                for (kept, marked), (weights, meets) in rows]

    @cached_property
    def _edge_masks(self) -> tuple:
        """Per vertex with in-edges, the masks of its in- and of its
        out-edges; per source, the mask of its out-edges."""
        into = {v: sum(1 << k for k in ks) for v, ks in self.in_edges.items()}
        out_of = {v: sum(1 << k for k in ks) for v, ks in self.out_edges.items()}
        return ([(v, into[v], out_of[v]) for v in self.vertices if into[v]],
                [out_of[u] for u in self.sources])


def _as_poly(w) -> Poly:
    if isinstance(w, Poly):
        return w
    return Poly.const(w)



def _find(parent, i):
    while parent[i] != i:
        parent[i] = parent[parent[i]]
        i = parent[i]
    return i


def _union(parent, i, j) -> bool:
    """Join the classes of i and j; whether they were apart."""
    ri, rj = _find(parent, i), _find(parent, j)
    if ri != rj:
        parent[ri] = rj
    return ri != rj


def _segments_touch(A, B, C, D) -> bool:
    """Whether segments AB and CD, each increasing in x, share a point."""
    t, u, den = _crossing_params(A, B, C, D)
    if den:
        return 0 <= t <= den and 0 <= u <= den
    # parallel: they touch when on one line with overlapping x-ranges
    return u == 0 and max(A[0], C[0]) <= min(B[0], D[0])


# -- path family enumeration ----------------------------------------------------


def path_weight_matrix(N: Network) -> SkewArray:
    """A(N): entry (i,j) sums weights of vertex-disjoint path pairs from u_i, u_j."""
    paths = N._path_table
    m = len(paths)
    entries = {}
    for i in range(m):
        for j in range(i + 1, m):
            entries[(i + 1, j + 1)] = poly_sum(
                (1, wp * poly_sum((1, wq) for qv, _, wq in paths[j] if not pv & qv))
                for pv, _, wp in paths[i])
    return SkewArray(m, entries)


def i_disjoint_counts(N: Network, I) -> list:
    """Per row of the family table, its families whose paths are disjoint
    within I and within its complement."""
    m = len(N.sources)
    I = set(I)
    if len(I) % 2:
        raise OddSubsetError(f"subset {sorted(I)} has odd cardinality")
    same_side = 0
    for i, j in combinations(range(m), 2):
        if ((i + 1) in I) == ((j + 1) in I):
            same_side |= 1 << (i * m + j)
    return [sum(c for meet, c in meets.items() if not meet & same_side)
            for _, _, _, meets in N._family_table]


def q_i_weight(N: Network, I) -> Poly:
    """Weight sum over families whose paths are disjoint within I and within its complement."""
    return poly_sum((count, weight) for count, (_, _, weight, _)
                    in zip(i_disjoint_counts(N, I), N._family_table))


# -- marked subnetworks ----------------------------------------------------------


@dataclass(frozen=True, slots=True)
class MarkedSubnetwork:
    kept_mask: int      # bit k set: edge k used at least once
    marked_mask: int    # bit k set: edge k used twice
    type: SymTLDiagram
    mult: int
    weight: Poly
    families: int       # number of triple-free families covering it

    @property
    def kept(self) -> frozenset:
        """The indices of the edges used at least once."""
        return frozenset(ranks_of(self.kept_mask))

    @property
    def marked(self) -> frozenset:
        """The indices of the edges used twice."""
        return frozenset(ranks_of(self.marked_mask))


def _theta_type_mult(N: Network, kept: int, marked: int) -> tuple:
    """Vertically uncross twice-used vertices, drop marked edges, read the curves.

    kept and marked are edge masks.  A vertex is used once or twice: once
    per kept edge into it, twice by a marked one.  The curves are the
    classes of the unmarked kept edges, joined at a vertex used once from
    its in-edge to its out-edge, and at a vertex used twice pairwise: its
    two in-edges, and its two out-edges.
    """
    vertices, source_outs = N._edge_masks
    parent = list(range(len(N.edges)))
    merges = 0
    for v, into, out_of in vertices:
        ins = into & kept
        if not ins:
            continue
        uses = ins.bit_count() + (ins & marked).bit_count()
        if uses > 2:
            raise AssertionError(f"vertex {v} used more than twice")
        outs = out_of & kept
        for pair in ((ins | outs,) if uses == 1 else (ins, outs)):
            if pair.bit_count() == 2:   # a marked edge is one bit: it joins nothing
                low = pair & -pair
                merges += _union(parent, low.bit_length() - 1, (pair ^ low).bit_length() - 1)

    source_arc = []
    for u, out_of in zip(N.sources, source_outs):
        arc = out_of & kept
        if arc.bit_count() != 1 or arc & marked:
            raise AssertionError(f"source {u} must carry exactly one unmarked arc")
        source_arc.append(_find(parent, arc.bit_length() - 1))

    m = len(source_arc)
    typ = sym_diagram(m // 2, [(i + 1, j + 1) for i, j in combinations(range(m), 2)
                               if source_arc[i] == source_arc[j]])
    curves = (kept & ~marked).bit_count() - merges
    return typ, 2 ** (curves - len(set(source_arc)))


def marked_subnetworks(N: Network) -> list:
    """Group all triple-free path families by their marked subnetwork."""
    out = []
    types = {}   # one SymTLDiagram per type, shared by its subnetworks
    for kept, marked, weight, meets in N._family_table:
        typ, mult = _theta_type_mult(N, kept, marked)
        typ = types.setdefault(typ, typ)
        out.append(MarkedSubnetwork(kept, marked, typ, mult, weight, sum(meets.values())))
    return out


def hat_pfaf_prime(N: Network, D: SymTLDiagram, subnetworks) -> Poly:
    """Mult-weighted sum over the marked subnetworks of N (``subnetworks``,
    as from ``marked_subnetworks(N)``) of the given type."""
    return poly_sum((s.mult, s.weight) for s in subnetworks if s.type == D)


def hat_pfaf(N: Network, D: SymTLDiagram, subnetworks) -> Poly:
    """Mult-weighted sum over the marked subnetworks of N (``subnetworks``,
    as from ``marked_subnetworks(N)``) whose type is in S(D)."""
    closure = removal_closure(D)
    return poly_sum((s.mult, s.weight) for s in subnetworks if s.type in closure)


# -- the separating network of a diagram -----------------------------------------


def construct_network_of_diagram(D: SymTLDiagram) -> Network:
    """Straight-line network whose unique triple-free marked subnetwork has type D.

    Sources u_i sit at (0, 2n-i).  Every vertex i that is not the larger
    end of a vertical edge gets a sink w_i at (1, 2n-i) and a straight
    rail; the k-th smallest larger end is joined to the sink of the k-th
    smallest smaller end.  Interior intersections become vertices.  The
    k-th edge built weighs x[k].
    """
    n2 = 2 * D.n
    outgoing = sorted(i for i, _ in D.vertical_left)
    ingoing = sorted(j for _, j in D.vertical_left)
    segs = []  # (start point, end point, label)
    for i in range(1, n2 + 1):
        if i not in ingoing:
            segs.append(((Fraction(0), Fraction(n2 - i)), (Fraction(1), Fraction(n2 - i)), ("u", i), ("w", i)))
    for k, j in enumerate(ingoing):
        i = outgoing[k]
        segs.append(((Fraction(0), Fraction(n2 - j)), (Fraction(1), Fraction(n2 - i)), ("u", j), ("w", i)))

    points = {}   # coordinate -> vertex id
    def vid(pt, label=None):
        if pt not in points:
            points[pt] = label if label is not None else f"c{len(points)}"
        return points[pt]

    cuts = {s: set() for s in range(len(segs))}
    for s1, s2 in combinations(range(len(segs)), 2):
        A, B = segs[s1][0], segs[s1][1]
        C, Dd = segs[s2][0], segs[s2][1]
        hit = _segment_crossing(A, B, C, Dd)
        if hit is not None:
            cuts[s1].add(hit[0])
            cuts[s2].add(hit[0])

    vertices = {}
    edges = []
    for s, (A, B, la, lb) in enumerate(segs):
        ida = vid(A, f"{la[0]}{la[1]}")
        idb = vid(B, f"{lb[0]}{lb[1]}")
        vertices[ida] = A
        vertices[idb] = B
        stops = [A] + sorted(cuts[s]) + [B]
        for P, Q in zip(stops, stops[1:]):
            vertices[vid(P)] = P
            vertices[vid(Q)] = Q
            edges.append((points[P], points[Q], Poly.var(x(len(edges) + 1))))

    sources = [f"u{i}" for i in range(1, n2 + 1)]
    sinks = [f"w{i}" for i in range(1, n2 + 1) if i not in ingoing]
    return Network(vertices, edges, sources, sinks)


# -- random planar fence networks -------------------------------------------------


def random_fence_network(n: int, crossings: int, seed: int) -> Network:
    """2n horizontal rails with random adjacent-rail crossings, random weights."""
    rng = random.Random(seed)
    n2 = 2 * n
    cols = [rng.randrange(1, n2) for _ in range(crossings)]  # rail r crosses rail r+1
    vertices = {}
    edges = []
    head = {}

    def weight():
        return Fraction(rng.randrange(1, 6))

    for r in range(1, n2 + 1):
        vertices[f"u{r}"] = (Fraction(0), Fraction(n2 - r))
        head[r] = f"u{r}"
    for t, r in enumerate(cols, start=1):
        mid = f"v{t}"
        vertices[mid] = (Fraction(2 * t - 1, 2), Fraction(2 * (n2 - r) - 1, 2))
        for q in range(1, n2 + 1):
            node = f"p{t}_{q}"
            vertices[node] = (Fraction(t), Fraction(n2 - q))
            if q in (r, r + 1):
                edges.append((head[q], mid, weight()))
                edges.append((mid, node, weight()))
            else:
                edges.append((head[q], node, weight()))
            head[q] = node
    for r in range(1, n2 + 1):
        vertices[f"w{r}"] = (Fraction(len(cols) + 1), Fraction(n2 - r))
        edges.append((head[r], f"w{r}", weight()))
    sources = [f"u{r}" for r in range(1, n2 + 1)]
    sinks = [f"w{r}" for r in range(1, n2 + 1)]
    return Network(vertices, edges, sources, sinks)


# -- JSON round trip ---------------------------------------------------------------


def network_to_json(N: Network) -> str:
    def frac(v):
        return f"{v.numerator}/{v.denominator}" if isinstance(v, Fraction) else f"{v}/1"

    payload = {
        "vertices": [{"id": v, "x": frac(Fraction(c[0])), "y": frac(Fraction(c[1]))}
                     for v, c in sorted(N.vertices.items())],
        "edges": [{"from": e.tail, "to": e.head, "weight": e.weight.render()} for e in N.edges],
        "sources": N.sources,
        "sinks": N.sinks,
    }
    return json.dumps(payload, indent=1, sort_keys=True)


def network_from_json(text: str) -> Network:
    """The network of a text written by network_to_json.

    Text that does not parse as such raises UsageError; a network that
    breaks the rules of ``Network`` raises InvalidNetworkError.
    """
    try:
        payload = json.loads(text)
        vertices = {v["id"]: (Fraction(v["x"]), Fraction(v["y"])) for v in payload["vertices"]}
        edges = [(e["from"], e["to"], parse_weight(e["weight"])) for e in payload["edges"]]
        sources, sinks = payload["sources"], payload["sinks"]
    except CapacityError:
        raise
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        raise UsageError(str(exc)) from None
    return Network(vertices, edges, sources, sinks)


def parse_weight(text: str) -> Poly:
    """Parse weights as rendered by Poly: products of x[k] and rational constants."""
    terms = {}
    for term in text.strip().replace(" - ", " + -").split(" + "):
        term = term.strip()
        neg = term.startswith("-")
        if neg:
            term = term[1:]
        factors = term.split("*")
        coeff = Fraction(1)
        mono = []
        for f in factors:
            f = f.strip()
            if f.startswith("x["):
                base, _, exp = f.partition("^")
                k = int(base[2:-1])
                mono.extend([x(k)] * (int(exp) if exp else 1))
            else:
                coeff *= Fraction(f)
        key = tuple(mono)
        terms[key] = terms.get(key, 0) + (-coeff if neg else coeff)
    return Poly(terms)
