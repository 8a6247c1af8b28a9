"""Planar directed networks, path families, and their pfaffian semantics.

Networks live in the plane with exact rational coordinates, all edges
strictly increasing in x, sources on the left boundary and sinks on the
right.  Any two edges may meet only at shared endpoint vertices, so every
geometric crossing is itself a vertex; internal vertices have in- and
out-degree at most 2.  Under these checks the sources and sinks sit in
order on a common bounding curve.

A path family (one path per source, no vertex used three times) induces a
marked subnetwork: its edge support with the doubly used edges marked.
Vertically uncrossing every twice-used vertex and deleting the marked
edges yields a union of curves; sources in a common curve give the
boundary matching `type`, and curves containing no source contribute a
factor of 2 each to `mult`.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .diagrams import OddSubsetError, SymTLDiagram, sym_diagram
from .pfaffian import SkewArray
from .poly import Poly, poly_prod, x
from .uncross import _find, _segment_crossing, _union


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
        if len(set(xs)) > 1 or any(pts[w][0] <= xs[0] for w in self.sinks if self.sinks):
            raise InvalidNetworkError("sources must share the minimal x coordinate")
        ys = [pts[u][1] for u in self.sources]
        if ys != sorted(ys, reverse=True):
            raise InvalidNetworkError("sources must be ordered top to bottom")
        for v in self.vertices:
            if v in self.sources or v in self.sinks:
                continue
            if len(self.in_edges[v]) > 2 or len(self.out_edges[v]) > 2:
                raise InvalidNetworkError(f"internal vertex {v} exceeds degree caps")
        # geometric planarity: edges meet only at shared endpoints
        for (i, e), (j, f) in combinations(enumerate(self.edges), 2):
            if {e.tail, e.head} & {f.tail, f.head}:
                continue
            if _segments_touch(pts[e.tail], pts[e.head], pts[f.tail], pts[f.head]):
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


def _as_poly(w) -> Poly:
    if isinstance(w, Poly):
        return w
    return Poly.const(w)


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _segments_touch(A, B, C, D) -> bool:
    d1, d2 = _cross(A, B, C), _cross(A, B, D)
    d3, d4 = _cross(C, D, A), _cross(C, D, B)
    if ((d1 > 0) != (d2 > 0) and d1 != 0 and d2 != 0 and
            (d3 > 0) != (d4 > 0) and d3 != 0 and d4 != 0):
        return True
    for P, (U, V) in ((C, (A, B)), (D, (A, B)), (A, (C, D)), (B, (C, D))):
        if _cross(U, V, P) == 0 and min(U[0], V[0]) <= P[0] <= max(U[0], V[0]) \
                and min(U[1], V[1]) <= P[1] <= max(U[1], V[1]):
            return True
    return False


# -- path family enumeration ----------------------------------------------------


def _vertex_disjoint(p, q) -> bool:
    return not (set(p[0]) & set(q[0]))


def path_weight_matrix(N: Network) -> SkewArray:
    """A(N): entry (i,j) sums weights of vertex-disjoint path pairs from u_i, u_j."""
    m = len(N.sources)
    paths = [N.paths_from(u) for u in N.sources]
    entries = {}
    for i in range(m):
        for j in range(i + 1, m):
            total = Poly.zero()
            for p in paths[i]:
                for q in paths[j]:
                    if _vertex_disjoint(p, q):
                        total = total + N.path_weight(p) * N.path_weight(q)
            entries[(i + 1, j + 1)] = total
    return SkewArray(m, entries)


def _families(N: Network, compatible):
    """All path families (one path per source) with pairwise test `compatible`."""
    paths = [N.paths_from(u) for u in N.sources]
    m = len(paths)
    out = []

    def rec(i, chosen):
        if i == m:
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
    use = {}
    for p in family:
        for v in p[0]:
            use[v] = use.get(v, 0) + 1
            if use[v] > 2:
                return False
    return True


def q_i_weight(N: Network, I) -> Poly:
    """Weight sum over families whose paths are disjoint within I and within its complement."""
    m = len(N.sources)
    I = set(I)
    if len(I) % 2:
        raise OddSubsetError(f"subset {sorted(I)} has odd cardinality")

    def compatible(i, j, p, q):
        if ((i + 1) in I) == ((j + 1) in I):
            return _vertex_disjoint(p, q)
        return True

    total = Poly.zero()
    for fam in _families(N, compatible):
        if _triple_free(fam):
            total = total + poly_prod(N.path_weight(p) for p in fam)
    return total


# -- marked subnetworks ----------------------------------------------------------


@dataclass(frozen=True)
class MarkedSubnetwork:
    kept: frozenset     # edge indices used at least once
    marked: frozenset   # edge indices used twice
    type: SymTLDiagram
    mult: int
    weight: Poly
    families: int       # number of triple-free families covering it


def _theta_type_mult(N: Network, kept, marked) -> tuple:
    """Vertically uncross twice-used vertices, drop marked edges, read the curves."""
    arcs = []     # (edge index, copy)
    for k in sorted(kept):
        arcs.append((k, 0))
        if k in marked:
            arcs.append((k, 1))
    arc_id = {a: i for i, a in enumerate(arcs)}
    parent = list(range(len(arcs)))
    joins = []
    for v in N.vertices:
        ins = [a for a in arcs if N.edges[a[0]].head == v]
        outs = [a for a in arcs if N.edges[a[0]].tail == v]
        if len(ins) > 2 or len(outs) > 2:
            raise AssertionError(f"vertex {v} used more than twice")
        if len(ins) == 2:
            joins.append((ins[0], ins[1]))
        if len(outs) == 2:
            joins.append((outs[0], outs[1]))
        if len(ins) == 1 and len(outs) == 1:
            joins.append((ins[0], outs[0]))
    for a, b in joins:
        if a[0] not in marked and b[0] not in marked:
            _union(parent, arc_id[a], arc_id[b])

    unmarked_arcs = [a for a in arcs if a[0] not in marked]
    source_arc = {}
    for idx, u in enumerate(N.sources):
        outs = [a for a in unmarked_arcs if N.edges[a[0]].tail == u]
        if len(outs) != 1:
            raise AssertionError(f"source {u} must carry exactly one unmarked arc")
        source_arc[idx + 1] = _find(parent, arc_id[outs[0]])

    n = len(N.sources) // 2
    edges = set()
    matched = set()
    for i, j in combinations(sorted(source_arc), 2):
        if source_arc[i] == source_arc[j]:
            edges.add((i, j))
            matched.update((i, j))
    typ = sym_diagram(n, edges)

    source_roots = set(source_arc.values())
    roots = {_find(parent, arc_id[a]) for a in unmarked_arcs}
    r = len([root for root in roots if root not in source_roots])
    return typ, 2 ** r


def marked_subnetworks(N: Network) -> list:
    """Group all triple-free path families by their marked subnetwork."""
    groups = {}
    for fam in _families(N, lambda *args: True):
        if not _triple_free(fam):
            continue
        use = {}
        for p in fam:
            for k in p[1]:
                use[k] = use.get(k, 0) + 1
        if any(c > 2 for c in use.values()):
            continue
        kept = frozenset(use)
        marked = frozenset(k for k, c in use.items() if c == 2)
        groups.setdefault((kept, marked), []).append(fam)
    out = []
    for (kept, marked), fams in sorted(groups.items(), key=lambda kv: (sorted(kv[0][0]), sorted(kv[0][1]))):
        typ, mult = _theta_type_mult(N, kept, marked)
        weight = poly_prod(N.edges[k].weight for k in sorted(kept)) \
            * poly_prod(N.edges[k].weight for k in sorted(marked))
        out.append(MarkedSubnetwork(kept, marked, typ, mult, weight, len(fams)))
    return out


def hat_pfaf_prime(N: Network, D: SymTLDiagram, subnetworks=None) -> Poly:
    """Mult-weighted sum over marked subnetworks of the given type."""
    subs = marked_subnetworks(N) if subnetworks is None else subnetworks
    total = Poly.zero()
    for s in subs:
        if s.type == D:
            total = total + s.mult * s.weight
    return total


def hat_pfaf(N: Network, D: SymTLDiagram, subnetworks=None) -> Poly:
    from .diagrams import removal_closure

    subs = marked_subnetworks(N) if subnetworks is None else subnetworks
    total = Poly.zero()
    for Dp in removal_closure(D):
        total = total + hat_pfaf_prime(N, Dp, subs)
    return total


def verify_network_equality(N: Network, D: SymTLDiagram, seed: int = 0) -> dict:
    """TL pfaffinant of A(N) equals the marked-subnetwork weight sum."""
    from .pfaffinants import _require_equal, tl_pfaffinant

    lhs = tl_pfaffinant(D, path_weight_matrix(N), seed)
    rhs = hat_pfaf(N, D)
    _require_equal(lhs, rhs, f"network equality for {D.key()}")
    return {"identity": "network-equality", "diagram": D.key(), "ok": True}


# -- the separating network of a diagram -----------------------------------------


def construct_network_of_diagram(D: SymTLDiagram, symbolic: bool = True, weights=None) -> Network:
    """Straight-line network whose unique triple-free marked subnetwork has type D.

    Sources u_i sit at (0, 2n-i).  Every vertex i that is not the larger
    end of a vertical edge gets a sink w_i at (1, 2n-i) and a straight
    rail; the k-th smallest larger end is joined to the sink of the k-th
    smallest smaller end.  Interior intersections become vertices.
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
    wcount = [0]

    def next_weight():
        wcount[0] += 1
        if symbolic:
            return Poly.var(x(wcount[0]))
        return weights[wcount[0] - 1] if weights is not None else 1

    for s, (A, B, la, lb) in enumerate(segs):
        ida = vid(A, f"{la[0]}{la[1]}")
        idb = vid(B, f"{lb[0]}{lb[1]}")
        vertices[ida] = A
        vertices[idb] = B
        stops = [A] + sorted(cuts[s]) + [B]
        for P, Q in zip(stops, stops[1:]):
            vertices[vid(P)] = P
            vertices[vid(Q)] = Q
            edges.append((points[P], points[Q], next_weight()))

    sources = [f"u{i}" for i in range(1, n2 + 1)]
    sinks = [f"w{i}" for i in range(1, n2 + 1) if i not in ingoing]
    return Network(vertices, edges, sources, sinks)


# -- random planar fence networks -------------------------------------------------


def random_fence_network(n: int, crossings: int, seed: int, symbolic: bool = False) -> Network:
    """2n horizontal rails with random adjacent-rail crossings, random weights."""
    rng = random.Random(seed)
    n2 = 2 * n
    cols = [rng.randrange(1, n2) for _ in range(crossings)]  # rail r crosses rail r+1
    vertices = {}
    edges = []
    head = {}
    wcount = [0]

    def weight():
        wcount[0] += 1
        if symbolic:
            return Poly.var(x(wcount[0]))
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
    payload = json.loads(text)
    vertices = {v["id"]: (Fraction(v["x"]), Fraction(v["y"])) for v in payload["vertices"]}
    edges = [(e["from"], e["to"], parse_weight(e["weight"])) for e in payload["edges"]]
    return Network(vertices, edges, payload["sources"], payload["sinks"])


def parse_weight(text: str) -> Poly:
    """Parse weights as rendered by Poly: products of x[k] and rational constants."""
    text = text.strip()
    total = Poly.zero()
    if text == "0":
        return total
    text = text.replace(" - ", " + -")
    for term in text.split(" + "):
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
        if neg:
            coeff = -coeff
        total = total + Poly({tuple(mono): coeff})
    return total
