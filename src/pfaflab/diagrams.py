"""Matchings and symmetric Temperley-Lieb diagrams.

A symmetric TL diagram lives on 4n rectangle-boundary points: 1..2n down
the left side and 1'..2n' down the right side.  It is canonically
represented by its set of left vertical edges alone; the mirror edges
(i',j') and the horizontal edges (i,i') are derived.  Boundary positions
run 1..2n (left, top to bottom) then 2n+1..4n for 2n', ..., 1', so the
mirror reflection is position p <-> 4n+1-p.

A diagram's rank is its index in ``enumerate_sym_tl(n)``, and a set of
diagrams of [2n] is one int bitmask over their ranks.  Compatibility
(one mask per even I, read off one mask per vertical edge), the removal
closures (one mask per rank) and the I-maximal diagrams are computed on
masks; ``compatible_diagrams``,
``i_maximal_diagrams`` and ``mask_diagrams`` decode them to diagrams.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb

from .poly import CapacityError, UsageError

MATCHING_BOUND = 6   # largest n that enumerate_matchings accepts
DIAGRAM_BOUND = 8    # largest n that enumerate_sym_tl accepts

Matching = frozenset  # of sorted integer pairs


class NotStandardError(ValueError):
    """Raised when an (I, Ibar) pair is not a standard partition."""


class OddSubsetError(ValueError):
    """Raised when an operation requires an even-cardinality subset."""


# -- perfect matchings of [2n] ------------------------------------------------


def matching(pairs) -> Matching:
    return frozenset(tuple(sorted(p)) for p in pairs)


def enumerate_matchings(n: int) -> list:
    """All (2n-1)!! perfect matchings of [2n], deterministic order."""
    if n > MATCHING_BOUND:
        raise CapacityError(f"matching enumeration bound exceeded: n={n} > {MATCHING_BOUND}")
    return list(_matchings_cached(n))


@lru_cache(maxsize=None)
def _matchings_cached(n: int) -> tuple:
    out = []

    def rec(points, acc):
        if not points:
            out.append(frozenset(acc))
            return
        first = points[0]
        for k in range(1, len(points)):
            rec(points[1:k] + points[k + 1:], acc + [(first, points[k])])

    rec(tuple(range(1, 2 * n + 1)), [])
    return tuple(out)


def interleave(e, f) -> bool:
    """Whether sorted pairs e = (i, j) and f = (k, l) interleave: i < k < j < l
    or k < i < l < j, so their chords cross."""
    (i, j), (k, l) = e, f
    return i < k < j < l or k < i < l < j


def crossing_number(pi: Matching) -> int:
    """Number of interleaved pairs of edges."""
    return sum(interleave(e, f) for e, f in combinations(pi, 2))


def matching_sign(pi: Matching) -> int:
    return -1 if crossing_number(pi) % 2 else 1


# -- symmetric TL diagrams ----------------------------------------------------


def _noncrossing_pairs(pairs) -> bool:
    for e, f in combinations(pairs, 2):
        if interleave(e, f):
            return False
    return True


def _valid_vertical_set(n: int, edges) -> bool:
    pts = [p for e in edges for p in e]
    if len(set(pts)) != len(pts) or any(not 1 <= p <= 2 * n for p in pts):
        return False
    if not _noncrossing_pairs(edges):
        return False
    # A horizontal point inside a vertical edge would force a crossing with
    # the horizontal chord (i,i').
    covered = set(pts)
    for i, j in edges:
        for p in range(i + 1, j):
            if p not in covered:
                return False
    return True


@dataclass(frozen=True)
class SymTLDiagram:
    """Mirror-symmetric non-crossing matching, stored by left vertical edges."""

    n: int
    vertical_left: frozenset

    def __post_init__(self):
        edges = sorted(self.vertical_left)
        if any(not (isinstance(e, tuple) and len(e) == 2 and e[0] < e[1]) for e in edges):
            raise ValueError(f"bad vertical edge set {edges}")
        if not _valid_vertical_set(self.n, edges):
            raise ValueError(f"vertical edges {edges} do not give a valid symmetric diagram (n={self.n})")

    @property
    def order(self) -> int:
        return len(self.vertical_left)

    @property
    def is_even(self) -> bool:
        return self.order % 2 == 0

    def horizontal_points(self) -> frozenset:
        covered = {p for e in self.vertical_left for p in e}
        return frozenset(p for p in range(1, 2 * self.n + 1) if p not in covered)

    def full_position_matching(self) -> frozenset:
        """All 2n edges as pairs of boundary positions (mirror p <-> 4n+1-p)."""
        n4 = 4 * self.n
        pairs = set()
        for i, j in self.vertical_left:
            pairs.add((i, j))
            pairs.add(tuple(sorted((n4 + 1 - i, n4 + 1 - j))))
        for i in self.horizontal_points():
            pairs.add((i, n4 + 1 - i))
        return frozenset(pairs)

    def key(self) -> str:
        return "V[" + "".join(f"({i},{j})" for i, j in sorted(self.vertical_left)) + "]"

    def __str__(self):
        return self.key()


def sym_diagram(n: int, edges=()) -> SymTLDiagram:
    return SymTLDiagram(n, frozenset(tuple(sorted(e)) for e in edges))


def _parse_key(key: str, n: int, prefix: str, what: str, build):
    """``build(n, edges)`` for a key such as ``V[(2,3)]``; ``what`` names it in errors.

    A key that does not parse, or whose edges ``build`` rejects, raises
    UsageError.
    """
    bad = UsageError(f"bad {what} key {key!r}")
    body = key.strip()
    if not (body.startswith(prefix + "[") and body.endswith("]")):
        raise bad
    edges = []
    for chunk in body[2:-1].replace(")(", ");(").split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if not (chunk.startswith("(") and chunk.endswith(")")):
            raise bad
        try:
            i, j = chunk[1:-1].split(",")
            edges.append((int(i), int(j)))
        except ValueError:
            raise bad from None
    try:
        return build(n, edges)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def parse_diagram_key(key: str, n: int) -> SymTLDiagram:
    return _parse_key(key, n, "V", "diagram", sym_diagram)


def subset_order_key(I) -> tuple:
    """Sort key for the total order on subsets: larger first, then lex."""
    t = tuple(sorted(I))
    return (-len(t), t)


def i_set(D: SymTLDiagram) -> frozenset:
    """Lower vertical endpoints plus horizontal points; |I(D)| = 2n - |D|."""
    return frozenset(i for i, _ in D.vertical_left) | D.horizontal_points()


def diagram_order_key(D: SymTLDiagram) -> tuple:
    return subset_order_key(i_set(D))


def enumerate_sym_tl(n: int) -> list:
    """All C(2n,n) symmetric TL diagrams, sorted by the diagram order."""
    if n > DIAGRAM_BOUND:
        raise CapacityError(f"diagram enumeration bound exceeded: n={n} > {DIAGRAM_BOUND}")
    return list(_sym_tl_cached(n))


@lru_cache(maxsize=None)
def _sym_tl_cached(n: int) -> tuple:
    out = [subset_bijection_inv(frozenset(S), n) for S in combinations(range(1, 2 * n + 1), n)]
    if len(set(out)) != comb(2 * n, n):
        raise AssertionError("subset bijection failed to produce distinct diagrams")
    return tuple(sorted(out, key=diagram_order_key))


def enumerate_sym_tl_even(n: int) -> list:
    return [D for D in enumerate_sym_tl(n) if D.is_even]


def subset_bijection(D: SymTLDiagram) -> frozenset:
    """The n-subset of [2n]: lower vertical endpoints plus the largest
    horizontal points (upper endpoints are never colored)."""
    n = D.n
    black = {i for i, _ in D.vertical_left}
    for p in sorted(D.horizontal_points(), reverse=True):
        if len(black) == n:
            break
        black.add(p)
    if len(black) != n:
        raise AssertionError(f"coloring of {D} produced {len(black)} black points")
    return frozenset(black)


def subset_bijection_inv(S: frozenset, n: int) -> SymTLDiagram:
    """Inverse map: read points from 2n down to 1, matching blacks to free whites."""
    if len(S) != n or any(not 1 <= p <= 2 * n for p in S):
        raise ValueError(f"need an n-subset of [2n], got {sorted(S)}")
    used_white = set()
    edges = []
    for i in range(2 * n, 0, -1):
        if i not in S:
            continue
        j = next((q for q in range(i + 1, 2 * n + 1) if q not in S and q not in used_white), None)
        if j is not None:
            used_white.add(j)
            edges.append((i, j))
    return sym_diagram(n, edges)


def omega_involution(D: SymTLDiagram) -> SymTLDiagram:
    """Order-changing involution swapping even and odd diagrams."""
    horiz = D.horizontal_points()
    if 1 in horiz:
        others = sorted(horiz - {1})
        if not others:
            raise AssertionError("horizontal point 1 cannot be alone")
        i = others[0]
        return sym_diagram(D.n, set(D.vertical_left) | {(1, i)})
    edge = next(e for e in D.vertical_left if e[0] == 1)
    return sym_diagram(D.n, set(D.vertical_left) - {edge})


def _removable_odd_edges(D: SymTLDiagram):
    for i, j in sorted(D.vertical_left):
        if i % 2 == 1 and _valid_vertical_set(D.n, sorted(D.vertical_left - {(i, j)})):
            yield (i, j)


@lru_cache(maxsize=None)
def removal_closure(D: SymTLDiagram) -> frozenset:
    """S(D): iterated closure of D under removal of a legal odd edge."""
    seen = {D}
    stack = [D]
    while stack:
        cur = stack.pop()
        for edge in _removable_odd_edges(cur):
            nxt = sym_diagram(cur.n, cur.vertical_left - {edge})
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    size = len(seen)
    if size & (size - 1):
        raise AssertionError(f"|S(D)| = {size} is not a power of 2 for {D}")
    return frozenset(seen)


def is_compatible(D: SymTLDiagram, I) -> bool:
    """Every vertical edge must join an I-point to a non-I-point."""
    I = set(I)
    return all((i in I) != (j in I) for i, j in D.vertical_left)


def check_points(I, n: int) -> None:
    """Raise UsageError unless every point of I lies in [1, 2n]."""
    if any(not 1 <= i <= 2 * n for i in I):
        raise UsageError(f"indices {sorted(I)} out of range for size {2 * n}")


def _even_subset(I, n: int) -> frozenset:
    I = frozenset(I)
    if len(I) % 2:
        raise OddSubsetError(f"subset {sorted(I)} has odd cardinality")
    check_points(I, n)
    return I


def compatible_diagrams(I, n: int) -> frozenset:
    """The diagrams whose every vertical edge joins a point of I to a point
    outside it, for an even subset I of [2n]: ``compatible_mask`` decoded.

    An odd I raises OddSubsetError and a point outside [1, 2n] raises
    UsageError."""
    return mask_diagrams(compatible_mask(I, n), n)


def compatible_mask(I, n: int) -> int:
    """The ranks of the diagrams compatible with the even subset I of [2n],
    as a bitmask read from ``_compatible_index(n)``."""
    return _compatible_index(n)[_even_subset(I, n)]


@lru_cache(maxsize=None)
def _compatible_index(n: int) -> dict:
    """Every even I of [2n] -> the bitmask of the ranks of the diagrams
    compatible with it.

    Each vertical edge (p, q) holds the mask of the diagrams that have it.
    A diagram is compatible with I unless one of its edges has both ends
    on the same side of I, so the mask of I is every rank but the OR of
    the masks of those edges; horizontal points never bar a diagram.
    ``is_compatible`` is the oracle."""
    edges: dict = {}
    diagrams = enumerate_sym_tl(n)
    for r, D in enumerate(diagrams):
        for e in D.vertical_left:
            edges[e] = edges.get(e, 0) | 1 << r
    every = (1 << len(diagrams)) - 1
    index = {}
    for k in range(0, 2 * n + 1, 2):
        for I in map(frozenset, combinations(range(1, 2 * n + 1), k)):
            same = 0
            for (p, q), mask in edges.items():
                if (p in I) == (q in I):
                    same |= mask
            index[I] = every & ~same
    return index


@lru_cache(maxsize=None)
def diagram_ranks(n: int) -> dict:
    """Left edge set -> rank, the diagram's index in ``enumerate_sym_tl(n)``."""
    return {D.vertical_left: r for r, D in enumerate(enumerate_sym_tl(n))}


def ranks_of(mask: int):
    """The ranks of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_diagrams(mask: int, n: int) -> frozenset:
    """The diagrams of [2n] whose ranks are the set bits of ``mask``."""
    diagrams = _sym_tl_cached(n)
    return frozenset(diagrams[r] for r in ranks_of(mask))


@lru_cache(maxsize=None)
def closure_masks(n: int) -> tuple:
    """Rank -> the bitmask of the ranks of the diagram's removal closure.

    S(D) is D and the closures of the D - e over D's removable odd edges
    e.  Those have one edge fewer, so taking the diagrams by increasing
    order finds each of their masks done.  ``removal_closure`` is the
    oracle."""
    rank = diagram_ranks(n)
    masks = [0] * len(rank)
    for D in sorted(enumerate_sym_tl(n), key=lambda D: D.order):
        r = rank[D.vertical_left]
        mask = 1 << r
        for edge in _removable_odd_edges(D):
            mask |= masks[rank[D.vertical_left - {edge}]]
        masks[r] = mask
    return tuple(masks)


@lru_cache(maxsize=None)
def _even_mask(n: int) -> int:
    return sum(1 << r for r, D in enumerate(enumerate_sym_tl(n)) if D.is_even)


def maximal_mask(candidates: int, n: int) -> int:
    """The even diagrams of the bitmask ``candidates`` that lie inside the
    removal closure of no other one of them."""
    closure = closure_masks(n)
    inside = 0
    for r in ranks_of(candidates):
        inside |= closure[r] & ~(1 << r)
    return candidates & _even_mask(n) & ~inside


def i_maximal_mask(I, n: int) -> int:
    """The ranks of the I-maximal diagrams, as a bitmask."""
    return maximal_mask(compatible_mask(I, n), n)


def i_maximal_diagrams(I, n: int) -> frozenset:
    """Even compatible diagrams not inside the removal closure of another;
    a point outside [1, 2n] raises UsageError."""
    return mask_diagrams(i_maximal_mask(I, n), n)


# -- standard partitions ------------------------------------------------------


def is_standard_partition(I, Ibar, n: int) -> bool:
    I, Ibar = sorted(I), sorted(Ibar)
    if sorted(I + Ibar) != list(range(1, 2 * n + 1)):
        return False
    if len(I) < len(Ibar):
        return False
    return all(i < j for i, j in zip(I, Ibar))


def standard_partition(D: SymTLDiagram) -> tuple:
    I = tuple(sorted(i_set(D)))
    Ibar = tuple(p for p in range(1, 2 * D.n + 1) if p not in set(I))
    return I, Ibar


def standard_partition_inv(I, Ibar, n: int) -> SymTLDiagram:
    """Greedy reconstruction: each j in Ibar joins the largest unused smaller I-point."""
    if not is_standard_partition(I, Ibar, n):
        raise NotStandardError(f"({sorted(I)}, {sorted(Ibar)}) is not standard")
    I = sorted(I)
    used = set()
    edges = []
    for j in sorted(Ibar):
        i = next((p for p in reversed(I) if p < j and p not in used), None)
        if i is None:
            raise NotStandardError(f"({I}, {sorted(Ibar)}) is not standard")
        used.add(i)
        edges.append((i, j))
    D = sym_diagram(n, edges)
    if standard_partition(D) != (tuple(I), tuple(sorted(Ibar))):
        raise AssertionError("standard partition reconstruction failed round-trip")
    return D


# -- ordinary TL diagrams (2n points: 1..n left top-down, n+1..2n right bottom-up)


@dataclass(frozen=True)
class TLDiagram:
    n: int
    edges: frozenset

    def __post_init__(self):
        pts = sorted(p for e in self.edges for p in e)
        if pts != list(range(1, 2 * self.n + 1)):
            raise ValueError(f"edges {sorted(self.edges)} are not a perfect matching of [2n]")
        if not _noncrossing_pairs(sorted(self.edges)):
            raise ValueError(f"edges {sorted(self.edges)} cross")

    def key(self) -> str:
        return "T[" + "".join(f"({i},{j})" for i, j in sorted(self.edges)) + "]"

    def __str__(self):
        return self.key()


def tl_diagram(n: int, edges) -> TLDiagram:
    return TLDiagram(n, frozenset(tuple(sorted(e)) for e in edges))


def parse_tl_key(key: str, n: int) -> TLDiagram:
    return _parse_key(key, n, "T", "TL diagram", tl_diagram)


def _noncrossing_matchings(points):
    if not points:
        yield []
        return
    first = points[0]
    for k in range(1, len(points), 2):
        for inside in _noncrossing_matchings(points[1:k]):
            for outside in _noncrossing_matchings(points[k + 1:]):
                yield [(first, points[k])] + inside + outside


def enumerate_tl(n: int) -> list:
    """All Catalan(n) non-crossing perfect matchings of [2n], sorted by
    their sorted edges; a diagram's index here is its TL rank."""
    return list(_tl_cached(n))


@lru_cache(maxsize=None)
def _tl_cached(n: int) -> tuple:
    out = [tl_diagram(n, m) for m in _noncrossing_matchings(tuple(range(1, 2 * n + 1)))]
    return tuple(sorted(out, key=lambda d: sorted(d.edges)))


def enumerate_noncrossing_4n(n: int) -> list:
    """Non-crossing perfect matchings on the 4n boundary positions (oracle use)."""
    return [frozenset(m) for m in _noncrossing_matchings(tuple(range(1, 4 * n + 1)))]
