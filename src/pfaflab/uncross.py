"""Exact planar embeddings of doubled matchings and their sign-weighted uncrossings.

A matching on the 4n boundary positions (1..2n down the left, then
2n'..1' up the right, so position p mirrors to 4n+1-p) is embedded with
straight chords between exact rational points on the unit circle.  Chords
cross exactly when their endpoints interleave, and every pair crosses at
most once, so the crossing census is forced; the geometry only decides
the order of crossings along each chord.  The placement is exactly
mirror-symmetric, is re-perturbed deterministically if three chords ever
meet in a point, and never has tangencies.  Concurrency needs no search
of its own: chords through one interior point cross there pairwise, so
three meet exactly when two crossings tie in parameter along one chord,
which sorting each chord's crossings shows.  The boundary points of each
placement (n, seed, retry), and the crossing of each interleaved chord
pair in it, are computed once per process and shared by every matching
embedded there; `_segment_crossing` decides on the integer cross
products of `_crossing_params` (the one segment-intersection kernel,
which the network planarity check shares) over a common denominator and
builds Fractions only for its result.

Each crossing between a chord and its own mirror image sits on the axis
and is *unpaired*; all other crossings come in mirror orbits of size two
(*paired*) and are always resolved the same way, keeping every uncrossing
mirror-symmetric.  Resolving a crossing joins the two strand stubs leading
to the chords' start sides (vertical) or start-with-end (horizontal).  The
weight of an uncrossing is 2^loops * (-1)^(unpaired vertical + paired
horizontal), with mirror-symmetric loop pairs counted once.

The weight tables f and g are computed by a fold over the resolution
classes rather than by tracing all 2^k uncrossings: classes are resolved
one at a time in order of |x| of their crossing.  Each chord piece has
two ends, end 2*piece + side, and `ChordMap.boundary_end` is the one
record of which end each boundary position is; the fold's last step
reads it.  A partial uncrossing is a set of curves with
two ends each.  A state is the tuple of mates of the live ends (the
other end of the curve through each); the list of live ends depends only
on the step, so the tuple is canonical as it stands.  Resolving a class
joins at most 8 ends, and partial uncrossings with the same mates merge
into one state with a summed weight.  The fold needs at most 252 states
for any matching at n = 5, where enumeration would trace up to 2^25
uncrossings; it raises CapacityError past its state bound.  A final
state's strands (pairs of boundary positions) fix its diagram, which is
built, and its strands checked, once per (n, strand set): 98 diagrams
for the 6114 final states of all 124 tables at n <= 4.  The fold computes
the weights of one embedding: g of a doubled TL diagram, and f of a
matching in ``f_coefficient``, which ``thm-2.4`` compares across seeds;
the tests trace the 2^k uncrossings of k classes one by one as its oracle.

The tables f of all matchings of [2n] that the pfaffinants sum come
instead from one memoised recursion on integer ranks, ``rank_tables``: a
diagram's rank is its index in ``enumerate_sym_tl(n)`` and a table is a
tuple of weights indexed by rank, None where the recursion never reaches
the diagram.  Conjugating a matching by s_i removes one
mirror pair of crossings at the boundary, and resolving that pair maps
the table of the smaller matching to the larger one (see
``uncrossing_table``).  V_i, the cup-cap at (i, i+1), is one tuple per
(n, i) mapping rank to (rank, loops), built once from the rule on left
edge sets, so each step is one pass over a table of C(2n, n) entries;
the 10,395 tables at n = 6 reach 7,474,720 of their 9,604,980.  Its
correctness rests on the tables not depending on the embedding (thm-2.4),
and the tests compare it with the fold.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import lcm
from operator import itemgetter

from .diagrams import (SymTLDiagram, TLDiagram, enumerate_matchings, enumerate_sym_tl, interleave,
                       sym_diagram)
from .poly import CapacityError

DEFAULT_STATE_BOUND = 2500    # fold states; n = 5 needs at most 252


def circle_point(s: Fraction) -> tuple:
    d = 1 + s * s
    return ((1 - s * s) / d, 2 * s / d)


def _placement(n: int, seed: int, retry: int) -> list:
    """Parameters s_1 > ... > s_{2n} in (0,1); right point i' = P(s_i),
    left point i is its mirror (-x, y)."""
    N = 2 * n + 1
    P = 256
    out = []
    for i in range(1, 2 * n + 1):
        if seed == 0 and retry == 0:
            eps = 0
        else:
            eps = ((37 * i * (seed + 101 * retry + 1) + 11 * (seed + retry + 1)) % 23) - 11
        out.append(Fraction((N - i) * P + eps, (N + i) * P))
    if any(not (0 < out[i + 1] < out[i] < 1) for i in range(len(out) - 1)):
        raise AssertionError("placement jitter broke monotonicity")
    return out


def _crossing_params(A, B, C, D):
    """(t, u, den) of integer segments AB and CD, normalised so den >= 0.

    For den > 0, A + (t/den)(B - A) = C + (u/den)(D - C) is where the
    lines meet.  den == 0 means the segments are parallel, and then u == 0
    exactly when they lie on one line.
    """
    rx, ry, sx, sy = B[0] - A[0], B[1] - A[1], D[0] - C[0], D[1] - C[1]
    qx, qy = C[0] - A[0], C[1] - A[1]
    den = rx * sy - ry * sx
    t = qx * sy - qy * sx
    u = qx * ry - qy * rx
    if den < 0:
        return -t, -u, -den
    return t, u, den


def _segment_crossing(A, B, C, D):
    """Exact interior crossing of segments AB and CD, or None.

    Returns (point, t, u) with point = A + t(B - A) = C + u(D - C) and
    0 < t, u < 1.  The coordinates (ints or Fractions) are scaled to
    integers over one common denominator, so the test runs on integer
    cross products and Fractions are built only for the result.
    """
    scale = lcm(*(c.denominator for P in (A, B, C, D) for c in P))
    A, B, C, D = ((P[0].numerator * (scale // P[0].denominator),
                   P[1].numerator * (scale // P[1].denominator)) for P in (A, B, C, D))
    t, u, den = _crossing_params(A, B, C, D)
    if not (den and 0 < t < den and 0 < u < den):
        return None
    scale *= den
    point = (Fraction(A[0] * den + t * (B[0] - A[0]), scale),
             Fraction(A[1] * den + t * (B[1] - A[1]), scale))
    return point, Fraction(t, den), Fraction(u, den)


@lru_cache(maxsize=None)
def _boundary_points(n: int, seed: int, retry: int) -> dict:
    """Boundary position -> exact point of the placement; shared, do not change."""
    coords = {}
    for i, s in enumerate(_placement(n, seed, retry), 1):
        xx, yy = circle_point(s)
        coords[4 * n + 1 - i] = (xx, yy)   # right point i'
        coords[i] = (-xx, yy)              # left point i
    return coords


@lru_cache(maxsize=None)
def _chord_crossing(n: int, seed: int, retry: int, c1: tuple, c2: tuple):
    """_segment_crossing of two chords, given as position pairs, in one placement."""
    pts = _boundary_points(n, seed, retry)
    return _segment_crossing(pts[c1[0]], pts[c1[1]], pts[c2[0]], pts[c2[1]])


@dataclass(frozen=True)
class Crossing:
    chords: tuple       # (chord index, chord index), lower first
    point: tuple
    params: tuple       # parameter along each chord, matching `chords` order
    unpaired: bool
    orbit: int          # resolution class index


class ChordMap:
    """Mirror-symmetric straight-chord embedding with classified crossings."""

    def __init__(self, n: int, position_pairs, seed: int = 0):
        self.n = n
        self.seed = seed
        pairs = sorted(tuple(sorted(p)) for p in position_pairs)
        pts = sorted(q for p in pairs for q in p)
        if pts != list(range(1, 4 * n + 1)):
            raise ValueError("chord endpoints must partition the 4n boundary positions")
        self._build(pairs)

    def mirror_pos(self, p: int) -> int:
        return 4 * self.n + 1 - p

    def _build(self, pairs):
        n = self.n
        # sorted pairs: for side-crossing chords the start is the left
        # endpoint, which fixes the vertical/horizontal convention
        chords = list(pairs)
        index = {c: k for k, c in enumerate(chords)}
        mirror_chord = [index[tuple(sorted((self.mirror_pos(p), self.mirror_pos(q))))]
                        for p, q in chords]
        interleaved = [(i, j) for i, j in combinations(range(len(chords)), 2)
                       if interleave(chords[i], chords[j])]
        for retry in range(60):
            hits = []
            along = [[] for _ in chords]   # per chord: (parameter, crossing, side)
            for k, (i, j) in enumerate(interleaved):
                hit = _chord_crossing(n, self.seed, retry, chords[i], chords[j])
                if hit is None:
                    raise AssertionError("interleaved chords failed to cross")
                hits.append(hit)
                along[i].append((hit[1], k, 0))
                along[j].append((hit[2], k, 1))
            for crossings_on in along:
                crossings_on.sort(key=itemgetter(0))
            # a tie on a chord is a third chord through one of its crossings
            if all(a[0] != b[0] for crossings_on in along
                   for a, b in zip(crossings_on, crossings_on[1:])):
                break
        else:
            raise RuntimeError("could not find a concurrency-free placement")

        self.retry = retry      # how often the placement was re-perturbed
        self.chords = chords
        self.cross_along = [[k for _, k, _ in crossings_on] for crossings_on in along]
        # chord c owns the pieces from offset[c], one more than its
        # crossings; end 2*piece + side is a piece's start (0) or end (1)
        offset = []
        before = [[0, 0] for _ in interleaved]   # per crossing: the piece before it on u, v
        self.boundary_end = {}
        total = 0
        for (p, q), crossings_on in zip(chords, along):
            if crossings_on and not (p <= 2 * n < q):
                raise AssertionError("only side-crossing chords may carry crossings")
            for slot, (_, k, side) in enumerate(crossings_on):
                before[k][side] = total + slot
            offset.append(total)
            self.boundary_end[p] = 2 * total
            total += len(crossings_on) + 1
            self.boundary_end[q] = 2 * total - 1
        self.n_pieces = total
        # per crossing: (u_before, u_after, v_before, v_after) piece ids
        self.cross_pieces = [(u, u + 1, v, v + 1) for u, v in before]
        # mirror map on pieces: piece s of c -> piece (m - s) of mirror(c)
        self.mirror_piece = [0] * total
        for c, mc in enumerate(mirror_chord):
            m = len(along[c])
            if len(along[mc]) != m:
                raise AssertionError("mirror chords disagree on crossing count")
            for s in range(m + 1):
                self.mirror_piece[offset[c] + s] = offset[mc] + m - s
        # classify: unpaired iff the two chords are mirror images of each other
        self.crossings = []
        self.classes = []
        self.class_kind = []
        orbit_of = {}
        for k, (pair, (point, t, u)) in enumerate(zip(interleaved, hits)):
            mpair = tuple(sorted(mirror_chord[c] for c in pair))
            unpaired = mpair == pair
            if pair not in orbit_of:
                orbit_of[pair] = orbit_of[mpair] = len(self.classes)
                self.classes.append([])
                self.class_kind.append("unpaired" if unpaired else "paired")
            orbit = orbit_of[pair]
            self.classes[orbit].append(k)
            self.crossings.append(Crossing(pair, point, (t, u), unpaired, orbit))
        for orbit, members in enumerate(self.classes):
            want = 1 if self.class_kind[orbit] == "unpaired" else 2
            if len(members) != want:
                raise AssertionError(f"orbit {orbit} has {len(members)} crossings, wanted {want}")

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    def census(self) -> dict:
        return {
            "crossings": len(self.crossings),
            "unpaired": self.class_kind.count("unpaired"),
            "paired_orbits": self.class_kind.count("paired"),
        }


def nu_pi_positions(pi, n: int) -> list:
    """Doubled matching of pi: chords (i, j') and (j, i') for each (i, j)."""
    out = []
    for i, j in pi:
        i, j = min(i, j), max(i, j)
        out.append((i, 4 * n + 1 - j))
        out.append((j, 4 * n + 1 - i))
    return out


def nu_d_positions(d: TLDiagram, n: int) -> list:
    """Mirror-symmetric doubling of an ordinary TL diagram.

    The diagram is first flipped left to right (i -> 2n+1-i); the flipped
    left points land on 1..n, the flipped right side on (n+1)'..(2n)' top
    to bottom, and mirror images of every edge are added.  The flip is
    forced by the expansion of TL pfaffinants of a zero-diagonal-block
    array over TL immanants, which pins the side identification (only
    diagrams fixed by the flip arise for n = 2).
    """
    out = []
    for u, v in d.edges:
        u, v = 2 * n + 1 - max(u, v), 2 * n + 1 - min(u, v)
        if v <= n:
            out.append((u, v))
            out.append((4 * n + 1 - v, 4 * n + 1 - u))
        elif u > n:
            out.append((n + u, n + v))
            out.append((3 * n + 1 - v, 3 * n + 1 - u))
        else:
            out.append((u, n + v))
            out.append((3 * n + 1 - v, 4 * n + 1 - u))
    return out


def embed_nu_pi(pi, n: int, seed: int = 0) -> ChordMap:
    return ChordMap(n, nu_pi_positions(pi, n), seed)


def embed_nu_d(d: TLDiagram, n: int, seed: int = 0) -> ChordMap:
    return ChordMap(n, nu_d_positions(d, n), seed)


# -- strands -------------------------------------------------------------------


def _left_edges(n: int, strands) -> frozenset:
    """Check the boundary points of each traced strand; return the left edges.

    Every strand must join exactly two boundary points, a strand crossing
    sides must join a point to its mirror, and the right side must mirror
    the left side.
    """
    n4 = 4 * n
    left = set()
    right = set()
    for ps in strands:
        if len(ps) != 2:
            raise AssertionError(f"strand component touches {len(ps)} boundary points")
        p, q = sorted(ps)
        if q <= 2 * n:
            left.add((p, q))
        elif p > 2 * n:
            right.add(tuple(sorted((n4 + 1 - p, n4 + 1 - q))))
        elif q != n4 + 1 - p:
            raise AssertionError(f"asymmetric cross-side strand ({p},{q})")
    if left != right:
        raise AssertionError("uncrossing is not mirror-symmetric")
    return frozenset(left)


# -- the fold over resolution classes --------------------------------------------


def _fold_steps(cmap: ChordMap, order) -> tuple:
    """The ends each step joins, and how a state's mates are laid out.

    End ``2*piece + side`` is the start (side 0) or the end (side 1) of a
    piece.  Before step s the live ends are the unresolved ends of every
    piece touched at an earlier step; the ends of an untouched piece are
    their own mates and are added, with those mates, at the step that
    first touches the piece.  Returns per step the ends at each of its
    crossings, as (u before, u after, v before, v after), and per step
    plus one final entry (the untouched chords, keeping the boundary ends)
    the added mates, each end's index in a state plus those mates, and
    the indices of the ends that stay live.
    """
    resolved = [len(order)] * (2 * cmap.n_pieces)   # step resolving each end
    ports = []
    for step, ci in enumerate(order):
        quads = []
        for k in cmap.classes[ci]:
            ub, ua, vb, va = cmap.cross_pieces[k]
            quads.append((2 * ub + 1, 2 * ua, 2 * vb + 1, 2 * va))
            for e in quads[-1]:
                resolved[e] = step
        ports.append(quads)
    first = [min(resolved[2 * p], resolved[2 * p + 1]) for p in range(cmap.n_pieces)]
    live = []
    layouts = []
    for step in range(len(order) + 1):
        extra = [e for p in range(cmap.n_pieces) if first[p] == step for e in (2 * p, 2 * p + 1)]
        pos = [None] * len(resolved)
        for i, e in enumerate(live + extra):
            pos[e] = i
        live = [e for e in live + extra if resolved[e] > step]
        layouts.append((tuple(e ^ 1 for e in extra), pos, [pos[e] for e in live]))
    return ports, layouts


def _loop_orbits(partner, mirror_of, base, pos) -> int:
    """Mirror orbits among the loops that the joins of one step close.

    Such a loop runs through ends of the step's crossings only, taking
    ``partner`` joins and the mates of ``base`` (the state before the
    step) in turn.
    """
    seen = set()
    loops = 0
    for start in partner:
        if start in seen:
            continue
        e, ring = start, []
        while True:
            f = partner[e]
            ring += (e, f)
            e = base[pos[f]]
            if e == start or e not in partner:
                break
        seen.update(ring)
        if e == start:
            seen.update(mirror_of[end] for end in ring)
            loops += 1
    return loops


def _accumulate(cmap: ChordMap) -> dict:
    """Total uncrossing weight per diagram, one resolution class at a time.

    A state is a tuple with the mate of each live end: the other end of
    the curve through it (see _fold_steps).  Classes are taken by |x| of
    their crossing, so both crossings of a paired orbit resolve at one
    step.  Joining ends a and b links their mates, or closes a loop if
    they are mates already; since the step is one mirror orbit, the mirror
    loop closes at the same step and the pair counts once.  Zero-weight
    states are kept, so diagrams whose weights cancel stay in the table.
    More than DEFAULT_STATE_BOUND states after a step raise CapacityError.
    """
    order = sorted(range(cmap.num_classes),
                   key=lambda ci: (abs(cmap.crossings[cmap.classes[ci][0]].point[0]), ci))
    ports, layouts = _fold_steps(cmap, order)
    mirror = cmap.mirror_piece
    states = {(): 1}
    for ci, quads, (extra, pos, keep) in zip(order, ports, layouts):
        vertical = [pair for ub, ua, vb, va in quads for pair in ((ub, vb), (ua, va))]
        horizontal = [pair for ub, ua, vb, va in quads for pair in ((ub, va), (ua, vb))]
        # -1 for an unpaired vertical or a paired horizontal resolution
        sign = -1 if cmap.class_kind[ci] == "unpaired" else 1
        choices = []
        for pairs, s in ((vertical, sign), (horizontal, -sign)):
            partner = {}
            for a, b in pairs:
                partner[a], partner[b] = b, a
            choices.append(([(b, pos[a], pos[b]) for a, b in pairs], partner, s))
        # the mirror of an end: the mirror piece, the other side
        mirror_of = {e: 2 * mirror[e >> 1] + (e & 1 ^ 1) for quad in quads for e in quad}
        take = itemgetter(*keep)
        nxt = {}
        for state, weight in states.items():
            base = state + extra
            for joins, partner, s in choices:
                mate = list(base)
                closed = False
                for b, ia, ib in joins:
                    ma = mate[ia]
                    if ma == b:
                        closed = True
                    else:
                        mb = mate[ib]
                        mate[pos[ma]] = mb
                        mate[pos[mb]] = ma
                loops = _loop_orbits(partner, mirror_of, base, pos) if closed else 0
                new = take(mate)
                nxt[new] = nxt.get(new, 0) + ((s * weight) << loops)
        if len(nxt) > DEFAULT_STATE_BOUND:
            raise CapacityError(f"{len(nxt)} uncrossing fold states exceed the bound "
                                f"{DEFAULT_STATE_BOUND}")
        states = nxt
    extra, pos, _ = layouts[-1]
    point = {e: p for p, e in cmap.boundary_end.items()}
    # each boundary position with its end's index in a final state plus extra
    ends = [(p, pos[e]) for p, e in cmap.boundary_end.items()]
    # a final state pairs every boundary end, so distinct states are
    # distinct diagrams; a strand is keyed by its positions in order
    out = {}
    for state, weight in states.items():
        base = state + extra
        strands = frozenset([(p, q) for p, i in ends if p < (q := point[base[i]])])
        out[_final_diagram(cmap.n, strands)] = weight
    return out


@lru_cache(maxsize=None)
def _final_diagram(n: int, strands: frozenset) -> SymTLDiagram:
    """The diagram of a set of strands, each a pair of boundary positions;
    built, and checked by _left_edges, once per (n, strand set)."""
    return sym_diagram(n, _left_edges(n, strands))


def f_coefficient(pi, n: int, seed: int = 0) -> dict:
    """Total uncrossing weight per resulting diagram for the doubled matching.

    Raises CapacityError if the fold needs more than DEFAULT_STATE_BOUND
    states."""
    return _accumulate(embed_nu_pi(pi, n, seed))


# -- every table of [2n] by conjugation, on ranks ---------------------------------


@lru_cache(maxsize=None)
def diagram_ranks(n: int) -> dict:
    """Left edge set -> rank, the diagram's index in ``enumerate_sym_tl(n)``."""
    return {D.vertical_left: r for r, D in enumerate(enumerate_sym_tl(n))}


def _base_table(n: int) -> tuple:
    """f of (1,2)(3,4)...(2n-1,2n) by rank: its n unpaired crossings are
    disjoint, so each resolves alone, horizontally (+1) or to the left edge
    (2k-1, 2k) (-1).  The diagrams with other edges are not reached (None)."""
    pairs = [(2 * k - 1, 2 * k) for k in range(1, n + 1)]
    rank = diagram_ranks(n)
    signs = {rank[frozenset(S)]: (-1) ** r for r in range(n + 1) for S in combinations(pairs, r)}
    return tuple(map(signs.get, range(len(rank))))


def _cup_cap(edges: frozenset, i: int) -> tuple:
    """(V_i(D), loops) on left edge sets: D with the symmetric cup-cap at
    (i, i+1) on both sides, and the mirror orbits of loops it closes.  A
    loop closes when D has the left edge (i, i+1) (a mirror pair) or when
    i and i+1 are both horizontal (one loop through its own mirror)."""
    mate = {}
    for a, b in edges:
        mate[a], mate[b] = b, a
    a, b = mate.get(i), mate.get(i + 1)
    if a == i + 1:
        return edges, 1
    kept = {e for e in edges if i not in e and i + 1 not in e}
    kept.add((i, i + 1))
    if a is None and b is None:
        return frozenset(kept), 1
    if a is not None and b is not None:
        kept.add((min(a, b), max(a, b)))
    # with one mate, that point's strand now runs across to its mirror
    return frozenset(kept), 0


@lru_cache(maxsize=None)
def cup_cap_ranks(n: int) -> dict:
    """i -> V_i on ranks, for i = 1..2n-1: the tuple whose entry at D's
    rank is (rank of V_i(D), loops), from ``_cup_cap`` once per (n, i)."""
    rank = diagram_ranks(n)
    return {i: tuple((rank[V], loops) for V, loops in (_cup_cap(E, i) for E in rank))
            for i in range(1, 2 * n)}


def _descent(pi: frozenset, n: int):
    """The first i with pi(i) > pi(i+1) and pi(i) != i+1, or None."""
    mate = {}
    for a, b in pi:
        mate[a], mate[b] = b, a
    return next((i for i in range(1, 2 * n) if mate[i] > mate[i + 1] and mate[i] != i + 1), None)


def uncrossing_table(pi, n: int, memo: dict) -> tuple:
    """f(pi), the total uncrossing weight at each diagram rank, None where
    no uncrossing reaches the diagram, memoised in ``memo`` by matching.

    At the first i with pi(i) > pi(i+1) and pi(i) != i+1, nu_pi is
    nu_pi' (pi' = s_i pi s_i) with one more mirror pair of crossings at
    the boundary positions (i, i+1) and (i', (i+1)').  Resolving that pair
    first gives f(pi) = sum over D of f(pi')(D) * (2^loops V_i(D) - D):
    both horizontal keep D with the weight -1, both vertical give the
    cup-cap V_i(D); a diagram either term reaches is reached, so weights
    that cancel stay as 0.  Only the base matching (1,2)(3,4)...(2n-1,2n)
    has no such i.  The fold of ``f_coefficient`` gives the same tables,
    zero weights included, for every embedding (thm-2.4), and the tests
    compare the two.
    """
    chain = []
    while pi not in memo:
        i = _descent(pi, n)
        if i is None:   # the base matching
            memo[pi] = _base_table(n)
            break
        chain.append((pi, i))
        swap = {i: i + 1, i + 1: i}
        pi = frozenset(tuple(sorted((swap.get(a, a), swap.get(b, b)))) for a, b in pi)
    table = memo[pi]
    caps = cup_cap_ranks(n)
    for pi, i in reversed(chain):
        V = caps[i]
        nxt = [None] * len(table)
        for r, w in enumerate(table):
            if w is None:
                continue
            v, loops = V[r]
            nxt[v] = (nxt[v] or 0) + (w << loops)
            nxt[r] = (nxt[r] or 0) - w
        memo[pi] = table = tuple(nxt)
    return table


@lru_cache(maxsize=None)
def rank_tables(n: int) -> tuple:
    """The table of every matching of [2n] by ``uncrossing_table``, once per
    process: entry k is the table of the k-th matching of
    ``enumerate_matchings(n)``, a tuple indexed by diagram rank."""
    memo = {}
    return tuple(uncrossing_table(pi, n, memo) for pi in enumerate_matchings(n))


def g_coefficient(d: TLDiagram, n: int, seed: int = 0) -> dict:
    """Total uncrossing weight per diagram for the doubled TL diagram."""
    return _accumulate(embed_nu_d(d, n, seed))


def z_count(d: TLDiagram, n: int) -> int:
    """Number of edges of d with both ends among the n left points."""
    return sum(1 for u, v in d.edges if max(u, v) <= n)


def g_tilde_coefficient(d: TLDiagram, n: int) -> dict:
    sign = -1 if (z_count(d, n) * n) % 2 else 1
    return {D: sign * w for D, w in g_coefficient(d, n).items()}
