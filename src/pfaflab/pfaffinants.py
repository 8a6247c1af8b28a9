"""Diagram and TL pfaffinants, decomposition identities, and the positivity cone.

A pfaffinant is a ``PfaffinantFunctional``: a coefficient per matching pi
of [2n], evaluated on an array as the sum of c * pf_pi.  Its *row* holds
the coefficients in ``enumerate_matchings(n)`` order; ``coefficients``
is the dict view of the row (matching -> nonzero coefficient).  On the
generic array ``SkewArray.symbolic(2n)`` every monomial pfaffian pf_pi
is its own monomial, so two functionals evaluate to the same polynomial
exactly when their rows agree.

The row of a diagram D is its weight in the uncrossing table of every
matching.  The rows of [2n] are one list indexed by diagram rank, one
transpose of ``uncross.rank_tables(n)``, and ``diagram_functional(D)``
shares D's row; ``f_tables(n)`` is the one view of the tables keyed by
diagrams.  ``tl_functional(D)`` holds the column sum of the rows over
D's removal closure, and a cone element's functional is a weighted sum
of TL rows.  The decomposition identities (thm-2.6, thm-2.12) are column
sums: the rows of the diagrams compatible with I, or the TL rows of the
I-maximal ones, against the row of pf_I * pf_Ibar, which relabels one
signed list per size (the matchings of [2r] with their crossing-parity
signs) onto the sorted points of I and of Ibar and multiplies the two.
Only when the rows differ are both sides evaluated, to report the first
differing monomial.  ``certify_basis`` (thm-2.17) ranks the TL rows and
the complementary rows themselves: evaluation on the generic array maps
rows to polynomials one to one, so their ranks are the polynomials'.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .diagrams import (OddSubsetError, SymTLDiagram, check_points, compatible_diagrams,
                       crossing_number, diagram_order_key, enumerate_matchings, enumerate_sym_tl,
                       enumerate_sym_tl_even, i_maximal_diagrams, maximal_among,
                       removal_closure, standard_partition)
from .pfaffian import SkewArray, min_partition, monomial_pfaffian
from .poly import Poly, UsageError, _num, express_in_span, poly_sum, row_rank
from .uncross import diagram_ranks, rank_tables


class VerificationError(RuntimeError):
    """An exact identity failed; carries the first differing monomial."""


def _require_equal(lhs: Poly, rhs: Poly, what: str) -> None:
    if lhs == rhs:
        return
    mono, c = min((lhs - rhs).items())
    raise VerificationError(f"{what}: sides differ at monomial {Poly._mono_str(mono) or '1'} "
                            f"by {c}")


@dataclass(frozen=True)
class PfaffinantFunctional:
    """A coefficient function on the matchings of [2n], held as its row."""

    n: int
    row: tuple  # int or Fraction per matching, in enumerate_matchings(n) order

    @property
    def coefficients(self) -> dict:
        """Matching -> nonzero coefficient, in row order."""
        return {pi: c for pi, c in zip(enumerate_matchings(self.n), self.row) if c}

    @staticmethod
    def from_dict(n, coeffs) -> "PfaffinantFunctional":
        """Keys are matchings of [2n] (or what ``frozenset`` takes to one); others are refused."""
        columns = _matching_columns(n)
        row = [0] * len(columns)
        for pi, c in coeffs.items():
            k = columns.get(frozenset(pi))
            if k is None:
                raise ValueError(f"{sorted(pi)} is not a matching of [{2 * n}]")
            # _num keeps a rational coefficient exact, so a nonzero one stays nonzero
            row[k] = c if c.__class__ is int else _num(c)
        return PfaffinantFunctional(n, tuple(row))

    def terms(self, A: SkewArray) -> list:
        """(pi, c, pf_pi(A)) per matching pi of the support, in row order.

        Each pf_pi(A) is built once per array: it is kept in the array's
        memo ``A.monomials``, shared by every functional evaluated on A."""
        if A.size != 2 * self.n:
            raise ValueError(f"array size {A.size} does not match n={self.n}")
        memo = A.monomials
        coeffs = self.coefficients
        for pi in coeffs:
            if pi not in memo:
                memo[pi] = monomial_pfaffian(A, pi)
        return [(pi, c, memo[pi]) for pi, c in coeffs.items()]

    def evaluate(self, A: SkewArray) -> Poly:
        """The ``poly_sum`` of c * pf_pi(A) over the support."""
        return poly_sum((c, pf) for _, c, pf in self.terms(A))


@lru_cache(maxsize=None)
def f_tables(n: int) -> dict:
    """The uncrossing table of every matching of [2n], diagram -> weight:
    ``uncross.rank_tables(n)`` with each rank read back as its diagram,
    built once per n in a process; every caller shares the returned dicts
    and must not change them."""
    diagrams = enumerate_sym_tl(n)
    return {pi: {diagrams[r]: w for r, w in enumerate(table) if w is not None}
            for pi, table in zip(enumerate_matchings(n), rank_tables(n))}


@lru_cache(maxsize=None)
def _diagram_rows(n: int) -> list:
    """Diagram rank -> row: its weight in the uncrossing table of each
    matching of [2n], in ``enumerate_matchings(n)`` order, 0 where the
    table does not reach it.  One transpose of ``rank_tables(n)``."""
    return [tuple([w or 0 for w in column]) for column in zip(*rank_tables(n))]


@lru_cache(maxsize=None)
def diagram_functional(D: SymTLDiagram) -> PfaffinantFunctional:
    """The functional of D's uncrossing weights, memoised per diagram; its
    row is D's entry of ``_diagram_rows``."""
    return PfaffinantFunctional(D.n, _diagram_rows(D.n)[diagram_ranks(D.n)[D.vertical_left]])


def _column_sum(rows) -> tuple:
    return tuple(map(sum, zip(*rows)))


@lru_cache(maxsize=None)
def _matching_columns(n: int) -> dict:
    """Matching of [2n] -> its position in a row."""
    return {pi: k for k, pi in enumerate(enumerate_matchings(n))}


def diagram_pfaffinant(D: SymTLDiagram, A: SkewArray) -> Poly:
    """Uncrossing-weighted sum over matchings for a single diagram."""
    return diagram_functional(D).evaluate(A)


@lru_cache(maxsize=None)
def tl_functional(D: SymTLDiagram) -> PfaffinantFunctional:
    """The sum of the diagram functionals over D's removal closure, the
    column sum of their rows, memoised per diagram."""
    if not D.is_even:
        raise UsageError(f"TL pfaffinant requires an even diagram, got {D}")
    return PfaffinantFunctional(D.n, _column_sum(diagram_functional(Dp).row
                                                 for Dp in removal_closure(D)))


def tl_pfaffinant(D: SymTLDiagram, A: SkewArray) -> Poly:
    """Sum of diagram pfaffinants over the odd-edge removal closure of D."""
    return tl_functional(D).evaluate(A)


def complementary_functional(n: int, I) -> PfaffinantFunctional:
    """pf_I * pf_Ibar as a functional on the matchings of [2n]."""
    return PfaffinantFunctional(n, _complementary_row(n, I))


def _complementary_row(n: int, I) -> tuple:
    """The row of pf_I * pf_Ibar.

    Its terms are sgn(sigma) * sgn(tau) for the matching sigma(I) u tau(Ibar),
    where sigma runs over the matchings of [|I|] and tau over those of
    [|Ibar|], each relabelled onto the sorted points of its side.  The
    relabelling keeps the order, hence the crossing number, so a matching
    whose every pair lies inside I or inside Ibar has the coefficient
    (-1)^(cr(pi|I) + cr(pi|Ibar)); every other one has 0."""
    I = frozenset(I)
    if len(I) % 2:
        raise OddSubsetError(f"complementary pfaffian needs an even subset, got {sorted(I)}")
    check_points(I, n)
    inside = _relabelled(sorted(I))
    outside = _relabelled([p for p in range(1, 2 * n + 1) if p not in I])
    columns = _matching_columns(n)
    row = [0] * len(columns)
    for s, c in inside:
        for t, d in outside:
            row[columns[s | t]] = c * d
    return tuple(row)


@lru_cache(maxsize=None)
def _signed_base(r: int) -> tuple:
    """(pi, (-1)^crossing_number(pi)) per matching pi of [2r]."""
    return tuple((pi, -1 if crossing_number(pi) % 2 else 1) for pi in enumerate_matchings(r))


def _relabelled(points: list) -> list:
    """(matching, sign) per matching of the sorted ``points``: the signed
    base list of their size, each position i replaced by the i-th point."""
    at = (None, *points)
    return [(frozenset([(at[p], at[q]) for p, q in pi]), c)
            for pi, c in _signed_base(len(points) // 2)]


def _require_symbolic(A: SkewArray) -> None:
    """Coefficients decide an identity only on the generic array, where
    distinct matchings give distinct monomials; the array decides that once."""
    if not A.is_generic():
        raise UsageError(f"the identity is checked on SkewArray.symbolic({A.size}) only")


def _require_same(lhs: PfaffinantFunctional, rhs: PfaffinantFunctional, A: SkewArray,
                  what: str) -> None:
    """Compare two functionals matching by matching on the generic array A;
    a mismatch is reported as ``_require_equal`` reports their evaluations."""
    if lhs.row != rhs.row:
        _require_equal(lhs.evaluate(A), rhs.evaluate(A), what)


def _check_decomposition(A: SkewArray, I, diagrams_of, functional, what: str) -> None:
    """pf_I * pf_Ibar against the sum over ``diagrams_of(I, n)``: the column
    sum of the rows of their memoised functionals against the complementary
    row.  Only a mismatch wraps both rows as functionals, which
    ``_require_same`` reports."""
    _require_symbolic(A)
    n = A.size // 2
    want = _complementary_row(n, I)
    summed = _column_sum(functional(D).row for D in diagrams_of(I, n))
    if summed != want:
        _require_same(PfaffinantFunctional(n, want), PfaffinantFunctional(n, summed), A,
                      f"{what} at I={sorted(I)}")


def verify_diagram_decomposition(A: SkewArray, I, seed: int = 0) -> dict:
    """pf_I * pf_Ibar equals the sum of diagram pfaffinants over compatible
    diagrams.  The seed selects nothing; it stays because perfbench passes
    it positionally."""
    _check_decomposition(A, I, compatible_diagrams, diagram_functional, "diagram decomposition")
    return {"identity": "diagram-decomposition", "I": sorted(I), "ok": True}


def verify_tl_decomposition(A: SkewArray, I, seed: int = 0) -> dict:
    """pf_I * pf_Ibar equals the sum of TL pfaffinants over I-maximal
    diagrams.  The seed selects nothing; it stays because perfbench passes
    it positionally."""
    _check_decomposition(A, I, i_maximal_diagrams, tl_functional, "TL decomposition")
    return {"identity": "tl-decomposition", "I": sorted(I), "ok": True}


def even_subsets(size: int):
    for r in range(0, size + 1, 2):
        yield from (frozenset(c) for c in combinations(range(1, size + 1), r))


def transition_matrix(n: int) -> tuple:
    """0/1 matrix of I-maximal membership, standard partitions x even diagrams.

    Rows and columns are sorted with larger index sets first, which makes
    the matrix upper triangular with unit diagonal.
    """
    diagrams = sorted(enumerate_sym_tl_even(n), key=diagram_order_key, reverse=True)
    rows = [standard_partition(D) for D in diagrams]
    mat = []
    for I, _ in rows:
        maximal = i_maximal_diagrams(I, n)
        mat.append([1 if D in maximal else 0 for D in diagrams])
    for r in range(len(mat)):
        if mat[r][r] != 1 or any(mat[r][c] for c in range(r)):
            raise VerificationError(f"transition matrix is not unit upper triangular at row {r}")
    return rows, diagrams, mat


def certify_basis(n: int, seed: int = 0) -> dict:
    """Ranks of the TL pfaffinants and of the distinct complementary pfaffians.

    pf_I * pf_Ibar = pf_Ibar * pf_I, so only the 2^(2n-2) even I that hold 1
    are ranked, one of each complementary pair.  Both families are ranked
    as coefficient rows over the matchings, the rows of ``tl_functional``
    and of pf_I * pf_Ibar, and no polynomial is built.  Those ranks
    are the ranks of the polynomials: on the generic array distinct
    matchings give distinct monomials, so evaluation maps rows to
    polynomials one to one and linearly.  ``row_rank`` places every TL row
    by the triangular peel (the tests check this at n <= 5); for n >= 2
    the complementary rows stall it, since I = [2n] holds every matching,
    and are eliminated.  The seed selects nothing; it stays because
    perfbench passes it positionally."""
    tl = [_row_terms(tl_functional(D).row) for D in enumerate_sym_tl_even(n)]
    comp = [_row_terms(_complementary_row(n, I)) for I in even_subsets(2 * n) if 1 in I]
    return {
        "n": n,
        "tl_count": len(tl),
        "tl_rank": row_rank(tl),
        "complementary_rank": row_rank(comp),
    }


def _row_terms(row: tuple) -> dict:
    """A row's nonzero entries, keyed by column."""
    return {k: c for k, c in enumerate(row) if c}


# -- network positivity cone ---------------------------------------------------


@dataclass(frozen=True)
class ConeElement:
    """A rational combination of TL pfaffinants (even diagrams only)."""

    n: int
    tl_coeffs: dict  # even SymTLDiagram -> nonzero Fraction

    @staticmethod
    def from_dict(n: int, coeffs) -> "ConeElement":
        for D in coeffs:
            if not D.is_even:
                raise ValueError(f"cone elements use even diagrams only, got {D}")
            if D.n != n:
                raise ValueError(f"cone elements of n={n} take no diagram of n={D.n}, got {D}")
        return ConeElement(n, {D: Fraction(c) for D, c in coeffs.items() if c})

    def diagram_coeffs(self) -> dict:
        """Induced coefficients on all diagrams: c'(D') = sum over D with D' in S(D)."""
        out = {}
        for D, c in self.tl_coeffs.items():
            for Dp in removal_closure(D):
                out[Dp] = out.get(Dp, Fraction(0)) + c
        return out

    def functional(self) -> PfaffinantFunctional:
        """The combination of TL functionals: the weighted sum of their rows."""
        summed = _column_sum([c * t for t in tl_functional(D).row]
                             for D, c in self.tl_coeffs.items())
        return PfaffinantFunctional.from_dict(self.n, dict(zip(enumerate_matchings(self.n), summed)))

    def restrict(self, keep) -> "ConeElement":
        keep = set(keep)
        return ConeElement.from_dict(self.n, {D: c for D, c in self.tl_coeffs.items() if D in keep})


@dataclass(frozen=True)
class ConeVerdict:
    positive: bool
    witness: SymTLDiagram | None


def cone_membership(c: ConeElement) -> ConeVerdict:
    """Network positive iff every induced diagram coefficient is >= 0."""
    for D, v in sorted(c.diagram_coeffs().items(), key=lambda kv: diagram_order_key(kv[0])):
        if v < 0:
            return ConeVerdict(False, D)
    return ConeVerdict(True, None)


def decomposition_cone_element(I, n: int) -> ConeElement:
    """The TL-pfaffinant expansion (all coefficients 1) of pf_I * pf_Ibar."""
    return ConeElement.from_dict(n, {D: 1 for D in i_maximal_diagrams(I, n)})


def min_difference_element(I, n: int) -> ConeElement:
    """Expansion of pf over min(I, Ibar) minus pf over I."""
    if len(I) % 2:
        raise OddSubsetError(f"subset {sorted(I)} has odd cardinality")
    coeffs: dict = {}
    for D in i_maximal_diagrams(min_partition(I, 2 * n), n):
        coeffs[D] = coeffs.get(D, 0) + 1
    for D in i_maximal_diagrams(I, n):
        coeffs[D] = coeffs.get(D, 0) - 1
    return ConeElement.from_dict(n, coeffs)


def cone_elements(n: int, rng, combos: int):
    """(label, ConeElement) pairs of the standard network-positive cone elements.

    Yields the TL-pfaffinant unit vectors, the min-difference elements of
    every nonempty even I with |I| >= n (some of them are empty), and
    ``combos`` random nonnegative TL combinations drawn from ``rng``.
    """
    even = enumerate_sym_tl_even(n)
    for D in even:
        yield f"tl:{D.key()}", ConeElement.from_dict(n, {D: 1})
    for I in even_subsets(2 * n):
        if len(I) >= n and I:
            yield f"mindiff:{sorted(I)}", min_difference_element(I, n)
    for t in range(combos):
        yield f"random-{t}", ConeElement.from_dict(n, {D: rng.randrange(0, 3) for D in even})


def maximal_diagrams(n: int) -> frozenset:
    """Even diagrams to which no odd edge can be added.

    These are the maximal diagrams for the alternating subset {1, 3, ...}:
    every vertical edge joins opposite parities, so all diagrams are
    alternating-compatible (the subset itself has odd size when n is odd,
    which only bars it from pfaffian decompositions, not from maximality).
    """
    return maximal_among(enumerate_sym_tl(n))


def boolean_cone_check(s: int, parity: str, t) -> bool:
    """Nonnegativity of all upward subset sums on one parity class of levels.

    The vector ``t`` is indexed by the subsets of [s] whose size has the
    given parity, ordered by decreasing size then lexicographically.
    """
    if parity not in ("odd", "even"):
        raise ValueError(f"parity must be 'odd' or 'even', got {parity!r}")
    want = 1 if parity == "odd" else 0
    nodes = [frozenset(c) for r in range(s, -1, -1) if r % 2 == want
             for c in combinations(range(1, s + 1), r)]
    nodes.sort(key=lambda S: (-len(S), tuple(sorted(S))))
    if len(t) != len(nodes):
        raise ValueError(f"vector length {len(t)} does not match {len(nodes)} nodes")
    coeff = dict(zip(nodes, t))
    for r in range(s + 1):
        for sub in combinations(range(1, s + 1), r):
            sub = frozenset(sub)
            total = sum(c for S, c in coeff.items() if sub <= S)
            if total < 0:
                return False
    return True


def check_pfafprime_in_span(n: int) -> list:
    """Probe whether each diagram pfaffinant lies in the complementary-pfaffian span.

    The span is that of the 2^(2n-2) distinct products pf_I * pf_Ibar, one
    per complementary pair (the I that hold 1), as in ``certify_basis``; a
    row's coefficients are given on those products, in ``even_subsets``
    order."""
    A = SkewArray.symbolic(2 * n)
    gens = [complementary_functional(n, I).evaluate(A) for I in even_subsets(2 * n) if 1 in I]
    out = []
    for D in enumerate_sym_tl(n):
        coeffs = express_in_span(diagram_functional(D).evaluate(A), gens)
        out.append({
            "diagram": D.key(),
            "in_span": coeffs is not None,
            "coefficients": None if coeffs is None else [str(c) for c in coeffs],
        })
    return out
