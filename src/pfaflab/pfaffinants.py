"""Diagram and TL pfaffinants, decomposition identities, and the positivity cone.

A pfaffinant is a ``PfaffinantFunctional``: a coefficient per matching pi
of [2n], evaluated on an array as the sum of c * pf_pi.  On the generic
array ``SkewArray.symbolic(2n)`` every monomial pfaffian pf_pi is its own
monomial, so two functionals evaluate to the same polynomial exactly when
their coefficients agree.

Each diagram D has a *row*: its weight in the uncrossing table of every
matching, a list of ints in ``enumerate_matchings(n)`` order.  The rows
are a list indexed by diagram rank, filled by one transpose of
``uncross.rank_tables(n)`` per n; ``f_tables(n)`` is the one view of
the tables keyed by diagrams.  A TL row is the column sum of the rows
over D's removal closure.  The diagram and TL functionals are read off
these rows, and a cone element's functional is a weighted sum of TL
rows.  The decomposition identities (thm-2.6, thm-2.12) are column sums:
the rows of the diagrams compatible with I, or the TL rows of the
I-maximal ones, summed and compared with the row of
``complementary_functional(n, I)``, the functional of pf_I * pf_Ibar.
That functional relabels one signed list per size, the matchings of
[2r] with their crossing-parity signs, onto the sorted points of I and
of Ibar and multiplies the two.  No polynomial is built unless the rows
differ; then the summed row, read back as a functional, reports the
first differing monomial.  ``certify_basis`` (thm-2.17) ranks the TL
rows and the complementary rows themselves: evaluation on the generic
array maps rows to polynomials one to one, so their ranks are the
polynomials' ranks.

A functional's ``coefficients`` (matching -> nonzero coefficient) and a
cone element's ``tl_coeffs`` (even diagram -> nonzero Fraction) are plain
dicts, ordered only where a witness is picked.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb

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
    """A finitely supported coefficient function on matchings of [2n]."""

    n: int
    coefficients: dict  # Matching -> nonzero int or Fraction

    @staticmethod
    def from_dict(n, coeffs) -> "PfaffinantFunctional":
        # _num keeps a rational coefficient exact, so a nonzero one stays nonzero
        return PfaffinantFunctional(n, {frozenset(pi): c if c.__class__ is int else _num(c)
                                        for pi, c in coeffs.items() if c})

    def evaluate(self, A: SkewArray) -> Poly:
        """The ``poly_sum`` of c * pf_pi(A) over the support.

        Each pf_pi(A) is built once per array: it is kept in the array's
        memo ``A.monomials``, shared by every functional evaluated on A."""
        if A.size != 2 * self.n:
            raise ValueError(f"array size {A.size} does not match n={self.n}")
        memo = A.monomials
        for pi in self.coefficients:
            if pi not in memo:
                memo[pi] = monomial_pfaffian(A, pi)
        return poly_sum((c, memo[pi]) for pi, c in self.coefficients.items())


@lru_cache(maxsize=None)
def f_tables(n: int) -> dict:
    """The uncrossing table of every matching of [2n], diagram -> weight:
    ``uncross.rank_tables(n)`` with each rank read back as its diagram,
    built once per n in a process; every caller shares the returned dicts
    and must not change them."""
    diagrams = enumerate_sym_tl(n)
    return {pi: {diagrams[r]: w for r, w in table.items()}
            for pi, table in zip(enumerate_matchings(n), rank_tables(n))}


@lru_cache(maxsize=None)
def diagram_functional(D: SymTLDiagram) -> PfaffinantFunctional:
    """The functional of D's uncrossing weights, memoised per diagram."""
    return _functional_of_row(D.n, _diagram_row(D))


def _diagram_row(D: SymTLDiagram) -> list:
    return _diagram_rows(D.n)[diagram_ranks(D.n)[D.vertical_left]]


@lru_cache(maxsize=None)
def _diagram_rows(n: int) -> list:
    """Diagram rank -> row: its weight in the uncrossing table of each
    matching of [2n], a list of ints in ``enumerate_matchings(n)`` order.
    One transpose of ``rank_tables(n)``; the rows are shared, do not
    change them."""
    tables = rank_tables(n)
    rows = [[0] * len(tables) for _ in range(comb(2 * n, n))]
    for k, table in enumerate(tables):
        for r, w in table.items():
            rows[r][k] = w
    return rows


@lru_cache(maxsize=None)
def _tl_row(D: SymTLDiagram) -> list:
    """The column sum of the diagram rows over D's removal closure."""
    if not D.is_even:
        raise UsageError(f"TL pfaffinant requires an even diagram, got {D}")
    return _column_sum(map(_diagram_row, removal_closure(D)))


def _column_sum(rows) -> list:
    return list(map(sum, zip(*rows)))


@lru_cache(maxsize=None)
def _matching_columns(n: int) -> dict:
    """Matching of [2n] -> its position in a row."""
    return {pi: k for k, pi in enumerate(enumerate_matchings(n))}


def _row_of(f: PfaffinantFunctional) -> list:
    """The coefficients of f laid out as a row."""
    columns = _matching_columns(f.n)
    row = [0] * len(columns)
    for pi, c in f.coefficients.items():
        row[columns[pi]] = c
    return row


def _functional_of_row(n: int, row: list) -> PfaffinantFunctional:
    return PfaffinantFunctional(n, {pi: c for pi, c in zip(enumerate_matchings(n), row) if c})


def diagram_pfaffinant(D: SymTLDiagram, A: SkewArray) -> Poly:
    """Uncrossing-weighted sum over matchings for a single diagram."""
    return diagram_functional(D).evaluate(A)


@lru_cache(maxsize=None)
def tl_functional(D: SymTLDiagram) -> PfaffinantFunctional:
    """The sum of the diagram functionals over D's removal closure,
    memoised per diagram."""
    return _functional_of_row(D.n, _tl_row(D))


def tl_pfaffinant(D: SymTLDiagram, A: SkewArray) -> Poly:
    """Sum of diagram pfaffinants over the odd-edge removal closure of D."""
    return tl_functional(D).evaluate(A)


def complementary_functional(n: int, I) -> PfaffinantFunctional:
    """pf_I * pf_Ibar as a functional on the matchings of [2n].

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
    return PfaffinantFunctional(n, {s | t: c * d for s, c in inside for t, d in outside})


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
    if lhs.coefficients != rhs.coefficients:
        _require_equal(lhs.evaluate(A), rhs.evaluate(A), what)


def _check_decomposition(A: SkewArray, I, diagrams_of, row_of, what: str) -> None:
    """pf_I * pf_Ibar against the sum over ``diagrams_of(I, n)``: the column
    sum of their rows against the complementary functional's row.  Only a
    mismatch turns the summed row into a functional, which ``_require_same``
    reports."""
    _require_symbolic(A)
    n = A.size // 2
    lhs = complementary_functional(n, I)
    summed = _column_sum(map(row_of, diagrams_of(I, n)))
    if _row_of(lhs) != summed:
        _require_same(lhs, _functional_of_row(n, summed), A, f"{what} at I={sorted(I)}")


def verify_diagram_decomposition(A: SkewArray, I, seed: int = 0) -> dict:
    """pf_I * pf_Ibar equals the sum of diagram pfaffinants over compatible
    diagrams.  The seed selects nothing; it stays because perfbench passes
    it positionally."""
    _check_decomposition(A, I, compatible_diagrams, _diagram_row, "diagram decomposition")
    return {"identity": "diagram-decomposition", "I": sorted(I), "ok": True}


def verify_tl_decomposition(A: SkewArray, I, seed: int = 0) -> dict:
    """pf_I * pf_Ibar equals the sum of TL pfaffinants over I-maximal
    diagrams.  The seed selects nothing; it stays because perfbench passes
    it positionally."""
    _check_decomposition(A, I, i_maximal_diagrams, _tl_row, "TL decomposition")
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
    as coefficient rows over the matchings, ``_tl_row`` and the row of
    ``complementary_functional``, and no polynomial is built.  Those ranks
    are the ranks of the polynomials: on the generic array distinct
    matchings give distinct monomials, so evaluation maps rows to
    polynomials one to one and linearly.  ``row_rank`` places every TL row
    by the triangular peel (the tests check this at n <= 5); for n >= 2
    the complementary rows stall it, since I = [2n] holds every matching,
    and are eliminated.  The seed selects nothing; it stays because
    perfbench passes it positionally."""
    tl = [_row_terms(_tl_row(D)) for D in enumerate_sym_tl_even(n)]
    comp = [_row_terms(_row_of(complementary_functional(n, I)))
            for I in even_subsets(2 * n) if 1 in I]
    return {
        "n": n,
        "tl_count": len(tl),
        "tl_rank": row_rank(tl),
        "complementary_rank": row_rank(comp),
    }


def _row_terms(row: list) -> dict:
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
        odd = [D for D in coeffs if not D.is_even]
        if odd:
            raise ValueError(f"cone elements use even diagrams only, got {odd[0]}")
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
        summed = _column_sum([c * t for t in _tl_row(D)] for D, c in self.tl_coeffs.items())
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
