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
diagrams.  The TL row of an even diagram is the column sum of the rows
over its removal closure mask, built per rank the first time it is read
and shared by ``tl_functional(D)``; a cone element's functional is a
weighted sum of TL rows.  The decomposition identities (thm-2.6,
thm-2.12) are column sums over a bitmask of diagram ranks: the rows of
the diagrams compatible with I, or the TL rows of the I-maximal ones,
against the row of pf_I * pf_Ibar.  That row is built on integer pair
codes (each pair of [2n] is one bit, a matching's code the OR of its
pairs' bits): one signed list per size, the matchings of [2r] with their
crossing-parity signs, is read onto the sorted points of I and of Ibar,
and each product of the two sides sets the column of the OR of their
codes.  No diagram is hashed on this path.
Only when the rows differ are both sides evaluated, to report the first
differing monomial.  ``certify_basis`` (thm-2.17) ranks the rows, not
the polynomials (evaluation on the generic array maps rows to
polynomials one to one), and runs no elimination: the TL rank is a
triangular peel of the TL rows' supports, and the complementary rank
equals it once two premises hold, each checked and raising
VerificationError when it fails: every complementary row is the sum of
the TL rows of its I-maximal diagrams (thm-2.12), and the I-maximal
masks of the standard partitions are unit triangular (prop-2.16, the
rank-mask check ``transition_matrix`` decodes).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, compress, count

from .diagrams import (OddSubsetError, SymTLDiagram, check_points, closure_masks,
                       compatible_mask, crossing_number, diagram_order_key, diagram_ranks,
                       enumerate_matchings, enumerate_sym_tl, enumerate_sym_tl_even, i_set,
                       i_maximal_diagrams, i_maximal_mask, mask_diagrams, maximal_mask,
                       ranks_of, removal_closure, standard_partition)
from .pfaffian import SkewArray, min_partition, monomial_pfaffian
from .poly import Poly, UsageError, _num, _peel, express_in_span, poly_sum, row_rank
from .uncross import rank_tables


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
    """The sum of the diagram functionals over D's removal closure,
    memoised per diagram; its row is ``_tl_row`` of D's rank."""
    if not D.is_even:
        raise UsageError(f"TL pfaffinant requires an even diagram, got {D}")
    return PfaffinantFunctional(D.n, _tl_row(D.n, diagram_ranks(D.n)[D.vertical_left]))


@lru_cache(maxsize=None)
def _tl_row(n: int, r: int) -> tuple:
    """The TL row of the even diagram of rank r: the column sum of the
    diagram rows over its removal closure, built the first time it is read."""
    rows = _diagram_rows(n)
    return _column_sum(rows[s] for s in ranks_of(closure_masks(n)[r]))


def _diagram_row(n: int, r: int) -> tuple:
    return _diagram_rows(n)[r]


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
    (-1)^(cr(pi|I) + cr(pi|Ibar)); every other one has 0.  The two sides
    hold disjoint pairs, so the code of their union is the OR of theirs."""
    I = frozenset(I)
    if len(I) % 2:
        raise OddSubsetError(f"complementary pfaffian needs an even subset, got {sorted(I)}")
    check_points(I, n)
    bits = _pair_bits(n)
    inside = _signed_codes(sorted(I), bits)
    outside = _signed_codes([p for p in range(1, 2 * n + 1) if p not in I], bits)
    columns = _code_columns(n)
    row = [0] * len(columns)
    for a, s in inside:
        for b, t in outside:
            row[columns[a | b]] = s * t
    return tuple(row)


@lru_cache(maxsize=None)
def _pair_bits(n: int) -> list:
    """``bits[p][q]``: the bit of the pair (p, q) of [2n], p < q.  A
    matching's code is the OR of its pairs' bits."""
    bits = [[0] * (2 * n + 1) for _ in range(2 * n + 1)]
    for k, (p, q) in enumerate(combinations(range(1, 2 * n + 1), 2)):
        bits[p][q] = 1 << k
    return bits


@lru_cache(maxsize=None)
def _code_columns(n: int) -> dict:
    """A matching's code -> its column, the matching's position in a row."""
    bits = _pair_bits(n)
    return {sum(bits[p][q] for p, q in pi): k for k, pi in enumerate(enumerate_matchings(n))}


@lru_cache(maxsize=None)
def _signed_base(r: int) -> tuple:
    """(pi, (-1)^crossing_number(pi)) per matching pi of [2r]."""
    return tuple((pi, -1 if crossing_number(pi) % 2 else 1) for pi in enumerate_matchings(r))


def _signed_codes(points: list, bits: list) -> list:
    """(code, sign) per matching of the sorted ``points``: the signed base
    list of their size, each position i read as the i-th point."""
    at = (None, *points)
    return [(sum(bits[at[p]][at[q]] for p, q in pi), c)
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


def _check_decomposition(A: SkewArray, I: frozenset, mask_of, row_of, what: str) -> None:
    """``_check_rows`` on the generic array A only."""
    _require_symbolic(A)
    _check_rows(A.size // 2, I, mask_of, row_of, what)


def _check_rows(n: int, I: frozenset, mask_of, row_of, what: str) -> None:
    """pf_I * pf_Ibar against the sum over the diagram ranks of the bitmask
    ``mask_of(I, n)``: the column sum of their rows ``row_of(n, r)``
    against the complementary row.  Only a mismatch wraps both rows as
    functionals, which ``_require_same`` reports on the generic array."""
    want = _complementary_row(n, I)
    summed = _column_sum([row_of(n, r) for r in ranks_of(mask_of(I, n))])
    if summed != want:
        _require_same(PfaffinantFunctional(n, want), PfaffinantFunctional(n, summed),
                      SkewArray.symbolic(2 * n), f"{what} at I={sorted(I)}")


def verify_diagram_decomposition(A: SkewArray, I, seed: int = 0) -> dict:
    """pf_I * pf_Ibar equals the sum of diagram pfaffinants over compatible
    diagrams; the report names the set of points checked.  The seed selects
    nothing; it stays because perfbench passes it positionally."""
    I = frozenset(I)
    _check_decomposition(A, I, compatible_mask, _diagram_row, "diagram decomposition")
    return {"identity": "diagram-decomposition", "I": sorted(I), "ok": True}


def verify_tl_decomposition(A: SkewArray, I, seed: int = 0) -> dict:
    """pf_I * pf_Ibar equals the sum of TL pfaffinants over I-maximal
    diagrams; the report names the set of points checked.  The seed selects
    nothing; it stays because perfbench passes it positionally."""
    I = frozenset(I)
    _check_decomposition(A, I, i_maximal_mask, _tl_row, "TL decomposition")
    return {"identity": "tl-decomposition", "I": sorted(I), "ok": True}


def even_subsets(size: int):
    for r in range(0, size + 1, 2):
        yield from (frozenset(c) for c in combinations(range(1, size + 1), r))


def _standard_masks(n: int) -> list:
    """(rank, I, mask) per even diagram D of [2n], largest rank first: D's
    standard partition I = I(D) and the bitmask of its I-maximal diagrams.

    prop-2.16: each mask holds D's own rank and no larger one, so these
    masks, read as a 0/1 matrix over the even ranks, are unit triangular.
    A row that breaks this raises VerificationError with its position."""
    rows = []
    for r, D in reversed(list(enumerate(enumerate_sym_tl(n)))):
        if not D.is_even:
            continue
        I = i_set(D)
        mask = i_maximal_mask(I, n)
        if not mask >> r & 1 or mask >> r + 1:
            raise VerificationError(f"transition matrix is not unit upper triangular at row {len(rows)}")
        rows.append((r, I, mask))
    return rows


def transition_matrix(n: int) -> tuple:
    """0/1 matrix of I-maximal membership, standard partitions x even diagrams.

    Rows and columns are sorted with larger index sets first, which makes
    the matrix upper triangular with unit diagonal: ``_standard_masks``
    decoded, which raises VerificationError unless it is.
    """
    standard = _standard_masks(n)
    diagrams = [enumerate_sym_tl(n)[r] for r, _, _ in standard]
    mat = [[mask >> r & 1 for r, _, _ in standard] for _, _, mask in standard]
    return [standard_partition(D) for D in diagrams], diagrams, mat


def certify_basis(n: int, seed: int = 0) -> dict:
    """Ranks of the TL pfaffinants and of the distinct complementary pfaffians.

    pf_I * pf_Ibar = pf_Ibar * pf_I, so the complementary family is the
    2^(2n-2) even I that hold 1, one of each complementary pair.  Both
    families are ranked as coefficient rows over the matchings, the rows
    of ``tl_functional`` and of pf_I * pf_Ibar, and no polynomial is built:
    on the generic array distinct matchings give distinct monomials, so
    evaluation maps rows to polynomials one to one and linearly.

    No elimination runs.  The TL rank is the number of TL rows when the
    triangular peel places all their supports (``_tl_rank``).  The
    complementary rank equals it by the paper's argument, once two
    premises are checked, (b) first:

    (a) thm-2.12 on rows, one I of the family at a time: the complementary
        row is the sum of the TL rows of the I-maximal diagrams, so every
        complementary row lies in the TL span;
    (b) prop-2.16 on rank masks (``_standard_masks``): the I-maximal masks
        of the standard partitions are unit triangular over the even
        ranks, and every standard partition is in the family.  By (a) the
        standard rows are that triangular matrix times the TL rows, so
        they span the TL span.

    A failing premise raises VerificationError: (a) names the I and the
    first differing monomial, (b) the row of the transition matrix or the
    standard partition missing from the family.  The seed selects
    nothing; it stays because perfbench passes it positionally.  An n
    below 1 raises UsageError."""
    if n < 1:
        raise UsageError(f"certify_basis needs a positive n, got {n}")
    standard = _standard_masks(n)
    tl_rank = _tl_rank([_tl_row(n, r) for r, _, _ in standard])
    family = [I for I in even_subsets(2 * n) if 1 in I]
    held = set(family)
    for _, I, _ in standard:
        if I not in held:
            raise VerificationError(f"standard partition I={sorted(I)} is not in the complementary family")
    for I in family:
        _check_rows(n, I, i_maximal_mask, _tl_row, "TL decomposition")
    return {"n": n, "tl_count": len(standard), "tl_rank": tl_rank, "complementary_rank": tl_rank}


def _tl_rank(rows: list) -> int:
    """The rank of the coefficient rows ``rows``: their number when the
    triangular peel places every row's support, else ``row_rank`` of their
    term dicts, which falls back to the echelon."""
    if _peel([list(compress(count(), row)) for row in rows]) == len(rows):
        return len(rows)
    return row_rank([_row_terms(row) for row in rows])


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
    return mask_diagrams(maximal_mask((1 << len(enumerate_sym_tl(n))) - 1, n), n)


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
