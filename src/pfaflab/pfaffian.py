"""Pfaffians, sub-pfaffians, complementary pfaffians and exact minors."""

from __future__ import annotations

from itertools import permutations

from .diagrams import OddSubsetError
from .poly import Poly, UsageError, a, poly_prod, poly_sum


class SkewArray:
    """Upper-triangular array of an even-size skew-symmetric matrix.

    Only entries (i, j) with i < j are stored; entry(j, i) = -entry(i, j)
    and entry(i, i) = 0 by convention.  The entries never change after
    construction, so the array keeps its memos for its whole lifetime:
    ``subpfaffians`` (sorted index tuple -> sub-pfaffian, filled by
    ``pfaffian``), ``monomials`` (matching -> monomial pfaffian, filled by
    ``PfaffinantFunctional.terms`` at the matchings where a functional's
    row is nonzero) and the verdict of ``is_generic``.
    """

    def __init__(self, size: int, entries: dict):
        if size % 2:
            raise ValueError(f"skew array size must be even, got {size}")
        self.size = size
        self.entries = {}
        for (i, j), val in entries.items():
            if not 1 <= i < j <= size:
                raise ValueError(f"bad entry index ({i},{j}) for size {size}")
            if not isinstance(val, Poly):
                val = Poly.const(val)
            if not val.is_zero():
                self.entries[(i, j)] = val
        self.subpfaffians = {(): Poly.const(1)}
        self.monomials = {}
        self._generic = None

    @staticmethod
    def symbolic(size: int) -> "SkewArray":
        """Generic array with entry(i,j) = a[i,j]."""
        return SkewArray(size, {(i, j): Poly.var(a(i, j))
                                for i in range(1, size + 1) for j in range(i + 1, size + 1)})

    @staticmethod
    def block_symbolic(n: int) -> "SkewArray":
        """Zero diagonal blocks; entry(i, n+j) = a[i, n+j] plays the (i,j) entry
        of a generic n x n matrix."""
        return SkewArray(2 * n, {(i, n + j): Poly.var(a(i, n + j))
                                 for i in range(1, n + 1) for j in range(1, n + 1)})

    def is_generic(self) -> bool:
        """Whether the entries are those of ``SkewArray.symbolic(size)``,
        where distinct matchings give distinct monomial pfaffians; compared
        entry by entry on the first call only."""
        if self._generic is None:
            self._generic = self.entries == SkewArray.symbolic(self.size).entries
        return self._generic

    def upper(self, i: int, j: int) -> Poly:
        return self.entries.get((i, j), Poly.zero())

    def entry(self, i: int, j: int) -> Poly:
        if i == j:
            return Poly.zero()
        if i < j:
            return self.upper(i, j)
        return -self.upper(j, i)


def monomial_pfaffian(A: SkewArray, pi) -> Poly:
    """pf_pi(A): the product of entries over the pairs of one matching."""
    return poly_prod(A.upper(i, j) for i, j in pi)


def pfaffian(A: SkewArray, I=None) -> Poly:
    """Sub-pfaffian over I (order-preserving relabeling); pf over [size] if I is None.

    Pf(S) = sum_t (-1)^(t-1) a[s_0, s_t] Pf(S - {s_0, s_t}), memoised on the
    array: every sub-pfaffian of A, whichever call asks for it first, is
    expanded once, so the pfaffians of all even I share one expansion.
    """
    if I is None:
        I = range(1, A.size + 1)
    I = sorted(I)
    if len(I) % 2:
        raise OddSubsetError(f"pfaffian needs an even index set, got {I}")
    if any(not 1 <= i <= A.size for i in I):
        raise UsageError(f"indices {I} out of range for size {A.size}")
    memo = A.subpfaffians

    def pf(S: tuple) -> Poly:
        if S not in memo:
            memo[S] = poly_sum((1 if t % 2 else -1, A.entries[S[0], j] * pf(S[1:t] + S[t + 1:]))
                               for t, j in enumerate(S[1:], 1) if (S[0], j) in A.entries)
        return memo[S]

    return pf(tuple(I))


def complementary_pfaffian(A: SkewArray, I) -> Poly:
    """pf_I(A) * pf_Ibar(A)."""
    I = sorted(I)
    if len(I) % 2:
        raise OddSubsetError(f"complementary pfaffian needs an even subset, got {I}")
    Ibar = [p for p in range(1, A.size + 1) if p not in set(I)]
    return pfaffian(A, I) * pfaffian(A, Ibar)


class GeneralMatrix:
    """Rectangular matrix of exact polynomials."""

    def __init__(self, rows):
        self.rows = [[v if isinstance(v, Poly) else Poly.const(v) for v in row] for row in rows]
        if len({len(r) for r in self.rows}) > 1:
            raise ValueError("ragged matrix")

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return len(self.rows[0]) if self.rows else 0

    def entry(self, i: int, j: int) -> Poly:
        return self.rows[i - 1][j - 1]


def determinant(M: GeneralMatrix) -> Poly:
    if M.nrows != M.ncols:
        raise ValueError(f"determinant of a {M.nrows}x{M.ncols} matrix")
    n = M.nrows
    return poly_sum((_perm_sign(perm), poly_prod(M.rows[i][perm[i]] for i in range(n)))
                    for perm in permutations(range(n)))


def _perm_sign(perm) -> int:
    inv = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j])
    return -1 if inv % 2 else 1


def minor(M: GeneralMatrix, I, J) -> Poly:
    """Minor on row set I and column set J (1-based, |I| = |J|)."""
    I, J = sorted(I), sorted(J)
    if len(I) != len(J):
        raise ValueError(f"minor needs |I| = |J|, got {I}, {J}")
    if not I:
        return Poly.const(1)
    return determinant(GeneralMatrix([[M.entry(i, j) for j in J] for i in I]))


def skew_to_matrix(A: SkewArray) -> GeneralMatrix:
    return GeneralMatrix([[A.entry(i, j) for j in range(1, A.size + 1)]
                          for i in range(1, A.size + 1)])


def min_partition(I, size: int) -> frozenset:
    """Elementwise minimum of I and its complement (treating missing j as infinity)."""
    I = sorted(I)
    n = size // 2
    if len(I) % 2:
        raise OddSubsetError(f"min partition needs an even subset, got {I}")
    if len(I) < n:
        raise ValueError(f"min partition needs |I| >= {n}, got {I}")
    Ibar = [p for p in range(1, size + 1) if p not in set(I)]
    out = [min(i, j) for i, j in zip(I, Ibar)]
    out.extend(I[len(Ibar):])
    return frozenset(out)
