"""Temperley-Lieb immanants and their relations to TL pfaffinants.

f_d(w), the coefficient of the TL diagram d in the TL immanant, is the
coefficient of d in the image of w under s_i -> t_i - 1 in TL_n(2)
(Rhoades-Skandera).  So it comes from the uncrossing recursion's kernel:
a table is a tuple of weights indexed by TL rank (the index in
``enumerate_tl(n)``), and multiplying by s_i is ``uncross.generator_step``
with the cup-cap V_i of ``uncross.tl_cup_cap_ranks``, 2^loops V_i(D) - D.
In the labels of a TL diagram the wiring diagram's crossing at height s
joins the points (2n-s, 2n+1-s), and the identity is the diagram
(1,2n)(2,2n-1)...(n,n+1).  ``_walk`` visits S_n depth first by inserting
the value m at a position k <= m, which multiplies on the right by
s_{m-1}...s_k: the table at position k is the one at k+1 times s_k, so
the walk takes n! - 1 steps and holds one table per level.
``tl_immanants`` and ``tl_immanant_coefficients`` both read its tables.
The tests keep the fold of a bubble-sort word over partial planar
matchings as the oracle.
"""

from __future__ import annotations

from functools import lru_cache

from .diagrams import TLDiagram, enumerate_sym_tl_even, enumerate_tl, removal_closure, tl_diagram
from .pfaffian import GeneralMatrix, SkewArray, minor, skew_to_matrix
from .pfaffinants import _require_equal, tl_pfaffinant
from .poly import Poly, a, express_in_span, poly_prod, poly_sum
from .uncross import g_tilde_coefficient, generator_step, tl_cup_cap_ranks


def _walk(n: int):
    """(w, table) for every permutation w of 1..n in one-line notation,
    depth first; the table holds f_d(w) at the rank of each d, None where
    no uncrossing reaches d."""
    caps = tl_cup_cap_ranks(n)
    diagrams = enumerate_tl(n)
    start = [None] * len(diagrams)
    start[diagrams.index(tl_diagram(n, [(i, 2 * n + 1 - i) for i in range(1, n + 1)]))] = 1

    def insert(w, table, m):
        if m > n:
            yield tuple(w), table
            return
        for k in range(m, 0, -1):
            if k < m:
                table = generator_step(table, caps[2 * n - k])
            yield from insert(w[:k - 1] + [m] + w[k - 1:], table, m + 1)

    return insert([], tuple(start), 1)


def tl_immanant_coefficients(w) -> dict:
    """f_d(w) for every TL diagram d with f_d(w) != 0, from the walk's table for w."""
    w = tuple(w)
    table = next(table for v, table in _walk(len(w)) if v == w)
    return {d: c for d, c in zip(enumerate_tl(len(w)), table) if c}


def tl_immanants(B: GeneralMatrix) -> dict:
    """All TL immanants of a square matrix at once."""
    n = B.nrows
    if n != B.ncols:
        raise ValueError("TL immanants need a square matrix")
    diagrams = enumerate_tl(n)
    pairs = [[] for _ in diagrams]
    for w, table in _walk(n):
        mono = poly_prod(B.entry(i, w[i - 1]) for i in range(1, n + 1))
        if mono.is_zero():
            continue
        for ps, c in zip(pairs, table):
            if c:
                ps.append((c, mono))
    return {d: poly_sum(ps) for d, ps in zip(diagrams, pairs)}


def tl_immanant(d: TLDiagram, B: GeneralMatrix) -> Poly:
    return tl_immanants(B).get(d, Poly.zero())


def compatible_tl_diagrams(S, n: int) -> list:
    """TL diagrams whose every edge joins an S-point to a non-S-point."""
    S = set(S)
    return [d for d in enumerate_tl(n) if all((u in S) != (v in S) for u, v in d.edges)]


def verify_imm_decomposition(n: int, I, J) -> dict:
    """Product of complementary minors of the generic n x n matrix equals the
    sum of compatible TL immanants."""
    _, B, imms = block_immanants(n)
    I, J = sorted(I), sorted(J)
    if len(I) != len(J):
        raise ValueError("minor index sets must have equal size")
    Ibar = [p for p in range(1, n + 1) if p not in set(I)]
    Jbar = [p for p in range(1, n + 1) if p not in set(J)]
    S = set(J) | {2 * n + 1 - i for i in range(1, n + 1) if i not in set(I)}
    lhs = minor(B, I, J) * minor(B, Ibar, Jbar)
    rhs = poly_sum((1, imms[d]) for d in compatible_tl_diagrams(S, n))
    _require_equal(lhs, rhs, f"minor decomposition at I={I}, J={J}")
    return {"identity": "imm-decomposition", "I": I, "J": J, "ok": True}


def block_pair(n: int) -> tuple:
    """The skew array with zero diagonal blocks and its upper-right block B,
    the generic n x n matrix with entry (i, j) the variable a[i, n+j]."""
    A = SkewArray.block_symbolic(n)
    B = GeneralMatrix([[A.entry(i, n + j) for j in range(1, n + 1)] for i in range(1, n + 1)])
    return A, B


@lru_cache(maxsize=None)
def block_immanants(n: int) -> tuple:
    """(A, B, tl_immanants(B)) for ``block_pair(n)``, built once per n per
    process; every caller shares them and must not change them."""
    A, B = block_pair(n)
    return A, B, tl_immanants(B)


@lru_cache(maxsize=None)
def _g_tilde_tables(n: int) -> dict:
    """g-tilde table of every TL diagram of [2n], built once per n per process."""
    return {d: g_tilde_coefficient(d, n) for d in enumerate_tl(n)}


def verify_pfaffinant_immanant_bridge(n: int, D) -> dict:
    """The TL pfaffinant of the even diagram D on the block array expands
    over TL immanants of the block."""
    A, _, imms = block_immanants(n)
    g_tilde = _g_tilde_tables(n)
    lhs = tl_pfaffinant(D, A)
    rhs = poly_sum((g_tilde[d].get(Dp, 0), imm)
                   for Dp in removal_closure(D) for d, imm in imms.items())
    _require_equal(lhs, rhs, f"pfaffinant-immanant bridge for {D.key()}")
    return {"identity": "pfaffinant-immanant-bridge", "n": n, "diagram": D.key(), "ok": True}


# -- quadratic relations for a generic skew-symmetric 4x4 array -------------------


def reference_tl_values_n2() -> dict:
    """The three even-diagram functionals of a generic 4x4 skew array, in the
    single-removal closure variant (only one odd edge erased at a time); this
    differs from tl_pfaffinant for V[(1,2)(3,4)], whose iterated closure also
    reaches the empty diagram."""
    A = lambda i, j: Poly.var(a(i, j))
    return {
        "V[]": A(1, 2) * A(3, 4) + A(1, 4) * A(2, 3) - A(1, 3) * A(2, 4),
        "V[(2,3)(1,4)]": A(1, 3) * A(2, 4) - A(1, 4) * A(2, 3),
        "V[(1,2)(3,4)]": A(1, 3) * A(2, 4) - A(1, 2) * A(3, 4),
    }


def quadratic_relation_table() -> list:
    """Expand each TL immanant of a generic skew 4x4 array over the degree-two
    products of the three n=2 TL functionals (L, M, N) of
    ``reference_tl_values_n2``."""
    vals = reference_tl_values_n2()
    L, M, N = vals["V[]"], vals["V[(2,3)(1,4)]"], vals["V[(1,2)(3,4)]"]
    products = [L * L, L * M, L * N, M * M, M * N, N * N]
    labels = ["L^2", "L*M", "L*N", "M^2", "M*N", "N^2"]
    imms = tl_immanants(skew_to_matrix(SkewArray.symbolic(4)))
    rows = []
    for d in sorted(imms, key=lambda d: sorted(d.edges)):
        coeffs = express_in_span(imms[d], products)
        rows.append({
            "diagram": d.key(),
            "in_span": coeffs is not None,
            "coefficients": None if coeffs is None else dict(zip(labels, coeffs)),
        })
    return rows


def non_span_witness() -> dict:
    """The 12-point TL immanant that escapes the span of pfaffinant products."""
    d = tl_diagram(6, [(2, 3), (4, 5), (6, 7), (8, 9), (10, 11), (1, 12)])
    A = SkewArray.symbolic(6)
    target = tl_immanants(skew_to_matrix(A))[d]
    gens = [tl_pfaffinant(D, A) for D in enumerate_sym_tl_even(3)]
    products = [gens[i] * gens[j] for i in range(len(gens)) for j in range(i, len(gens))]
    coeffs = express_in_span(target, products)
    return {"diagram": d.key(), "in_span": coeffs is not None}
