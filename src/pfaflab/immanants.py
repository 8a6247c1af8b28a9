"""Temperley-Lieb immanants and their relations to TL pfaffinants.

The coefficient of a permutation is computed by uncrossing its wiring
diagram crossing by crossing: the horizontal smoothing keeps both wires
going and contributes a sign, the vertical smoothing closes a cup and
opens a cap (a closed loop contributes a factor of 2).  Folding the
reduced word left to right with a dictionary of partial planar matchings
gives every diagram's coefficient in one sweep.  One reduced word per
permutation (bubble sort of its inverse) and one loop over permutations
(``tl_immanants``) serve every caller; the coefficients do not depend on
the word, which the tests check against a second word.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations

from .diagrams import TLDiagram, enumerate_sym_tl_even, enumerate_tl, removal_closure, tl_diagram
from .pfaffian import GeneralMatrix, SkewArray, minor, skew_to_matrix
from .pfaffinants import _require_equal, tl_pfaffinant
from .poly import Poly, a, express_in_span, poly_prod, poly_sum
from .uncross import g_tilde_coefficient


def inverse_permutation(w) -> tuple:
    inv = [0] * len(w)
    for i, wi in enumerate(w, start=1):
        inv[wi - 1] = i
    return tuple(inv)


def reduced_word(w) -> list:
    """Adjacent-transposition word from bubble sort (length = inversion count)."""
    v = list(w)
    word = []
    changed = True
    while changed:
        changed = False
        for i in range(len(v) - 1):
            if v[i] > v[i + 1]:
                v[i], v[i + 1] = v[i + 1], v[i]
                word.append(i + 1)
                changed = True
    return word


def _fold_word(word, n: int) -> dict:
    """Map each TL diagram to its total uncrossing weight for this word.

    States are planar matchings on the n left boundary points (1..n) and
    the n current wavefront positions (n+1..2n); loops fold into the
    coefficient with a factor of 2, horizontal smoothings with -1.
    """
    init = frozenset((i, n + i) for i in range(1, n + 1))
    states = {init: 1}
    for s in word:
        lo, hi = n + s, n + s + 1
        nxt = {}
        for m, c in states.items():
            # horizontal smoothing: wires pass, sign flips
            nxt[m] = nxt.get(m, 0) - c
            # vertical smoothing: close (lo, hi), reopen them as a pair
            pa = next(p for p in m if lo in p)
            pb = next(p for p in m if hi in p)
            if pa == pb:
                nxt[m] = nxt.get(m, 0) + 2 * c
            else:
                (a1,) = set(pa) - {lo}
                (b1,) = set(pb) - {hi}
                m2 = (m - {pa, pb}) | {tuple(sorted((a1, b1))), (lo, hi)}
                nxt[m2] = nxt.get(m2, 0) + c
        states = {m: c for m, c in nxt.items() if c}
    out = {}
    for m, c in states.items():
        # wavefront position p becomes the right boundary label 2n+1-p
        edges = [tuple(sorted(3 * n + 1 - q if q > n else q for q in pair)) for pair in m]
        out[tl_diagram(n, edges)] = c
    return out


def wiring_word(w) -> list:
    """Crossing columns of a wiring diagram sending left point i to w(i).

    A column at height s swaps the wires currently at positions s, s+1, so
    the columns sorting the inverse permutation realize w.
    """
    return reduced_word(inverse_permutation(w))


def tl_immanant_coefficients(w) -> dict:
    """f_d(w) for every TL diagram d, via one wiring-diagram uncrossing sweep."""
    return _fold_word(wiring_word(w), len(w))


def tl_immanants(B: GeneralMatrix) -> dict:
    """All TL immanants of a square matrix at once."""
    n = B.nrows
    if n != B.ncols:
        raise ValueError("TL immanants need a square matrix")
    pairs = {d: [] for d in enumerate_tl(n)}
    for w in permutations(range(1, n + 1)):
        mono = poly_prod(B.entry(i, w[i - 1]) for i in range(1, n + 1))
        if mono.is_zero():
            continue
        for d, c in tl_immanant_coefficients(w).items():
            pairs[d].append((c, mono))
    return {d: poly_sum(ps) for d, ps in pairs.items()}


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
