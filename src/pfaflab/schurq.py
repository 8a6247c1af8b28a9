"""Schur Q-functions, Q-Jacobi-Trudi arrays, and the conjecture scanners.

All symmetric functions are truncated to k variables.  Strict partitions
of size at most d have at most ~sqrt(2d) parts, so any identity among
Schur Q-functions of degree <= d is faithfully decided with k at least
the maximal part count: the Q_lambda with l(lambda) <= k stay linearly
independent and the longer ones vanish identically.

``schur_q`` computes Q_{lam/mu}(x_1..x_k) by the one-variable branching
rule, memoised on (lam, mu, k), so every shape reached on the way down to
one variable is computed once.  It is the one algorithm for Q-functions:
the branching rule equals the sum over shifted tableaux, which the tests
enumerate one by one as its oracle, and the thm-5.2 check compares the
Q-Jacobi-Trudi pfaffian with it.  It is also the reference for the
scans, which keep each Q-function as its weakly decreasing part only.

A symmetric polynomial is determined by its coefficients on the monomial
symmetric functions m_nu, nu a partition with at most k parts: the
coefficients of its monomials with weakly decreasing exponents.  Every
difference that a scan classifies is symmetric, and the peel of
``expand_in_q_basis`` only ever takes a decreasing leading monomial
(Macdonald, Symmetric Functions and Hall Polynomials, III.8), so the
scans work in these coordinates: ``q_decreasing`` is the branching rule
kept to decreasing exponents, ``q_product`` multiplies two of them at the
partitions of the product's degree, and ``peel_decreasing`` is the peel.

The scanners do each piece of exact work once.  ``_record`` writes every
record: it classifies the difference and, when that is not positive,
reclassifies it in k + 1 variables.  con2 and con3 share ``_pair_scan``
over Q_t1 Q_t2 - Q_s1 Q_s2, with (t1, t2) the join and meet of the pair
(con2) or its sorted split (con3), built in m-coefficients; when both
sides have the same factors the record (zero difference, positive, empty
expansion) is written without multiplying anything.  con1 evaluates each
cone element, one summed functional per scan, in m-coefficients: a value
is linear in the array's monomial pfaffians pf_pi(A), each built once per
array in its memo and expanded once per array by ``monomial_expand``, so
the value is the sum of c * m(pf_pi(A)) over the element's support.  An
element whose support holds a pf_pi(A) that is not symmetric in
x_1..x_k, or that holds another variable, is evaluated as a Poly, which
``_record`` peels in full if it is not symmetric.  The recheck builds one
array in k + 1 variables per instance and every element shares it.
``expand_in_q_basis`` returns ``(coeffs, remainder)``, with ``coeffs`` a
plain dict, strict partition -> Fraction, ordered only when a record is
written.  The ``lru_cache`` memos (Q-functions, their decreasing parts
and the partitions of each degree) live for the process; every other
memo lives for one call or one array.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache, partial
from itertools import product
from math import factorial, prod

from .diagrams import enumerate_sym_tl, enumerate_sym_tl_even
from .pfaffian import SkewArray, complementary_pfaffian, min_partition, pfaffian
from .pfaffinants import (ConeElement, _require_equal, cone_elements, cone_membership,
                          diagram_functional, tl_functional)
from .poly import Poly, UsageError, _num, exponent_reader, express_in_span, power_key, x


def is_strict(parts) -> bool:
    parts = list(parts)
    return all(parts[i] > parts[i + 1] for i in range(len(parts) - 1)) and all(p > 0 for p in parts)


def strict_partitions(total: int) -> list:
    """All strict partitions of exactly `total` (decreasing tuples)."""
    out = []

    def rec(remaining, maxpart, acc):
        if remaining == 0:
            out.append(tuple(acc))
            return
        for p in range(min(remaining, maxpart), 0, -1):
            rec(remaining - p, p - 1, acc + [p])

    rec(total, total, [])
    return out


def strict_subpartitions(lam) -> list:
    """All strict mu contained in lam (elementwise), including the empty one."""
    out = []

    def rec(i, prev, acc):
        out.append(tuple(acc))
        for p in range(min(lam[i], prev - 1), 0, -1) if i < len(lam) else []:
            rec(i + 1, p, acc + [p])

    rec(0, 10 ** 9, [])
    return sorted(set(out), reverse=True)


def shifted_cells(lam, mu=()) -> list:
    """Cells (row, col) of the shifted skew diagram; rows shifted by row index."""
    lam, mu = tuple(lam), tuple(mu)
    if not is_strict(lam) and lam:
        raise UsageError(f"outer shape {lam} is not strict")
    if mu and not all(mu[i] > mu[i + 1] for i in range(len(mu) - 1)):
        raise UsageError(f"inner shape {mu} is not strict")
    if len(mu) > len(lam) or any(m > l for m, l in zip(mu, lam)):
        raise UsageError(f"inner shape {mu} not contained in {lam}")
    cells = []
    for r, l in enumerate(lam, start=1):
        m = mu[r - 1] if r - 1 < len(mu) else 0
        cells.extend((r, c) for c in range(r + m, r + l))
    return cells


def _interlacing(lam, mu):
    """Strict nu with mu <= nu and lam_1 >= nu_1 >= lam_2 >= nu_2 >= ...; zero parts dropped."""
    below = lam[1:] + (0,)

    def rec(i, acc):
        if i == len(lam):
            yield tuple(p for p in acc if p)
            return
        lo = max(below[i], mu[i] if i < len(mu) else 0)
        for p in range(lo, lam[i] + 1):
            if p and acc and p == acc[-1]:
                continue  # nu must stay strict
            yield from rec(i + 1, acc + [p])

    yield from rec(0, [])


def _strip_components(lam, nu) -> int:
    """a(lam/nu): the edge-connected components of the shifted strip lam/nu.

    Row i of the unshifted strip holds columns nu_i+1..lam_i.  A nonempty row
    starts a new component unless the row above ends in column lam_i + 1,
    that is nu_{i-1} == lam_i; the shifted cells of the two rows then share
    a column.  Rows that only touch at a corner are separate components.
    """
    nu = nu + (0,) * (len(lam) - len(nu))
    return sum(1 for i in range(len(lam))
               if nu[i] < lam[i] and (i == 0 or nu[i - 1] != lam[i]))


@lru_cache(maxsize=None)
def schur_q(lam, mu, k: int) -> Poly:
    """Q_{lam/mu}(x_1..x_k) by the one-variable branching rule.

    Q_{lam/mu}(x_1..x_k) is the sum over the nu of ``_interlacing`` of
    Q_{nu/mu}(x_1..x_{k-1}) * 2^a(lam/nu) * x_k^(|lam|-|nu|)
    (Macdonald, Symmetric Functions and Hall Polynomials, III.8); with no
    variables left only nu == mu survives.  This is the weight generating
    function of the shifted tableaux of shape lam/mu in 1' < 1 < ... < k' < k.
    """
    if k < 1:
        raise UsageError("need at least one variable")
    shifted_cells(lam, mu)
    mu = tuple(p for p in mu if p)
    if lam == mu:
        return Poly.const(1)
    size = sum(lam)
    xk = x(k)
    terms: dict = {}
    for nu in _interlacing(lam, mu):
        if k > 1:
            inner = schur_q(nu, mu, k - 1).terms
        elif nu == mu:
            inner = {0: 1}
        else:
            continue
        weight = 2 ** _strip_components(lam, nu)
        # the inner monomials hold no x_k, so adding x_k^d to a key cannot overflow
        tail = power_key(xk, size - sum(nu))
        for m, c in inner.items():
            m += tail
            terms[m] = terms.get(m, 0) + weight * c
    return Poly.from_packed(terms)


@lru_cache(maxsize=None)
def q_decreasing(lam, mu, k: int) -> dict:
    """The weakly decreasing part of Q_{lam/mu}(x_1..x_k): its coefficients on
    the monomial symmetric functions m_nu, keyed by nu with zero parts
    dropped, as ``monomial_expand`` of ``schur_q`` gives them.

    The branching rule of ``schur_q`` kept to decreasing exponent vectors: an
    inner term of Q_{nu/mu}(x_1..x_{k-1}) is kept only where its last
    exponent, 0 past its parts, is at least x_k's exponent |lam| - |nu|.
    The returned dict is shared by the memo and must not be changed.
    """
    if k < 1:
        raise UsageError("need at least one variable")
    shifted_cells(lam, mu)
    mu = tuple(p for p in mu if p)
    if lam == mu:
        return {(): 1}
    size = sum(lam)
    out: dict = {}
    for nu in _interlacing(lam, mu):
        if k > 1:
            inner = q_decreasing(nu, mu, k - 1)
        elif nu == mu:
            inner = {(): 1}
        else:
            continue
        weight = 2 ** _strip_components(lam, nu)
        tail = size - sum(nu)
        for part, c in inner.items():
            if tail:
                if len(part) < k - 1 or part and part[-1] < tail:
                    continue
                part += (tail,)
            out[part] = out.get(part, 0) + weight * c
    return out


def one_row_q(r: int, k: int) -> Poly:
    """Q over a single row of length r; Q_0 = 1, negative lengths vanish."""
    if r < 0:
        return Poly.zero()
    if r == 0:
        return Poly.const(1)
    return schur_q((r,), (), k)


@lru_cache(maxsize=None)
def two_row_q(r: int, s: int, k: int) -> Poly:
    """Q over the (r, s) shape, extended antisymmetrically: Q_(s,r) = -Q_(r,s)."""
    if r == s:
        return Poly.zero()
    if r < s:
        return -two_row_q(s, r, k)
    if s == 0:
        return one_row_q(r, k)
    if s < 0 or r < 0:
        raise ValueError(f"two-row entries need nonnegative parts, got ({r},{s})")
    return schur_q((r, s), (), k)


def q_jt_matrix(lam, mu, k: int, allow_nonstrict: bool = False, reversed_h: bool = False) -> SkewArray:
    """Skew array [[A, H], [-H^t, 0]] whose pfaffian gives the skew Q-function.

    A has entries Q over two-row shapes of the parts of lam; H[i][j] is the
    one-row Q of lam_i - mu_{r+1-j} (or lam_i - mu_j with ``reversed_h``).
    lam is padded with one zero part if l + r is odd.
    """
    lam, mu = list(lam), list(mu)
    if not allow_nonstrict:
        if lam and not all(lam[i] > lam[i + 1] for i in range(len(lam) - 1)):
            raise ValueError(f"{lam} is not strict")
        if mu and not (all(mu[i] > mu[i + 1] for i in range(len(mu) - 1)) and mu[-1] >= 0):
            raise ValueError(f"{mu} is not strict")
    if any(p < 0 for p in lam) or any(p < 0 for p in mu):
        raise ValueError("negative parts are not allowed")
    if (len(lam) + len(mu)) % 2:
        lam = lam + [0]
    l, r = len(lam), len(mu)
    entries = {}
    for i in range(1, l + 1):
        for j in range(i + 1, l + 1):
            entries[(i, j)] = two_row_q(lam[i - 1], lam[j - 1], k)
        for j in range(1, r + 1):
            m = mu[j - 1] if reversed_h else mu[r - j]
            entries[(i, l + j)] = one_row_q(lam[i - 1] - m, k)
    return SkewArray(l + r, entries)


def q_from_pfaffian(lam, mu, k: int) -> Poly:
    return pfaffian(q_jt_matrix(lam, mu, k))


# -- expansions ---------------------------------------------------------------


def _x_exponents(k: int):
    """Maps a monomial key to its exponents of x_1..x_k, or to None if it
    holds any other variable."""
    return exponent_reader([x(i) for i in range(1, k + 1)])


def expand_in_q_basis(f: Poly, k: int) -> tuple:
    """(coeffs, remainder): peel off the lex-greatest monomial with a
    Q-function at each step.

    The leading monomial of Q_lambda is 2^l(lambda) x^lambda, so on the
    Q-span the loop terminates with zero remainder; otherwise the offending
    part is returned as the remainder.  ``coeffs`` maps each strict
    partition to its Fraction.
    """
    coeffs = {}
    rem = dict(f.terms)  # the remainder, updated in place
    read = _x_exponents(k)
    # the exponents of every monomial met so far; the peeled Q-functions hold
    # only x-monomials, so a monomial that is not one can only come from f
    exponents = {mono: read(mono) for mono in rem}
    if None in exponents.values():
        return {}, f
    while rem:
        mono = max(rem, key=exponents.__getitem__)
        lead = exponents[mono]
        lam = tuple(p for p in lead if p)
        if list(lead) != sorted(lead, reverse=True) or not is_strict(lam):
            return coeffs, Poly.from_packed(rem)
        c = Fraction(rem[mono], 2 ** len(lam))
        coeffs[lam] = coeffs.get(lam, Fraction(0)) + c
        c = _num(c)  # an integral c keeps the subtraction in int arithmetic
        for mono, q in schur_q(lam, (), k).terms.items():
            v = rem.get(mono, 0) - c * q
            if v:
                rem[mono] = v if v.__class__ is int else _num(v)
                if mono not in exponents:
                    exponents[mono] = read(mono)
            else:
                del rem[mono]
    return {l: c for l, c in coeffs.items() if c}, Poly.zero()


def monomial_expand(f: Poly, k: int) -> dict | None:
    """Coefficients on monomial symmetric functions, or None if not symmetric.

    Every exponent vector is a permutation of its sorted shape, so f is
    symmetric when each shape has as many monomials as its orbit and they
    share one coefficient.
    """
    by_shape = {}
    exponents = _x_exponents(k)
    for mono, c in f.terms.items():
        e = exponents(mono)
        if e is None:
            return None
        by_shape.setdefault(tuple(sorted(e, reverse=True)), []).append(c)
    out = {}
    for shape, coeffs in by_shape.items():
        orbit = factorial(len(shape)) // prod(map(factorial, Counter(shape).values()))
        if len(coeffs) != orbit or len(set(coeffs)) != 1:
            return None
        out[tuple(p for p in shape if p)] = coeffs[0]
    return out


def _shape(exponents) -> tuple:
    """The partition of an exponent vector: its nonzero entries, decreasing."""
    return tuple(sorted((e for e in exponents if e), reverse=True))


@lru_cache(maxsize=None)
def _partitions(total: int, k: int) -> tuple:
    """The partitions of total with at most k parts, zero parts dropped."""
    return tuple(tuple(p for p in parts if p) for parts in weakly_decreasing_parts(total, k)
                 if sum(parts) == total)


def q_product(s, t, k: int) -> dict:
    """The m-coefficients of Q_s * Q_t in k variables, for skew shapes (lam, mu).

    The coefficient at nu is the sum over the compositions a <= nu of size
    |s| of [x^a] Q_s * [x^(nu - a)] Q_t, and by symmetry each monomial's
    coefficient is that of its sorted exponents in ``q_decreasing``.
    """
    f, g = q_decreasing(*s, k), q_decreasing(*t, k)
    p = sum(s[0]) - sum(s[1])
    out = {}
    for nu in _partitions(p + sum(t[0]) - sum(t[1]), k):
        c = sum(f.get(_shape(a), 0) * g.get(_shape([e - d for d, e in zip(a, nu)]), 0)
                for a in product(*(range(e + 1) for e in nu)) if sum(a) == p)
        if c:
            out[nu] = c
    return out


def peel_decreasing(m: dict, k: int) -> tuple:
    """``expand_in_q_basis`` of a symmetric polynomial in k variables given by
    its m-coefficients: (coeffs, remainder), the remainder as m-coefficients.

    The lex-greatest monomial of a symmetric polynomial has weakly
    decreasing exponents, so the lead is the largest partition; a lead that
    is not strict leaves the Q-span.
    """
    coeffs = {}
    rem = dict(m)
    while rem:
        lam = max(rem)
        if not is_strict(lam):
            return coeffs, rem
        c = Fraction(rem[lam], 2 ** len(lam))
        coeffs[lam] = coeffs.get(lam, Fraction(0)) + c
        c = _num(c)  # an integral c keeps the subtraction in int arithmetic
        for nu, q in q_decreasing(lam, (), k).items():
            v = rem.get(nu, 0) - c * q
            if v:
                rem[nu] = v if v.__class__ is int else _num(v)
            else:
                del rem[nu]
    return {l: c for l, c in coeffs.items() if c}, {}


# -- lattice operations on shapes ----------------------------------------------


def _pad(a, b):
    m = max(len(a), len(b))
    return (tuple(a) + (0,) * (m - len(a)), tuple(b) + (0,) * (m - len(b)))


def join_meet_parts(lam, nu) -> tuple:
    la, nu_ = _pad(lam, nu)
    join = tuple(max(p, q) for p, q in zip(la, nu_))
    meet = tuple(min(p, q) for p, q in zip(la, nu_))
    strip = lambda t: tuple(p for p in t if p)
    join, meet = strip(join), strip(meet)
    if not is_strict(join) or not is_strict(meet):
        raise AssertionError(f"join/meet of strict shapes must be strict: {join}, {meet}")
    return join, meet


def join_meet(shape1, shape2) -> tuple:
    """Coordinatewise max/min on skew shifted shapes ((lam, mu) pairs)."""
    (l1, m1), (l2, m2) = shape1, shape2
    jl, ml = join_meet_parts(l1, l2)
    jm, mm = join_meet_parts(m1, m2) if (m1 or m2) else ((), ())
    shifted_cells(jl, jm)
    shifted_cells(ml, mm)
    return (jl, jm), (ml, mm)


def sort_split(lam, mu) -> tuple:
    """Alternating split of the merged, sorted parts of two strict partitions."""
    if not (is_strict(lam) or not lam) or not (is_strict(mu) or not mu):
        raise ValueError("sort split needs strict partitions")
    merged = sorted(list(lam) + list(mu), reverse=True)
    s1 = tuple(merged[0::2])
    s2 = tuple(merged[1::2])
    if not (is_strict(s1) or not s1) or not (is_strict(s2) or not s2):
        raise AssertionError("sorted halves of strict partitions must be strict")
    return s1, s2


# -- min-partition bridge --------------------------------------------------------


def merged_positions(lam, nu) -> tuple:
    """Merge padded strict partitions; return (parts, positions of lam's parts).

    With ties the parts of lam take the earlier positions, so the submatrix
    of the merged Q-Jacobi-Trudi array on those positions is exactly the
    array of lam.
    """
    lam, nu = list(lam), list(nu)
    if len(lam) % 2:
        lam.append(0)
    if len(nu) % 2:
        nu.append(0)
    if len(lam) < len(nu):
        lam, nu = nu, lam
    tagged = sorted([(-p, 0, i) for i, p in enumerate(lam)] + [(-p, 1, i) for i, p in enumerate(nu)])
    parts = tuple(-t[0] for t in tagged)
    I = frozenset(i + 1 for i, t in enumerate(tagged) if t[1] == 0)
    return parts, I


def verify_min_difference_q(lam, nu, k: int = 4) -> dict:
    """Complementary-pfaffian difference at the min partition equals the
    cell-transfer difference of Q-functions."""
    parts, I = merged_positions(lam, nu)
    A = q_jt_matrix(list(parts), [], k, allow_nonstrict=True)
    mn = min_partition(I, len(parts))
    lhs = complementary_pfaffian(A, mn) - complementary_pfaffian(A, I)
    join, meet = join_meet_parts(lam, nu)
    rhs = schur_q(join, (), k) * schur_q(meet, (), k) \
        - schur_q(tuple(lam), (), k) * schur_q(tuple(nu), (), k)
    _require_equal(lhs, rhs, f"min-partition bridge at lam={tuple(lam)}, nu={tuple(nu)}")
    return {"identity": "min-difference", "lam": tuple(lam), "nu": tuple(nu), "ok": True}


# -- conjecture scanners ----------------------------------------------------------


def _verdict(coeffs: dict, in_span: bool) -> tuple:
    if not in_span:
        return "not-in-q-span", coeffs
    return ("positive" if all(c >= 0 for c in coeffs.values()) else "counterexample"), coeffs


def classify_difference(diff: Poly, k: int) -> tuple:
    """(verdict, expansion dict) for a would-be nonnegative Q-combination."""
    coeffs, remainder = expand_in_q_basis(diff, k)
    return _verdict(coeffs, remainder.is_zero())


def _classify(diff, k: int) -> tuple:
    """``classify_difference`` of a Poly or of the m-coefficients (a dict) of
    a symmetric polynomial.  Only the decreasing part is peeled; a Poly that
    is not symmetric in x_1..x_k takes the full peel."""
    if isinstance(diff, Poly):
        m = monomial_expand(diff, k)
        if m is None:
            return classify_difference(diff, k)
        diff = m
    coeffs, remainder = peel_decreasing(diff, k)
    return _verdict(coeffs, not remainder)


def _record(conjecture: str, instance: dict, diff, k: int, rebuild=None, **extra) -> dict:
    """The scan record of ``diff``, a Poly or the m-coefficients of a
    symmetric polynomial; a non-positive verdict is replaced by the verdict
    on ``rebuild(k + 1)``, the same difference in one more variable."""
    verdict, expansion = _classify(diff, k)
    if verdict != "positive" and rebuild is not None:
        verdict, expansion = _classify(rebuild(k + 1), k + 1)
    return {"conjecture": conjecture, "instance": instance, **extra,
            "zero_difference": not diff, "verdict": verdict,
            "expansion": _expansion_str(expansion)}


def _pair_scan(conjecture: str, cases, k: int):
    """Records of Q_t1 * Q_t2 - Q_s1 * Q_s2 over (instance, (s1, s2), (t1, t2))
    cases of skew shapes (lam, mu), built in m-coefficients from the
    decreasing parts of the four Q-functions.  When the two sides have the
    same factors the difference vanishes by commutativity, and the record
    is written without multiplying anything."""
    for instance, (s1, s2), (t1, t2) in cases:
        if (t1, t2) in ((s1, s2), (s2, s1)):
            yield {"conjecture": conjecture, "instance": instance, "zero_difference": True,
                   "verdict": "positive", "expansion": {}}
            continue

        def diff_at(j):
            f, g = q_product(t1, t2, j), q_product(s1, s2, j)
            return {nu: c for nu in f.keys() | g.keys() if (c := f.get(nu, 0) - g.get(nu, 0))}

        yield _record(conjecture, instance, diff_at(k), k, diff_at)


def scan_cell_transfer(bound: int, k: int = 5):
    """Cell-transfer difference scan over pairs of skew shifted shapes."""
    shapes = []
    for a_ in range(0, bound + 1):
        for lam in strict_partitions(a_) if a_ else [()]:
            shapes.extend((lam, mu) for mu in strict_subpartitions(lam))
    yield from _pair_scan("con2", (
        ({"shape1": _shape_str(s1), "shape2": _shape_str(s2)}, (s1, s2), join_meet(s1, s2))
        for i, s1 in enumerate(shapes) for s2 in shapes[i:]
        if sum(s1[0]) + sum(s2[0]) <= bound), k)


def scan_sort(bound: int, k: int = 5):
    """Sorted-split difference scan over pairs of strict partitions."""
    parts = [()]
    for a_ in range(1, bound + 1):
        parts.extend(strict_partitions(a_))
    yield from _pair_scan("con3", (
        ({"lam": list(lam), "mu": list(mu)}, ((lam, ()), (mu, ())),
         tuple((s, ()) for s in sort_split(lam, mu)))
        for i, lam in enumerate(parts) for mu in parts[i:]
        if sum(lam) + sum(mu) <= bound), k)


def weakly_decreasing_parts(total_max: int, length: int):
    """Weakly decreasing tuples of the given length with entries >= 0."""
    def rec(remaining, maxpart, acc):
        if len(acc) == length:
            yield tuple(acc)
            return
        for p in range(min(remaining, maxpart), -1, -1):
            yield from rec(remaining - p, p, acc + [p])

    yield from rec(total_max, total_max, [])


# random nonnegative TL combinations among the con1 cone elements
RANDOM_COMBOS = 3


def cone_test_elements(n: int, seed: int) -> list:
    """(label, ConeElement-or-functional, in_cone) triples to evaluate.

    Covers the TL-pfaffinant unit vectors and min-difference elements (all
    inside the network-positive cone), seeded random nonnegative TL
    combinations (``RANDOM_COMBOS`` of them), and the raw single-diagram
    functionals.  A single-diagram functional lies in the cone only when its
    induced coefficients are nonnegative, which fails for odd diagrams;
    those evaluations are reported with ``in_cone`` false since the
    positivity statement does not cover them.
    """
    # an empty min-difference element evaluates to 0 and is left out
    out = [(label, elt, True)
           for label, elt in cone_elements(n, random.Random(seed), RANDOM_COMBOS)
           if elt.tl_coeffs or not label.startswith("mindiff:")]
    # the even TL functionals on the symbolic array, evaluated once for every diagram
    A = SkewArray.symbolic(2 * n)
    even = enumerate_sym_tl_even(n)
    gens = [tl_functional(E).evaluate(A) for E in even]
    for D in enumerate_sym_tl(n):
        in_cone = _in_cone(diagram_functional(D).evaluate(A), n, even, gens)
        out.append((f"diagram:{D.key()}", D, in_cone))
    return out


def _in_cone(value: Poly, n: int, even, gens) -> bool:
    """Whether a functional with this value on the symbolic array has a
    nonnegative TL presentation; gens are the values of the even TL
    functionals there."""
    coeffs = express_in_span(value, gens)
    if coeffs is None:
        return False
    return cone_membership(ConeElement.from_dict(n, dict(zip(even, coeffs)))).positive


def _m_value(f, A: SkewArray, j: int, expanded: dict):
    """The value of the functional f on the array A in j variables: the
    m-coefficients sum c * m(pf_pi(A)) over f's support, zero ones dropped,
    or ``f.evaluate(A)``, a Poly, if some pf_pi(A) there is not symmetric in
    x_1..x_j.  ``expanded`` is A's memo, matching -> ``monomial_expand`` of
    pf_pi(A), so each monomial pfaffian is expanded once per array."""
    total: dict = {}
    for pi, c, pf in f.terms(A):
        if pi not in expanded:
            expanded[pi] = monomial_expand(pf, j)
        m = expanded[pi]
        if m is None:
            return f.evaluate(A)
        for nu, v in m.items():
            total[nu] = total.get(nu, 0) + c * v
    return {nu: v if v.__class__ is int else _num(v) for nu, v in total.items() if v}


def scan_q_positivity(n: int, bound: int, k: int = 5, seed: int = 0):
    """Cone-element evaluations on generalized (non-skew) Q-Jacobi-Trudi arrays.

    Instances are weakly decreasing part vectors pi with 2n entries >= 0.
    Skew arrays with a nonempty inner shape are excluded: they are not
    realizable by positive planar networks (documented counterexample in
    the test suite), so the positivity statement does not extend to them.
    """
    # one summed functional per cone element, built once per scan
    elements = [(label, obj.functional() if isinstance(obj, ConeElement)
                 else diagram_functional(obj), in_cone)
                for label, obj, in_cone in cone_test_elements(n, seed)]
    for pi in weakly_decreasing_parts(bound, 2 * n):
        # variables -> (the array of pi, its expansion memo); the array in
        # k + 1 variables is built by the first recheck and shared by the rest
        arrays = {}

        def value(f, j):
            if j not in arrays:
                arrays[j] = q_jt_matrix(list(pi), [], j, allow_nonstrict=True), {}
            A, expanded = arrays[j]
            return _m_value(f, A, j, expanded)

        for label, f, in_cone in elements:
            # only cone elements are rechecked: the conjecture covers no others
            yield _record("con1", {"pi": list(pi), "element": label}, value(f, k), k,
                          partial(value, f) if in_cone else None, in_cone=in_cone)


def _shape_str(shape) -> str:
    lam, mu = shape
    return f"{list(lam)}/{list(mu)}"


def _expansion_str(expansion: dict) -> dict:
    return {str(list(l)): str(c) for l, c in sorted(expansion.items())}
