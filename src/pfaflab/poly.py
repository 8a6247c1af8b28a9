"""Exact sparse multivariate polynomials and exact rational linear algebra.

Variables come in two kinds: upper-triangular matrix entries ``a[i,j]``
(with i < j) and indexed indeterminates ``x[k]``.  Coefficients are exact
integers or rationals; no floating point anywhere.  A polynomial is a
mapping ``terms`` from monomials to nonzero coefficients.

A monomial is a packed int.  Each variable is interned once per process
and owns a FIELD_BITS-wide bit field of the int, holding its exponent, so
multiplying two monomials adds their ints.  The top bit of every field is
a guard: exponents stay at most MAX_EXPONENT, adding two keys never
carries into a neighbouring field, and a product that reaches a guard bit
raises CapacityError.  A key depends on the order in which the process
met its variables, so nothing is printed by key: ``items()`` gives the
tuple view (sorted variables, repetition encoding powers), by which
rendering orders monomials.  ``Poly(dict)`` packs tuple-keyed dicts.

A linear combination of polynomials is one n-ary ``poly_sum``, added up
in one dict and normalised once; ``+`` and ``-`` are the binary forms.

``matrix_rank``, ``express_in_span`` and ``row_rank`` share one sparse
fraction-free (Bareiss) echelon engine on term dicts: a Poly's ``terms``,
keyed by monomial, or a coefficient row's nonzero entries, keyed by
column.  Its results do not depend on the key order.  ``row_rank`` first
tries a triangular peel, which proves full row rank in one pass over the
entries, and eliminates only when the peel stalls.  Dense ``Fraction``
elimination survives only as the test oracle.
"""

from __future__ import annotations

import threading
from collections import Counter
from fractions import Fraction
from math import gcd, lcm

# A variable is a plain tuple: ("a", i, j) with i < j, or ("x", k) with
# k >= 1.  Tuple comparison gives the total order: matrix entries first
# (by index pair), then indeterminates (by index).
Variable = tuple
Monomial = tuple

FIELD_BITS = 16
MAX_EXPONENT = (1 << (FIELD_BITS - 1)) - 1
_FIELD = (1 << FIELD_BITS) - 1

_VARS: list = []   # interned variables, in order of first use
_INDEX: dict = {}  # variable -> its position in _VARS
_GUARDS = 0        # the guard bits of the fields of all interned variables
_INTERNING = threading.Lock()


class CapacityError(ValueError):
    """A computation needs more room than its bound allows."""


class UsageError(ValueError):
    """Input text that does not parse, or an argument outside a function's domain."""


def a(i: int, j: int) -> Variable:
    """The matrix-entry variable a[i,j]; requires i < j."""
    if not (isinstance(i, int) and isinstance(j, int) and 0 < i < j):
        raise ValueError(f"matrix entry indices must satisfy 0 < i < j, got ({i}, {j})")
    return ("a", i, j)


def x(k: int) -> Variable:
    """The indeterminate x[k]; requires k >= 1."""
    if not (isinstance(k, int) and k >= 1):
        raise ValueError(f"indeterminate index must be >= 1, got {k}")
    return ("x", k)


def _shift(v: Variable) -> int:
    """Bit offset of the exponent field of v, interning v on first use."""
    i = _INDEX.get(v)
    if i is None:
        global _GUARDS
        with _INTERNING:
            i = _INDEX.get(v)
            if i is None:
                i = len(_VARS)
                _VARS.append(v)
                _GUARDS |= 1 << (i * FIELD_BITS + FIELD_BITS - 1)
                _INDEX[v] = i
    return i * FIELD_BITS


def _lowest_field(bits: int) -> int:
    """Index of the variable whose field holds the lowest set bit of bits."""
    return ((bits & -bits).bit_length() - 1) // FIELD_BITS


def _overflow(v: Variable) -> CapacityError:
    return CapacityError(f"exponent of {_var_str(v)} exceeds {MAX_EXPONENT}")


def power_key(v: Variable, e: int) -> int:
    """The key of the monomial v^e; raises CapacityError past MAX_EXPONENT."""
    if e > MAX_EXPONENT:
        raise _overflow(v)
    return e << _shift(v)


def _pack(mono: Monomial) -> int:
    return sum(power_key(v, e) for v, e in Counter(mono).items())


def _unpack(key: int) -> Monomial:
    mono = []
    while key:
        i = _lowest_field(key)
        e = (key >> (i * FIELD_BITS)) & _FIELD
        mono += (_VARS[i],) * e
        key -= e << (i * FIELD_BITS)
    mono.sort()
    return tuple(mono)


def exponent_reader(variables):
    """A function from a monomial key to its exponents of the distinct
    ``variables``, as a tuple, or to None if the monomial holds any other
    variable."""
    shifts = [_shift(v) for v in variables]
    others = ~sum(_FIELD << s for s in shifts)

    def read(key: int):
        if key & others:
            return None
        return tuple([(key >> s) & _FIELD for s in shifts])

    return read


def _num(c):
    # Keep integral coefficients as ints (fast path); exact rationals otherwise.
    if isinstance(c, Fraction):
        if c.denominator == 1:
            return int(c)
        return c
    if isinstance(c, int):
        return c
    raise TypeError(f"coefficient must be int or Fraction, not {type(c).__name__}")


def _var_str(v: Variable) -> str:
    if v[0] == "a":
        return f"a[{v[1]},{v[2]}]"
    return f"x[{v[1]}]"


class Poly:
    """Immutable exact polynomial.  Supports +, -, *, ** and scalar mixing."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        """Build from a dict mapping monomial tuples (variables in any
        order, repetition encoding powers) to int or Fraction coefficients."""
        clean = {}
        if terms:
            for mono, c in terms.items():
                key = _pack(mono)
                c = _num(clean.get(key, 0) + _num(c))
                if c != 0:
                    clean[key] = c
                else:
                    clean.pop(key, None)
        object.__setattr__(self, "terms", clean)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_packed(terms: dict) -> "Poly":
        """Wrap a dict of packed monomial keys to nonzero coefficients as is.

        The keys must be built from this module's keys by addition within
        MAX_EXPONENT (``power_key`` checks one factor)."""
        p = Poly.__new__(Poly)
        object.__setattr__(p, "terms", terms)
        return p

    @staticmethod
    def zero() -> "Poly":
        return Poly()

    @staticmethod
    def const(c) -> "Poly":
        c = _num(c)
        return Poly.from_packed({0: c} if c else {})

    @staticmethod
    def var(v: Variable) -> "Poly":
        return Poly.from_packed({1 << _shift(v): 1})

    # -- basic queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, mono) -> Fraction:
        return Fraction(self.terms.get(_pack(mono), 0))

    def items(self) -> list:
        """(sorted variable tuple, coefficient) per term, in storage order."""
        return [(_unpack(m), c) for m, c in self.terms.items()]

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    def __reduce__(self):
        # keys are private to this process's interning order; pickle the tuple view
        return Poly, (dict(self.items()),)

    # -- arithmetic ----------------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.const(other)
        return None

    def __add__(self, other):
        other = Poly._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = terms.get(m, 0) + c
            if s == 0:
                terms.pop(m, None)
            else:
                terms[m] = s
        return Poly.from_packed(terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly.from_packed({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = Poly._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = Poly._coerce(other)
        if other is None:
            return NotImplemented
        acc = {}
        get = acc.get
        right = other.terms.items()
        for m1, c1 in self.terms.items():
            for m2, c2 in right:
                m = m1 + m2
                acc[m] = get(m, 0) + c1 * c2
        terms = {}
        guards = _GUARDS
        for m, c in acc.items():
            if c:
                if m & guards:
                    raise _overflow(_VARS[_lowest_field(m & guards)])
                terms[m] = c if c.__class__ is int else _num(c)
        return Poly.from_packed(terms)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not (isinstance(k, int) and k >= 0):
            raise ValueError("exponent must be a nonnegative integer")
        result = Poly.const(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    # -- rendering -----------------------------------------------------------

    @staticmethod
    def _mono_str(mono: Monomial) -> str:
        parts = []
        i = 0
        while i < len(mono):
            j = i
            while j < len(mono) and mono[j] == mono[i]:
                j += 1
            e = j - i
            parts.append(_var_str(mono[i]) if e == 1 else f"{_var_str(mono[i])}^{e}")
            i = j
        return "*".join(parts)

    def render(self) -> str:
        """Canonical text form: terms sorted by (degree, monomial), exact output.

        Example output: ``a[1,2]*a[3,4] - a[1,3]*a[2,4] + a[1,4]*a[2,3]``.
        """
        if not self.terms:
            return "0"
        pieces = []
        for mono, c in sorted(self.items(), key=lambda t: (len(t[0]), t[0])):
            neg = c < 0
            mag = -c if neg else c
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = Poly._mono_str(mono)
            else:
                body = f"{mag}*{Poly._mono_str(mono)}"
            pieces.append(("-" if neg else "+", body))
        sign0, body0 = pieces[0]
        out = ("-" if sign0 == "-" else "") + body0
        for sign, body in pieces[1:]:
            out += f" {sign} {body}"
        return out

    __str__ = render

    def __repr__(self):
        return f"Poly({self.render()})"


def poly_sum(pairs) -> Poly:
    """Sum of c * p over (c, Poly) pairs, c an int or a Fraction, added up
    in one dict; zero coefficients are dropped, integral ones kept as ints."""
    acc = {}
    get = acc.get
    for c, p in pairs:
        for m, v in p.terms.items():
            acc[m] = get(m, 0) + c * v
    return Poly.from_packed({m: v if v.__class__ is int else _num(v)
                             for m, v in acc.items() if v})


def poly_prod(polys) -> Poly:
    """Product of Polys, ints or Fractions, from the first factor on; a Poly
    even for no factors (1) or a lone number."""
    factors = iter(polys)
    total = next(factors, 1)
    if not isinstance(total, Poly):
        total = Poly.const(total)
    for p in factors:
        total = total * p
    return total


# -- exact linear algebra over the rationals ---------------------------------


def _echelon(rows, track: bool):
    """Sparse fraction-free echelon form of the term dicts ``rows`` (key ->
    nonzero int or Fraction), reduced in order.

    Each row is cleared of denominators into a new dict of ints.  While its
    largest key has a pivot p, row <- (a*row - b*p) / gcd, with coprime a, b
    that cancel that key; a row left nonzero pivots on its largest key.
    With ``track``, ``comb`` follows the row: row == sum(comb[i] * rows[i]).
    Returns the pivots and the [row, comb] of the last row.
    """
    pivots, parts = {}, None
    for i, terms in enumerate(rows):
        den = lcm(1, *(c.denominator for c in terms.values() if c.__class__ is not int))
        row = {m: int(c * den) for m, c in terms.items()}
        parts = [row, {i: den}] if track else [row]
        while row:
            key = max(row)
            pivot = pivots.setdefault(key, parts)
            if pivot is parts:
                break
            g = gcd(pivot[0][key], row[key])
            a, b = pivot[0][key] // g, row[key] // g
            for part, sub in zip(parts, pivot):
                if a != 1:
                    for m in part:
                        part[m] *= a
                for m, c in sub.items():
                    v = part.get(m, 0) - b * c
                    if v:
                        part[m] = v
                    else:
                        del part[m]
            g = gcd(*(v for part in parts for v in part.values()))
            if g > 1:
                for part in parts:
                    for m in part:
                        part[m] //= g
    return pivots, parts


def _peel(rows) -> int:
    """How many of the term dicts ``rows`` a triangular peel places.

    A column held by exactly one row not yet placed places that row, which
    then leaves every column it holds.  Each placed row is nonzero in its
    own column and every row placed after it is zero there, so the placed
    rows and their columns form a triangular submatrix with a nonzero
    diagonal: when every row is placed, the rows have full rank.  A zero
    row, or a row in the span of the others, is never placed.  Each entry
    is visited at most twice.
    """
    holders: dict = {}  # column -> the rows not yet placed that hold it
    for i, row in enumerate(rows):
        for col in row:
            holders.setdefault(col, set()).add(i)
    ready = list(holders)
    placed = 0
    while ready:
        held = holders[ready.pop()]
        if len(held) != 1:
            continue
        i = held.pop()
        placed += 1
        for col in rows[i]:
            others = holders[col]
            others.discard(i)
            if len(others) == 1:
                ready.append(col)
    return placed


def express_in_span(target: Poly, generators) -> list | None:
    """Exact coefficients c with sum(c[i]*generators[i]) == target, else None.

    A generator in the span of the ones before it gets coefficient 0, so c
    is unique; ``None`` certifies that no rational solution exists.
    """
    rows = [g.terms for g in generators]
    ng = len(rows)
    _, (row, comb) = _echelon(rows + [target.terms], track=True)
    if row:
        return None
    # 0 == comb[ng]*target + sum(comb[i]*generators[i])
    return [Fraction(comb.get(i, 0), -comb[ng]) for i in range(ng)]


def matrix_rank(rows) -> int:
    """Rank over the rationals of the coefficient matrix (monomials as columns)."""
    return len(_echelon([p.terms for p in rows], track=False)[0])


def row_rank(rows) -> int:
    """Rank over the rationals of the term dicts ``rows`` (column -> nonzero
    int or Fraction): their number when the triangular peel places every
    one, else the echelon's pivot count."""
    rows = list(rows)
    if _peel(rows) == len(rows):
        return len(rows)
    return len(_echelon(rows, track=False)[0])
