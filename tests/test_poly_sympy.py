"""Cross-check of Poly arithmetic and rendering against sympy."""

from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from pfaflab.poly import Poly, a, poly_sum, x  # noqa: E402

VARIABLES = [a(1, 2), a(1, 3), a(2, 4), a(3, 5), x(1), x(2), x(5)]
A, X = sympy.IndexedBase("a"), sympy.IndexedBase("x")

coefficients = st.one_of(st.integers(-5, 5),
                         st.fractions(min_value=-3, max_value=3, max_denominator=6))
# monomials in any variable order, so that packing has to merge them
monomials = st.lists(st.sampled_from(VARIABLES), max_size=4).map(tuple)
term_dicts = st.dictionaries(monomials, coefficients, max_size=4)
scaled_dicts = st.lists(st.tuples(coefficients, term_dicts), max_size=4)


def _symbol(v):
    return A[v[1], v[2]] if v[0] == "a" else X[v[1]]


def _to_sympy(terms: dict):
    return sum((sympy.Rational(Fraction(c).numerator, Fraction(c).denominator)
                * sympy.Mul(*(_symbol(v) for v in mono)) for mono, c in terms.items()),
               sympy.Integer(0))


def _parse(text: str):
    return sympy.sympify(text.replace("^", "**"), locals={"a": A, "x": X})


def _agrees(p: Poly, want) -> bool:
    return (sympy.expand(_to_sympy(dict(p.items())) - want) == 0
            and sympy.expand(_parse(p.render()) - want) == 0)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(term_dicts, term_dicts, st.integers(0, 3), scaled_dicts)
def test_arithmetic_and_render_match_sympy(d1, d2, e, pairs):
    p, q = Poly(d1), Poly(d2)
    sp, sq = _to_sympy(d1), _to_sympy(d2)
    assert _agrees(p, sp) and _agrees(q, sq)
    assert _agrees(p + q, sp + sq)
    assert _agrees(p - q, sp - sq)
    assert _agrees(p * q, sp * sq)
    assert _agrees(p ** e, sp ** e)
    # poly_sum is the + and * fold; no pairs give zero, p - p cancels fully
    fold = Poly.zero()
    for c, d in pairs:
        fold = fold + c * Poly(d)
    total = poly_sum((c, Poly(d)) for c, d in pairs)
    cancelled = poly_sum([(1, p), (-1, p)])
    halves = poly_sum([(Fraction(1, 2), p), (Fraction(1, 2), p)])
    assert total == fold and poly_sum([]) == Poly.zero()
    assert cancelled.terms == {} and halves.terms == p.terms
    # products and sums drop zero coefficients and keep integral ones as ints
    # (Poly equality cannot tell Fraction(2, 1) from 2)
    assert all(c != 0 and (isinstance(c, int) or c.denominator != 1)
               for r in (p * q, p ** e, total, halves) for _, c in r.items())
