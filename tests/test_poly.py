import random
from fractions import Fraction

import pytest

from pfaflab import uncross
from pfaflab.poly import (MAX_EXPONENT, CapacityError, Poly, a, express_in_span, matrix_rank,
                         poly_prod, x)


def av(i, j):
    return Poly.var(a(i, j))


def test_variable_validation():
    with pytest.raises(ValueError):
        a(2, 2)
    with pytest.raises(ValueError):
        a(3, 1)
    with pytest.raises(ValueError):
        x(0)


def test_single_term_product():
    assert (av(1, 2) * av(3, 4)).render() == "a[1,2]*a[3,4]"


def test_poly_prod_returns_a_poly():
    # the empty product and a lone number (a raw edge weight) are Polys too
    for factors, want in (([], Poly.const(1)), (iter(()), Poly.const(1)), ([3], Poly.const(3)),
                          ([Fraction(1, 2)], Poly.const(Fraction(1, 2)))):
        got = poly_prod(factors)
        assert isinstance(got, Poly) and got == want
    assert poly_prod([av(1, 2)]) == av(1, 2)
    assert poly_prod([2, av(1, 2), Fraction(1, 2), av(3, 4)]) == av(1, 2) * av(3, 4)
    with pytest.raises(TypeError):
        poly_prod(["w"])


def test_additive_identity():
    p = av(1, 2) + 3 * av(1, 3)
    assert p + Poly.zero() == p
    assert p + 0 == p


def test_difference_of_squares():
    p = (av(1, 2) + av(1, 3)) * (av(1, 2) - av(1, 3))
    assert p == av(1, 2) ** 2 - av(1, 3) ** 2


def _random_poly(rng, nvars=5, terms=4, degree=4):
    vs = [a(1, 2), a(1, 3), a(2, 4), x(1), x(2)][:nvars]
    total = Poly.zero()
    for _ in range(terms):
        mono = tuple(sorted(rng.choice(vs) for _ in range(rng.randrange(0, degree + 1))))
        total = total + Poly({mono: rng.randrange(-3, 4)})
    return total


def test_ring_laws_random():
    rng = random.Random(7)
    for _ in range(25):
        p, q, r = (_random_poly(rng) for _ in range(3))
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p * q == q * p
        assert p * Poly.const(1) == p
        assert (p - p).is_zero()


def test_rational_coefficients():
    p = Fraction(1, 2) * av(1, 2) + Fraction(1, 2) * av(1, 2)
    assert p == av(1, 2)
    assert dict((Fraction(1, 3) * av(1, 2)).items())[(a(1, 2),)] == Fraction(1, 3)
    # integral products stay int for speed
    q = Poly({(a(1, 2),): 2}) * Poly({(a(3, 4),): 3})
    assert isinstance(dict(q.items())[(a(1, 2), a(3, 4))], int)


def test_exponent_overflow_is_capacity_error():
    assert uncross.CapacityError is CapacityError
    top = Poly.var(x(1)) ** MAX_EXPONENT
    assert top.render() == f"x[1]^{MAX_EXPONENT}"
    # a product at the limit leaves the neighbouring fields alone
    assert (top * (av(1, 2) + Poly.var(x(2)))).render() == \
        f"a[1,2]*x[1]^{MAX_EXPONENT} + x[1]^{MAX_EXPONENT}*x[2]"
    with pytest.raises(CapacityError, match=r"exponent of x\[1\] exceeds"):
        Poly.var(x(1)) ** (MAX_EXPONENT + 1)
    with pytest.raises(CapacityError):
        top * (Poly.var(x(1)) + 1)
    with pytest.raises(CapacityError):
        Poly({(a(1, 2),) * (MAX_EXPONENT + 1): 1})


def test_render_contract():
    pf2 = av(1, 2) * av(3, 4) - av(1, 3) * av(2, 4) + av(1, 4) * av(2, 3)
    assert pf2.render() == "a[1,2]*a[3,4] - a[1,3]*a[2,4] + a[1,4]*a[2,3]"
    assert Poly.zero().render() == "0"
    assert Poly.const(-3).render() == "-3"
    assert (Fraction(1, 2) * Poly.var(x(1))).render() == "1/2*x[1]"
    assert (Poly.var(x(2)) ** 3).render() == "x[2]^3"
    assert (1 + 2 * Poly.var(x(1))).render() == "1 + 2*x[1]"


def test_express_in_span_generator_itself():
    g1, g2 = av(1, 2) * av(3, 4), av(1, 3) * av(2, 4)
    assert express_in_span(g1, [g1, g2]) == [1, 0]


def test_express_in_span_disjoint_support():
    assert express_in_span(av(1, 4) * av(2, 3), [av(1, 2) * av(3, 4)]) is None


def test_express_in_span_pfaffian_coordinates():
    pf2 = av(1, 2) * av(3, 4) - av(1, 3) * av(2, 4) + av(1, 4) * av(2, 3)
    gens = [av(1, 2) * av(3, 4), av(1, 3) * av(2, 4), av(1, 4) * av(2, 3)]
    assert express_in_span(pf2, gens) == [1, -1, 1]


def test_express_in_span_free_generators_get_zero():
    # 2*g1 lies in the span of g1, so it is free: 2*g1 + g2 has the
    # coefficients (2, 0, 1), not (0, 1, 1) or any other solution
    g1, g2 = av(1, 2) * av(3, 4), Fraction(1, 3) * av(1, 3) * av(2, 4)
    coeffs = express_in_span(2 * g1 + g2, [g1, 2 * g1, g2, g1 + g2])
    assert coeffs == [2, 0, 1, 0]
    assert all(isinstance(c, Fraction) for c in coeffs)
    assert express_in_span(g1, [g1 + g2, g1, g2]) == [0, 1, 0]


def test_express_in_span_recombination():
    rng = random.Random(3)
    for _ in range(10):
        gens = [_random_poly(rng) for _ in range(4)]
        target = sum((rng.randrange(-2, 3) * g for g in gens), Poly.zero())
        coeffs = express_in_span(target, gens)
        assert coeffs is not None
        assert sum((c * g for c, g in zip(coeffs, gens)), Poly.zero()) == target


def test_matrix_rank_basic():
    assert matrix_rank([av(1, 2), av(1, 3), av(1, 2) + av(1, 3)]) == 2
    assert matrix_rank([]) == 0


def test_matrix_rank_printed_tl_values():
    # the three even-diagram functionals of a generic 4x4 skew array
    rows = [
        av(1, 2) * av(3, 4) + av(1, 4) * av(2, 3) - av(1, 3) * av(2, 4),
        av(1, 3) * av(2, 4) - av(1, 2) * av(3, 4),
        av(1, 3) * av(2, 4) - av(1, 4) * av(2, 3),
    ]
    assert matrix_rank(rows) == 3


def test_matrix_rank_invariances():
    rng = random.Random(11)
    rows = [_random_poly(rng) for _ in range(5)]
    base = matrix_rank(rows)
    shuffled = rows[:]
    rng.shuffle(shuffled)
    assert matrix_rank(shuffled) == base
    scaled = [Fraction(3, 7) * r for r in rows]
    assert matrix_rank(scaled) == base
