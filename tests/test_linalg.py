"""Cross-check of the sparse echelon engine against dense Gaussian elimination."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from pfaflab.poly import Poly, _unpack, a, express_in_span, matrix_rank, row_rank, x  # noqa: E402

# -- the dense oracle: Fraction Gaussian elimination over the monomial support


def _support(polys) -> list:
    monos = set()
    for p in polys:
        monos.update(p.terms)
    return sorted(monos, key=_unpack)


def dense_express_in_span(target, generators):
    """Pivot columns in generator order, free variables 0."""
    generators = list(generators)
    monos = _support(generators + [target])
    if not monos:
        return [Fraction(0)] * len(generators)
    ng = len(generators)
    rows = []
    for mono in monos:
        row = [Fraction(g.terms.get(mono, 0)) for g in generators]
        row.append(Fraction(target.terms.get(mono, 0)))
        rows.append(row)
    pivots = []  # (row, col)
    r = 0
    for col in range(ng):
        pr = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][col]
        rows[r] = [v / pv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[r])]
        pivots.append((r, col))
        r += 1
        if r == len(rows):
            break
    for i in range(r, len(rows)):
        if rows[i][ng] != 0:
            return None
    coeffs = [Fraction(0)] * ng
    for row, col in pivots:
        coeffs[col] = rows[row][ng]
    return coeffs


def dense_matrix_rank(rows):
    rows = [p for p in rows if not p.is_zero()]
    if not rows:
        return 0
    monos = {m: i for i, m in enumerate(_support(rows))}
    mat = []
    for p in rows:
        row = [Fraction(0)] * len(monos)
        for m, c in p.terms.items():
            row[monos[m]] = Fraction(c)
        mat.append(row)
    rank = 0
    for col in range(len(monos)):
        pr = next((i for i in range(rank, len(mat)) if mat[i][col] != 0), None)
        if pr is None:
            continue
        mat[rank], mat[pr] = mat[pr], mat[rank]
        pv = mat[rank][col]
        for i in range(rank + 1, len(mat)):
            if mat[i][col] != 0:
                f = mat[i][col] / pv
                mat[i] = [v - f * w for v, w in zip(mat[i], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return rank


# -- random systems ------------------------------------------------------------

# few columns, so that random rows are often dependent
COLUMNS = [(), (a(1, 2),), (a(1, 2), a(3, 4)), (x(1),), (x(1), x(1)), (a(2, 3), x(2))]

integers = st.integers(-4, 4)
rationals = st.fractions(min_value=-3, max_value=3, max_denominator=5)
coefficients = st.one_of(integers, rationals)


def _poly(entries) -> Poly:
    return Poly(dict(zip(COLUMNS, entries)))


row_entries = st.one_of(
    st.lists(integers, min_size=len(COLUMNS), max_size=len(COLUMNS)),
    st.lists(coefficients, min_size=len(COLUMNS), max_size=len(COLUMNS)),
    st.just([0] * len(COLUMNS)),
)


@st.composite
def systems(draw):
    """Generators with zero rows and combinations of earlier generators."""
    gens = []
    for _ in range(draw(st.integers(0, 7))):  # 0: empty input
        if gens and draw(st.booleans()):
            weights = draw(st.lists(coefficients, min_size=len(gens), max_size=len(gens)))
            gens.append(sum((c * g for c, g in zip(weights, gens)), Poly.zero()))
        else:
            gens.append(_poly(draw(row_entries)))
    if gens and draw(st.booleans()):
        weights = draw(st.lists(coefficients, min_size=len(gens), max_size=len(gens)))
        target = sum((c * g for c, g in zip(weights, gens)), Poly.zero())
    else:  # often outside the span: an inconsistent system
        target = _poly(draw(row_entries))
    return gens, target


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(systems())
def test_engine_matches_dense_oracle(system):
    gens, target = system
    assert matrix_rank(gens) == dense_matrix_rank(gens)
    assert matrix_rank(gens + [target]) == dense_matrix_rank(gens + [target])
    assert row_rank(p.terms for p in gens + [target]) == dense_matrix_rank(gens + [target])
    got = express_in_span(target, gens)
    assert got == dense_express_in_span(target, gens)
    if got is not None:
        assert all(c.__class__ is Fraction for c in got)
        assert sum((c * g for c, g in zip(got, gens)), Poly.zero()) == target

