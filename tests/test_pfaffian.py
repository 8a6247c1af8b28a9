import pytest

from pfaflab.diagrams import OddSubsetError
from pfaflab.pfaffian import (GeneralMatrix, SkewArray, complementary_pfaffian, determinant,
                              min_partition, minor, monomial_pfaffian, pfaffian, skew_to_matrix)
from pfaflab.poly import Poly, a, x


def test_full_pfaffian_n2():
    A = SkewArray.symbolic(4)
    assert pfaffian(A).render() == "a[1,2]*a[3,4] - a[1,3]*a[2,4] + a[1,4]*a[2,3]"


def test_sub_pfaffians():
    A = SkewArray.symbolic(4)
    assert pfaffian(A, [1, 3]) == Poly.var(a(1, 3))
    assert pfaffian(A, []) == Poly.const(1)
    with pytest.raises(OddSubsetError):
        pfaffian(A, [1, 2, 3])


def test_complementary_pfaffian():
    A = SkewArray.symbolic(4)
    assert complementary_pfaffian(A, [1, 2]) == Poly.var(a(1, 2)) * Poly.var(a(3, 4))
    assert complementary_pfaffian(A, [1, 3]) == Poly.var(a(1, 3)) * Poly.var(a(2, 4))
    assert complementary_pfaffian(A, [1, 2, 3, 4]) == pfaffian(A)
    assert complementary_pfaffian(A, []) == pfaffian(A)


def test_determinant_and_minor():
    xx, yy, zz, tt = (Poly.var(x(i)) for i in (1, 2, 3, 4))
    B = GeneralMatrix([[xx, yy], [zz, tt]])
    assert determinant(B) == xx * tt - yy * zz
    assert minor(B, [1], [2]) == yy
    assert minor(B, [], []) == Poly.const(1)
    with pytest.raises(ValueError):
        minor(B, [1], [1, 2])


def test_pf_squared_is_det_n2():
    A = SkewArray.symbolic(4)
    assert pfaffian(A) ** 2 == determinant(skew_to_matrix(A))


def test_min_partition():
    assert min_partition([1, 2], 4) == frozenset({1, 2})
    assert min_partition([2, 3], 4) == frozenset({1, 3})
    assert min_partition([1, 2, 3, 4], 4) == frozenset({1, 2, 3, 4})
    with pytest.raises(ValueError):
        min_partition([2], 4)
    with pytest.raises(OddSubsetError):
        min_partition([1, 2, 3], 4)


def test_sub_pfaffian_relabeling_preserves_order():
    A = SkewArray.symbolic(6)
    # indices {2, 3, 5, 6} relabeled 1..4 order-preservingly
    got = pfaffian(A, [2, 3, 5, 6])
    av = lambda i, j: Poly.var(a(i, j))
    want = av(2, 3) * av(5, 6) - av(2, 5) * av(3, 6) + av(2, 6) * av(3, 5)
    assert got == want


def test_nonnegative_subpfaffian_example_matrix():
    # skew array with entries a12 = a23 = 1, everything else 0: every even
    # sub-pfaffian is nonnegative, yet no positive planar network produces it
    A = SkewArray(4, {(1, 2): Poly.const(1), (2, 3): Poly.const(1)})
    from pfaflab.pfaffinants import even_subsets
    for I in even_subsets(4):
        val = pfaffian(A, sorted(I))
        assert val.coeff(()) >= 0 and len(val.terms) <= 1


def test_monomial_pfaffian():
    A = SkewArray.symbolic(4)
    av = lambda i, j: Poly.var(a(i, j))
    assert monomial_pfaffian(A, frozenset({(1, 4), (2, 3)})) == av(1, 4) * av(2, 3)


def _matching_pfaffian(A, I):
    """Oracle: the signed sum over the perfect matchings of I."""
    from pfaflab.diagrams import enumerate_matchings, matching_sign

    I = sorted(I)
    total = Poly.zero()
    for pi in enumerate_matchings(len(I) // 2):
        real = frozenset((I[i - 1], I[j - 1]) for i, j in pi)
        total = total + matching_sign(real) * monomial_pfaffian(A, real)
    return total


def _separator_arrays(n):
    """path_weight_matrix of the separating networks at n, with rational weights."""
    from fractions import Fraction

    from pfaflab.diagrams import enumerate_sym_tl
    from pfaflab.networks import construct_network_of_diagram, path_weight_matrix
    from test_networks import reweighted

    weights = [Fraction(k % 7 + 1, k % 4 + 2) for k in range(200)]
    diagrams = enumerate_sym_tl(n)
    return [path_weight_matrix(reweighted(construct_network_of_diagram(D), weights))
            for D in diagrams[::max(1, len(diagrams) // 6)]]


def _fence_arrays(n):
    """path_weight_matrix of two random fences with 2n rails."""
    from pfaflab.networks import path_weight_matrix, random_fence_network

    return [path_weight_matrix(random_fence_network(n, 2 * n, seed=t)) for t in range(2)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_expansion_matches_matching_sum(n):
    from pfaflab.pfaffinants import even_subsets

    arrays = [SkewArray.symbolic(2 * n)] + _separator_arrays(n) + _fence_arrays(n)
    subsets = list(even_subsets(2 * n))
    for A in arrays:
        fresh = SkewArray(A.size, A.entries)   # the same entries, with empty memos
        want = {I: _matching_pfaffian(A, I) for I in subsets}
        # the first pass fills A's sub-pfaffian memo, smallest I first, and
        # the second reads it back in reverse; fresh's memo is filled in the
        # reverse order
        for B, order in ((A, subsets), (A, subsets[::-1]), (fresh, subsets[::-1])):
            for I in order:
                assert pfaffian(B, I) == want[I], (n, sorted(I))
    assert any(c.__class__ is not int for A in arrays[1:]
               for p in A.entries.values() for c in p.terms.values())
