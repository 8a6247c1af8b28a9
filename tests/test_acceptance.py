"""Acceptance suite: one test per criterion, each printing a PASS line.

All checks are exact (integer/rational arithmetic), so every tolerance is
zero.  Criterion 13's literal form is recorded as a strict expected
failure with a documented counterexample; its mathematically supported
form passes (see the criterion_13 tests).
"""

import pytest

from pfaflab import diagrams as dg
from pfaflab import immanants as im
from pfaflab import pfaffinants as pfn
from pfaflab import schurq as sq
from pfaflab import verify as vf


def _ok(criterion, detail):
    print(f"PASS criterion {criterion}: {detail}")


def _check(report):
    assert report["failures"] == [], report
    return report


def test_criterion_01_counts():
    rep = _check(vf.run("prop-2.3", {"n": 8}))
    _ok(1, f"diagram counts match binomials for n = 1..8 ({rep['cases']} sizes)")


def test_criterion_02_uncrossing_example():
    rep = _check(vf.run("ex-2.5"))
    _ok(2, "weight table and |X(pi)| = 16 reproduced for two embedding seeds")


def test_criterion_03_diagram_pfaffinant_table():
    rep = _check(vf.run("ex-2.7"))
    _ok(3, "all six n=2 diagram pfaffinants match the published polynomials")


def test_criterion_04_decompositions():
    rep1 = _check(vf.run("thm-2.6", {"n": 3, "samples": 20}))
    rep2 = _check(vf.run("thm-2.12", {"n": 3, "samples": 20}))
    assert rep1["cases"] == rep2["cases"] == 2 + 8 + 32 + 20
    _ok(4, f"complementary pfaffians decompose exactly ({rep1['cases']} index sets each, "
           "n <= 3 exhaustive plus 20 sampled at n = 4)")


def test_criterion_05_triangularity_and_basis():
    _check(vf.run("prop-2.16", {"n": 4}))
    rep = _check(vf.run("thm-2.17", {"n": 4}))
    _ok(5, "transition matrices unit upper triangular and TL rank = C(2n-1,n) for n <= 4")


def test_criterion_06_embedding_independence():
    rep = _check(vf.run("thm-2.4", {"n": 3}))
    _ok(6, f"f and g coefficients agree across two embeddings ({rep['cases']} objects)")


def test_criterion_07_network_semantics():
    rep1 = _check(vf.run("cor-3.2", {"n": 3, "grids": 10}))
    rep2 = _check(vf.run("thm-3.6", {"n": 3, "grids": 10}))
    _ok(7, f"path weights match pfaffians ({rep1['cases']} cases) and TL pfaffinants match "
           f"marked-subnetwork sums ({rep2['cases']} cases) on separators and 10 random fences")


def test_criterion_08_separating_networks():
    rep = _check(vf.run("lem-3.7", {"n": 3}))
    _ok(8, f"type of the full marked subnetwork recovers its diagram, n <= 3 ({rep['cases']})")


def test_criterion_09_boolean_cone():
    rep = _check(vf.run("ex-3.13"))
    _ok(9, "all nine positive vectors accepted, the negative singleton rejected")


def test_criterion_10_immanant_suite():
    A, B = im.block_pair(2)
    imms = im.tl_immanants(B)
    P = dg.tl_diagram(2, [(1, 4), (2, 3)])
    Q = dg.tl_diagram(2, [(1, 2), (3, 4)])
    assert imms[P].render() == "a[1,3]*a[2,4] - a[1,4]*a[2,3]"
    assert imms[Q].render() == "a[1,4]*a[2,3]"
    _check(vf.run("thm-4.1", {"n": 3}))
    _check(vf.run("thm-4.4", {"n": 3}))
    _check(vf.run("lem-4.2", {"n": 3}))
    _check(vf.run("tab-4.3"))
    _check(vf.run("witness-4.3"))
    _ok(10, "block immanant values, minor decompositions (n <= 3), pf^2 = det (n <= 3), "
            "quadratic table, and the 12-point non-span witness all verified")


def test_criterion_11_bridge():
    rep = _check(vf.run("thm-4.3", {"n": 3}))
    _ok(11, f"TL pfaffinants of the block array expand over TL immanants "
            f"({rep['cases']} even diagrams, n <= 3)")


def test_criterion_12_jacobi_trudi():
    rep = _check(vf.run("thm-5.2", {"max_size": 8, "k": 4}))
    _ok(12, f"skew Q-functions equal their pfaffians in k = 4 variables "
            f"({rep['cases']} shapes incl. the reversed-H sign variant)")


def test_criterion_13_monomial_positivity_supported_form():
    rep = _check(vf.run("thm-5.4", {"n": 2, "bound": 6}))
    # the single-diagram functionals that carry a nonnegative canonical
    # presentation stay monomial-nonnegative as well
    for pi in sq.weakly_decreasing_parts(6, 4):
        k = max(1, sum(pi))
        A = sq.q_jt_matrix(list(pi), [], k, allow_nonstrict=True)
        for key in ("V[]", "V[(2,3)]"):
            D = dg.parse_diagram_key(key, 2)
            m = sq.monomial_expand(pfn.diagram_pfaffinant(D, A), k)
            assert m is not None and all(c >= 0 for c in m.values())
    _ok(13, f"cone generators evaluate monomial-nonnegatively on all {rep['cases'] // 3} "
            "plain generalized arrays with four sources, |parts| <= 6 "
            "(literal all-diagram skew form is recorded as false; see xfail twin)")


@pytest.mark.xfail(strict=True, reason=(
    "literal criterion is mathematically false: the odd-diagram functional "
    "V[(1,2)] equals minus the full pfaffian, so it evaluates to -Q on every "
    "array, and even the cone generator V[(1,4)(2,3)] gives -Q_(2) on the "
    "skew array of (2,1)/(1) (whose entry pattern {0, Q_2, 2 Q_2} admits no "
    "positive-network realization in any source order)"))
def test_criterion_13_monomial_positivity_literal_form():
    diagrams = dg.enumerate_sym_tl(2)
    funcs = {D: pfn.diagram_functional(D) for D in diagrams}
    for tot in range(1, 7):
        for lam in sq.strict_partitions(tot):
            for mu in sq.strict_subpartitions(lam):
                lam_padded = list(lam) + ([0] if (len(lam) + len(mu)) % 2 else [])
                if len(lam_padded) + len(mu) != 4:
                    continue
                k = max(1, sum(lam) - sum(mu))
                A = sq.q_jt_matrix(list(lam), list(mu), k)
                for D in diagrams:
                    m = sq.monomial_expand(funcs[D].evaluate(A), k)
                    assert m is not None and all(c >= 0 for c in m.values()), \
                        (lam, mu, D.key())


def test_criterion_14_min_difference_bridge():
    rep = _check(vf.run("prop-5.6", {"bound": 8, "k": 4}))
    _ok(14, f"min-partition pfaffian difference equals the cell-transfer difference "
            f"({rep['cases']} pairs with |lam| + |nu| <= 8)")


def test_criterion_15_conjecture_scanners():
    con1 = list(sq.scan_q_positivity(2, 10, k=5))
    con2 = list(sq.scan_cell_transfer(10, k=5))
    con3 = list(sq.scan_sort(10, k=5))
    assert con1 and con2 and con3
    for rec in con1 + con2 + con3:
        assert rec["verdict"] in ("positive", "counterexample", "not-in-q-span")
    # trivial zero-difference instances classify as positive with empty expansion
    for rec in con2:
        if rec["instance"]["shape1"] == rec["instance"]["shape2"]:
            assert rec["zero_difference"] and rec["verdict"] == "positive"
            assert rec["expansion"] == {}
    for rec in con3:
        lam, mu = rec["instance"]["lam"], rec["instance"]["mu"]
        if tuple(sq.sort_split(tuple(lam), tuple(mu))[0]) == tuple(lam):
            assert rec["zero_difference"] and rec["verdict"] == "positive"
    # open conjectures: report, do not assert; record the observed outcome
    nonpositive = [r for r in con1 if r["in_cone"] and r["verdict"] != "positive"]
    nonpositive += [r for r in con2 + con3 if r["verdict"] != "positive"]
    found = "possible counterexamples found" if nonpositive else "no counterexample found"
    _ok(15, f"scanners completed: {len(con1)} + {len(con2)} + {len(con3)} verdict records; "
            f"{found} ({len(nonpositive)} non-positive in-hypothesis records)")
    assert isinstance(nonpositive, list)
