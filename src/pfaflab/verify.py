"""Registry of machine-checkable identities, keyed by stable ids.

Each runner takes an options dict and returns a report::

    {"theorem": id, "params": {...}, "cases": int, "failures": [...]}

Failures carry a short case descriptor; an empty list means every case
passed.  Runners never raise on mathematical failure.
"""

from __future__ import annotations

import random
from itertools import combinations
from math import comb

from . import diagrams as dg
from . import immanants as im
from . import networks as nw
from . import pfaffinants as pf
from . import schurq as sq
from . import uncross as ux
from .pfaffian import (SkewArray, complementary_pfaffian, determinant, min_partition,
                       minor, pfaffian, skew_to_matrix)
from .pfaffinants import VerificationError


def _run(cases, check):
    failures = []
    total = 0
    for case in cases:
        total += 1
        try:
            check(case)
        except (VerificationError, AssertionError) as exc:
            failures.append({"case": repr(case), "error": str(exc)})
    return total, failures


def _report(theorem, params, total, failures):
    report = {"theorem": theorem, "params": params, "cases": total, "failures": failures}
    if "n" in params:
        report["n"] = params["n"]
    return report


def verify_counts(opts):
    nmax = int(opts.get("n") or 8)
    failures = []
    for n in range(1, nmax + 1):
        all_n = len(dg.enumerate_sym_tl(n))
        even_n = len(dg.enumerate_sym_tl_even(n))
        if all_n != comb(2 * n, n):
            failures.append({"case": f"n={n}", "error": f"|T_n| = {all_n}"})
        if even_n != comb(2 * n - 1, n):
            failures.append({"case": f"n={n}", "error": f"|T^e_n| = {even_n}"})
    return _report("prop-2.3", {"n": nmax}, nmax, failures)


def verify_seed_independence(opts):
    nmax = int(opts.get("n") or 3)
    seeds = (int(opts.get("seed") or 0), int(opts.get("seed") or 0) + 1)
    cases = []
    for n in range(1, nmax + 1):
        cases.extend(("pi", n, pi) for pi in dg.enumerate_matchings(n))
        cases.extend(("d", n, d) for d in dg.enumerate_tl(n))

    def check(case):
        kind, n, obj = case
        fn = ux.f_coefficient if kind == "pi" else ux.g_coefficient
        if fn(obj, n, seeds[0]) != fn(obj, n, seeds[1]):
            raise AssertionError(f"{kind} coefficients differ between seeds {seeds}")

    total, failures = _run(cases, check)
    return _report("thm-2.4", {"n": nmax, "seeds": seeds}, total, failures)


EXAMPLE_F_TABLE = {
    "V[]": 1,
    "V[(1,2)]": -1,
    "V[(3,4)]": -1,
    "V[(1,2)(3,4)]": 2,
    "V[(2,3)]": 0,
    "V[(1,4)(2,3)]": -1,
}


def verify_example_uncrossing(opts):
    failures = []
    pi = dg.matching([(1, 4), (2, 3)])
    for seed in (int(opts.get("seed") or 0), int(opts.get("seed") or 0) + 1):
        cmap = ux.embed_nu_pi(pi, 2, seed)
        if len(ux.enumerate_uncrossings(cmap)) != 16:
            failures.append({"case": f"seed={seed}", "error": "|X(pi)| != 16"})
        table = {D.key(): w for D, w in ux.f_coefficient(pi, 2, seed).items()}
        if table != EXAMPLE_F_TABLE:
            failures.append({"case": f"seed={seed}", "error": f"table {table}"})
    return _report("ex-2.5", {}, 2, failures)


EXAMPLE_DIAGRAM_PFAFFINANTS = {
    "V[]": "a[1,2]*a[3,4] - a[1,3]*a[2,4] + a[1,4]*a[2,3]",
    "V[(1,2)]": "-a[1,2]*a[3,4] + a[1,3]*a[2,4] - a[1,4]*a[2,3]",
    "V[(3,4)]": "-a[1,2]*a[3,4] + a[1,3]*a[2,4] - a[1,4]*a[2,3]",
    "V[(1,2)(3,4)]": "a[1,2]*a[3,4] - a[1,3]*a[2,4] + 2*a[1,4]*a[2,3]",
    "V[(2,3)]": "0",
    "V[(2,3)(1,4)]": "a[1,3]*a[2,4] - a[1,4]*a[2,3]",
}


def verify_example_diagram_pfaffinants(opts):
    A = SkewArray.symbolic(4)
    failures = []
    for key, want in EXAMPLE_DIAGRAM_PFAFFINANTS.items():
        D = dg.parse_diagram_key(key, 2)
        got = pf.diagram_pfaffinant(D, A).render()
        if got != want:
            failures.append({"case": key, "error": f"got {got}"})
    return _report("ex-2.7", {}, len(EXAMPLE_DIAGRAM_PFAFFINANTS), failures)


def _decomposition_cases(opts):
    nmax = int(opts.get("n") or 3)
    samples = int(opts.get("samples") or 0)
    cases = []
    for n in range(1, nmax + 1):
        cases.extend((n, I) for I in pf.even_subsets(2 * n))
    if samples:
        rng = random.Random(int(opts.get("seed") or 0))
        big = list(pf.even_subsets(2 * (nmax + 1)))
        cases.extend((nmax + 1, I) for I in rng.sample(big, min(samples, len(big))))
    return cases


def verify_diagram_decomposition(opts):
    cases = _decomposition_cases(opts)
    arrays = {}

    def check(case):
        n, I = case
        A = arrays.setdefault(n, SkewArray.symbolic(2 * n))
        pf.verify_diagram_decomposition(A, I)

    total, failures = _run(cases, check)
    return _report("thm-2.6", {"n": opts.get("n") or 3, "samples": opts.get("samples") or 0},
                   total, failures)


def verify_tl_decomposition(opts):
    cases = _decomposition_cases(opts)
    arrays = {}

    def check(case):
        n, I = case
        A = arrays.setdefault(n, SkewArray.symbolic(2 * n))
        pf.verify_tl_decomposition(A, I)

    total, failures = _run(cases, check)
    return _report("thm-2.12", {"n": opts.get("n") or 3, "samples": opts.get("samples") or 0},
                   total, failures)


def verify_closure_power(opts):
    nmax = int(opts.get("n") or 5)
    failures = []
    total = 0
    for n in range(1, nmax + 1):
        for D in dg.enumerate_sym_tl(n):
            total += 1
            S = dg.removal_closure(D)  # raises if not a power of two
            for D1 in S:
                if not dg.removal_closure(D1) <= S:
                    failures.append({"case": D.key(), "error": f"S({D1.key()}) escapes"})
    return _report("lem-2.8", {"n": nmax}, total, failures)


def verify_partition_property(opts):
    nmax = int(opts.get("n") or 4)
    failures = []
    total = 0
    for n in range(1, nmax + 1):
        for I in pf.even_subsets(2 * n):
            total += 1
            comp = dg.compatible_diagrams(I, n)
            blocks = [dg.removal_closure(D) for D in dg.i_maximal_diagrams(I, n)]
            union = set().union(*blocks) if blocks else set()
            if union != comp or sum(len(b) for b in blocks) != len(comp):
                failures.append({"case": f"n={n} I={sorted(I)}", "error": "not a disjoint union"})
    return _report("lem-2.9", {"n": nmax}, total, failures)


def verify_standard_bijection(opts):
    nmax = int(opts.get("n") or 5)
    failures = []
    total = 0
    for n in range(1, nmax + 1):
        seen = set()
        for D in dg.enumerate_sym_tl(n):
            total += 1
            I, Ibar = dg.standard_partition(D)
            seen.add((I, Ibar))
            if not dg.is_standard_partition(I, Ibar, n):
                failures.append({"case": D.key(), "error": "image not standard"})
            elif dg.standard_partition_inv(I, Ibar, n) != D:
                failures.append({"case": D.key(), "error": "round trip failed"})
        if len(seen) != comb(2 * n, n):
            failures.append({"case": f"n={n}", "error": "not injective"})
    return _report("lem-2.13", {"n": nmax}, total, failures)


def verify_order_compatibility(opts):
    nmax = int(opts.get("n") or 4)
    failures = []
    total = 0
    for n in range(1, nmax + 1):
        all_d = dg.enumerate_sym_tl(n)
        for D2 in all_d:
            I2 = dg.i_set(D2)
            if len(I2) % 2:
                continue
            for D in dg.compatible_diagrams(I2, n):
                total += 1
                if dg.diagram_order_key(D) > dg.diagram_order_key(D2):
                    failures.append({"case": f"{D.key()} vs {D2.key()}", "error": "order violated"})
    return _report("lem-2.15", {"n": nmax}, total, failures)


def verify_triangularity(opts):
    nmax = int(opts.get("n") or 4)
    failures = []
    for n in range(1, nmax + 1):
        try:
            pf.transition_matrix(n)
        except VerificationError as exc:
            failures.append({"case": f"n={n}", "error": str(exc)})
    return _report("prop-2.16", {"n": nmax}, nmax, failures)


def verify_basis(opts):
    nmax = int(opts.get("n") or 4)
    failures = []
    for n in range(1, nmax + 1):
        rep = pf.certify_basis(n)
        want = comb(2 * n - 1, n)
        if rep["tl_rank"] != want or rep["complementary_rank"] != want:
            failures.append({"case": f"n={n}", "error": repr(rep)})
    return _report("thm-2.17", {"n": nmax}, nmax, failures)


def _network_suite(opts):
    nmax = int(opts.get("n") or 3)
    grids = int(opts.get("grids") or 10)
    nets = []
    for n in range(1, nmax + 1):
        nets.extend(("separator", n, D) for D in dg.enumerate_sym_tl(n))
    rng_seed = int(opts.get("seed") or 0)
    nets.extend(("fence", 2, rng_seed + t) for t in range(grids))
    return nets


def _build_network(case):
    kind, n, arg = case
    if kind == "separator":
        return n, nw.construct_network_of_diagram(arg)
    return n, nw.random_fence_network(n, 6, seed=arg)


def verify_path_pfaffian(opts):
    cases = _network_suite(opts)
    failures = []
    total = 0
    for case in cases:
        n, N = _build_network(case)
        A = nw.path_weight_matrix(N)
        for I in pf.even_subsets(2 * n):
            total += 1
            if nw.q_i_weight(N, I) != complementary_pfaffian(A, I):
                failures.append({"case": f"{case} I={sorted(I)}", "error": "weights differ"})
    return _report("cor-3.2", {"n": opts.get("n") or 3}, total, failures)


def verify_network_equality(opts):
    cases = _network_suite(opts)
    failures = []
    total = 0
    for case in cases:
        n, N = _build_network(case)
        subs = nw.marked_subnetworks(N)
        A = nw.path_weight_matrix(N)
        for D in dg.enumerate_sym_tl_even(n):
            total += 1
            lhs = pf.tl_pfaffinant(D, A)
            if lhs != nw.hat_pfaf(N, D, subs):
                failures.append({"case": f"{case} {D.key()}", "error": "sides differ"})
    return _report("thm-3.6", {"n": opts.get("n") or 3}, total, failures)


def verify_separating_type(opts):
    nmax = int(opts.get("n") or 3)
    failures = []
    total = 0
    for n in range(1, nmax + 1):
        for D in dg.enumerate_sym_tl(n):
            total += 1
            N = nw.construct_network_of_diagram(D)
            subs = nw.marked_subnetworks(N)
            full = [s for s in subs
                    if s.kept == frozenset(range(len(N.edges))) and not s.marked]
            if len(full) != 1 or full[0].type != D:
                failures.append({"case": D.key(), "error": "type mismatch"})
                continue
            if nw.hat_pfaf_prime(N, D, subs).is_zero():
                failures.append({"case": D.key(), "error": "separator vanishes"})
            for Dp in dg.removal_closure(D) - {D}:
                if not nw.hat_pfaf_prime(N, Dp, subs).is_zero():
                    failures.append({"case": D.key(), "error": f"nonzero at {Dp.key()}"})
    return _report("lem-3.7", {"n": nmax}, total, failures)


def verify_covering_counts(opts):
    nmax = int(opts.get("n") or 2)
    failures = []
    total = 0
    for n in range(1, nmax + 1):
        for D in dg.enumerate_sym_tl(n):
            N = nw.construct_network_of_diagram(D)
            subs = nw.marked_subnetworks(N)
            fams = nw._families(N, lambda *a: True)
            fams = [f for f in fams if nw._triple_free(f)]
            for s in subs:
                for I in pf.even_subsets(2 * n):
                    total += 1
                    count = 0
                    for fam in fams:
                        use = {}
                        for p in fam:
                            for k in p[1]:
                                use[k] = use.get(k, 0) + 1
                        if frozenset(use) != s.kept or \
                                frozenset(k for k, c in use.items() if c == 2) != s.marked:
                            continue
                        ok = all(
                            not (set(fam[i][0]) & set(fam[j][0]))
                            for i in range(2 * n) for j in range(i + 1, 2 * n)
                            if ((i + 1) in I) == ((j + 1) in I))
                        count += ok
                    want = s.mult if dg.is_compatible(s.type, I) else 0
                    if count != want:
                        failures.append({"case": f"{D.key()} I={sorted(I)}",
                                         "error": f"count {count} != {want}"})
    return _report("lem-3.4", {"n": nmax}, total, failures)


BOOLEAN_CONE_VECTORS = [
    ((0, 1, 0, 0), True), ((0, 0, 1, 0), True), ((0, 0, 0, 1), True),
    ((1, -1, -1, 1), True), ((1, -1, 1, -1), True), ((1, 1, -1, -1), True),
    ((1, -1, 0, 0), True), ((1, 0, -1, 0), True), ((1, 0, 0, -1), True),
    ((0, -1, 0, 0), False),
]


def verify_boolean_cone(opts):
    failures = []
    for vec, want in BOOLEAN_CONE_VECTORS:
        if pf.boolean_cone_check(3, "odd", vec) != want:
            failures.append({"case": repr(vec), "error": f"expected {want}"})
    return _report("ex-3.13", {}, len(BOOLEAN_CONE_VECTORS), failures)


def verify_min_partition_monotone(opts):
    nmax = int(opts.get("n") or 5)
    failures = []
    total = 0
    for n in range(1, nmax + 1):
        for I in pf.even_subsets(2 * n):
            if len(I) < n:
                continue
            total += 1
            mn = min_partition(I, 2 * n)
            if not dg.compatible_diagrams(I, n) <= dg.compatible_diagrams(mn, n):
                failures.append({"case": f"n={n} I={sorted(I)}", "error": "containment fails"})
    # cone membership of the min differences at n = 2, 3
    for n in (2, min(3, nmax)):
        for I in pf.even_subsets(2 * n):
            if len(I) < n or not I:
                continue
            total += 1
            verdict = pf.cone_membership(pf.min_difference_element(I, n))
            if not verdict.positive:
                failures.append({"case": f"n={n} I={sorted(I)}",
                                 "error": f"witness {verdict.witness.key()}"})
    return _report("prop-3.14", {"n": nmax}, total, failures)


def verify_cone_restriction(opts):
    nmax = int(opts.get("n") or 3)
    rng = random.Random(int(opts.get("seed") or 0))
    failures = []
    total = 0
    for n in range(2, nmax + 1):
        even = dg.enumerate_sym_tl_even(n)
        elements = [pf.ConeElement.from_dict(n, {D: 1}) for D in even]
        for I in pf.even_subsets(2 * n):
            if len(I) >= n and I:
                elements.append(pf.min_difference_element(I, n))
        for _ in range(10):
            elements.append(pf.ConeElement.from_dict(
                n, {D: rng.randrange(0, 3) for D in even}))
        maximal = pf.maximal_diagrams(n)
        for c in elements:
            if not pf.cone_membership(c).positive:
                continue
            for Dm in maximal:
                total += 1
                keep = dg.removal_closure(Dm)
                if not pf.cone_membership(c.restrict(keep)).positive:
                    failures.append({"case": f"n={n} {Dm.key()}", "error": "restriction leaves cone"})
    return _report("lem-3.12", {"n": nmax}, total, failures)


def verify_imm_decomposition(opts):
    nmax = int(opts.get("n") or 3)
    failures = []
    total = 0
    for n in range(1, nmax + 1):
        B = im.symbolic_square(n)
        for k in range(0, n + 1):
            for I in combinations(range(1, n + 1), k):
                for J in combinations(range(1, n + 1), k):
                    total += 1
                    try:
                        im.verify_imm_decomposition(B, I, J)
                    except VerificationError as exc:
                        failures.append({"case": f"n={n} I={I} J={J}", "error": str(exc)})
    return _report("thm-4.1", {"n": nmax}, total, failures)


def verify_block_sign_law(opts):
    nmax = int(opts.get("n") or 3)
    failures = []
    total = 0
    for n in range(1, nmax + 1):
        A, B = im.block_pair(n)
        for I in pf.even_subsets(2 * n):
            total += 1
            lhs = complementary_pfaffian(A, I)
            I1 = sorted(i for i in I if i <= n)
            I2 = sorted(i - n for i in I if i > n)
            if len(I1) != len(I) // 2:
                ok = lhs.is_zero()
            else:
                I1bar = [p for p in range(1, n + 1) if p not in I1]
                I2bar = [p for p in range(1, n + 1) if p not in I2]
                sign = (-1) ** (comb(len(I1), 2) + comb(len(I1bar), 2))
                ok = lhs == sign * minor(B, I1, I2) * minor(B, I1bar, I2bar)
            if not ok:
                failures.append({"case": f"n={n} I={sorted(I)}", "error": "sign law fails"})
    return _report("lem-4.2", {"n": nmax}, total, failures)


def verify_bridge(opts):
    nmax = int(opts.get("n") or 3)
    failures = []
    total = 0
    for n in range(1, nmax + 1):
        for D in dg.enumerate_sym_tl_even(n):
            total += 1
            try:
                im.verify_pfaffinant_immanant_bridge(n, diagrams=[D])
            except VerificationError as exc:
                failures.append({"case": f"n={n} {D.key()}", "error": str(exc)})
    return _report("thm-4.3", {"n": nmax}, total, failures)


def verify_pf_squared(opts):
    nmax = int(opts.get("n") or 3)
    failures = []
    for n in range(1, nmax + 1):
        A = SkewArray.symbolic(2 * n)
        if pfaffian(A) ** 2 != determinant(skew_to_matrix(A)):
            failures.append({"case": f"n={n}", "error": "pf^2 != det"})
    return _report("thm-4.4", {"n": nmax}, nmax, failures)


QUADRATIC_TABLE_ROWS = {
    # coefficients on (L^2, L*M, L*N, M^2, M*N, N^2); the L*M entry of the
    # seventh diagram is 2 by unique expansion (cross-checked numerically),
    # not 1 as sometimes printed
    "T[(1,8)(2,7)(3,6)(4,5)]": (1, 0, 0, 0, 0, 0),
    "T[(1,2)(3,6)(4,5)(7,8)]": (-1, 0, 0, 0, 0, 0),
    "T[(1,2)(3,8)(4,5)(6,7)]": (0, -1, 0, 0, 0, 0),
    "T[(1,2)(3,8)(4,7)(5,6)]": (-1, 0, -1, 0, 0, 0),
    "T[(1,8)(2,3)(4,5)(6,7)]": (0, 2, 0, 0, 0, 0),
    "T[(1,4)(2,3)(5,8)(6,7)]": (0, 0, 0, 1, 0, 0),
    "T[(1,2)(3,4)(5,8)(6,7)]": (1, 2, 1, 0, 1, 0),
    "T[(1,2)(3,4)(5,6)(7,8)]": (2, 0, 2, 0, 0, 1),
}


def verify_quadratic_table(opts):
    rows = {r["diagram"]: r for r in im.quadratic_relation_table()}
    failures = []
    total = 0
    for key, want in QUADRATIC_TABLE_ROWS.items():
        total += 1
        row = rows.get(key)
        got = None if row is None or not row["in_span"] else \
            tuple(row["coefficients"][lbl] for lbl in ("L^2", "L*M", "L*N", "M^2", "M*N", "N^2"))
        if got != want:
            failures.append({"case": key, "error": f"got {got}"})
    for key, row in rows.items():
        total += 1
        if not row["in_span"]:
            failures.append({"case": key, "error": "not in span of products"})
    return _report("tab-4.3", {}, total, failures)


def verify_non_span_witness(opts):
    rep = im.non_span_witness()
    failures = [] if not rep["in_span"] else [{"case": rep["diagram"], "error": "in span"}]
    return _report("witness-4.3", {}, 1, failures)


def verify_jacobi_trudi(opts):
    max_size = int(opts.get("max_size") or 8)
    k = int(opts.get("k") or 4)
    failures = []
    total = 0
    for tot in range(1, max_size + 1):
        for lam in sq.strict_partitions(tot):
            for mu in sq.strict_subpartitions(lam):
                total += 1
                if sq.q_from_pfaffian(lam, mu, k) != sq.schur_q_tableaux(lam, mu, k):
                    failures.append({"case": f"{lam}/{mu}", "error": "pfaffian != tableau sum"})
    # reversed-H sign variant on a sample
    for lam, mu in (((3, 1), (2,)), ((4, 2), (3, 1)), ((5, 3, 1), (2, 1))):
        total += 1
        A = sq.q_jt_matrix(lam, mu, 3)
        At = sq.q_jt_matrix(lam, mu, 3, reversed_h=True)
        if pfaffian(A) != (-1) ** comb(len(mu), 2) * pfaffian(At):
            failures.append({"case": f"{lam}/{mu} reversed", "error": "sign variant fails"})
    return _report("thm-5.2", {"max_size": max_size, "k": k}, total, failures)


def verify_monomial_positivity(opts):
    """Cone generators evaluate monomial-nonnegatively on plain (non-skew)
    generalized arrays; the skew extension is recorded as false elsewhere."""
    bound = int(opts.get("bound") or 6)
    n = int(opts.get("n") or 2)
    failures = []
    total = 0
    funcs = {D: pf.tl_functional(D) for D in dg.enumerate_sym_tl_even(n)}
    for pi in sq.weakly_decreasing_parts(bound, 2 * n):
        k = max(1, sum(pi))
        A = sq.q_jt_matrix(list(pi), [], k, allow_nonstrict=True)
        for D, f in funcs.items():
            total += 1
            m = sq.monomial_expand(f.evaluate(A), k)
            if m is None or any(c < 0 for c in m.values()):
                failures.append({"case": f"pi={pi} {D.key()}", "error": "negative monomial"})
    return _report("thm-5.4", {"n": n, "bound": bound}, total, failures)


def verify_min_difference_bridge(opts):
    bound = int(opts.get("bound") or 8)
    k = int(opts.get("k") or 4)
    failures = []
    total = 0
    parts = [()]
    for t in range(1, bound + 1):
        parts.extend(sq.strict_partitions(t))
    for i, lam in enumerate(parts):
        for nu in parts[i:]:
            if not lam or sum(lam) + sum(nu) > bound:
                continue
            total += 1
            try:
                sq.verify_min_difference_q(lam, nu, k)
            except VerificationError as exc:
                failures.append({"case": f"{lam},{nu}", "error": str(exc)})
    return _report("prop-5.6", {"bound": bound, "k": k}, total, failures)


def verify_span_probe(opts):
    n = int(opts.get("n") or 3)
    rows = pf.check_pfafprime_in_span(n)
    return _report("probe-2.5", {"n": n, "in_span": sum(r["in_span"] for r in rows)},
                   len(rows), [])


REGISTRY = {
    "prop-2.3": verify_counts,
    "thm-2.4": verify_seed_independence,
    "ex-2.5": verify_example_uncrossing,
    "thm-2.6": verify_diagram_decomposition,
    "ex-2.7": verify_example_diagram_pfaffinants,
    "lem-2.8": verify_closure_power,
    "lem-2.9": verify_partition_property,
    "thm-2.12": verify_tl_decomposition,
    "lem-2.13": verify_standard_bijection,
    "lem-2.15": verify_order_compatibility,
    "prop-2.16": verify_triangularity,
    "thm-2.17": verify_basis,
    "probe-2.5": verify_span_probe,
    "cor-3.2": verify_path_pfaffian,
    "lem-3.4": verify_covering_counts,
    "thm-3.6": verify_network_equality,
    "lem-3.7": verify_separating_type,
    "ex-3.13": verify_boolean_cone,
    "lem-3.12": verify_cone_restriction,
    "prop-3.14": verify_min_partition_monotone,
    "thm-4.1": verify_imm_decomposition,
    "lem-4.2": verify_block_sign_law,
    "thm-4.3": verify_bridge,
    "thm-4.4": verify_pf_squared,
    "tab-4.3": verify_quadratic_table,
    "witness-4.3": verify_non_span_witness,
    "thm-5.2": verify_jacobi_trudi,
    "thm-5.4": verify_monomial_positivity,
    "prop-5.6": verify_min_difference_bridge,
}


def run(theorem_id: str, opts=None) -> dict:
    if theorem_id not in REGISTRY:
        raise KeyError(theorem_id)
    return REGISTRY[theorem_id](opts or {})
