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
from operator import itemgetter

from . import diagrams as dg
from . import immanants as im
from . import networks as nw
from . import pfaffinants as pf
from . import schurq as sq
from . import uncross as ux
from .pfaffian import (SkewArray, complementary_pfaffian, determinant, min_partition,
                       minor, pfaffian, skew_to_matrix)
from .pfaffinants import VerificationError
from .poly import UsageError


def _opt(opts, key, default):
    """Option ``key`` as an int; ``default`` only if it is missing or None."""
    value = default if opts.get(key) is None else int(opts[key])
    if key in ("n", "k") and value < 1:
        raise UsageError(f"option {key} must be a positive integer, got {value}")
    return value


def _run(theorem, params, cases, check, label=repr):
    """Run ``check`` on every case and report.

    A case fails when ``check`` returns an error message (not None) or
    raises VerificationError or AssertionError; ``label(case)`` names it.
    """
    failures = []
    total = 0
    for case in cases:
        total += 1
        try:
            error = check(case)
        except (VerificationError, AssertionError) as exc:
            error = str(exc)
        if error is not None:
            failures.append({"case": label(case), "error": error})
    return _report(theorem, params, total, failures)


def _n_subset_label(case):
    """Label of a case (n, I, ...)."""
    return f"n={case[0]} I={sorted(case[1])}"


def _subset_cases(nmax):
    for n in range(1, nmax + 1):
        yield from ((n, I) for I in pf.even_subsets(2 * n))


def _report(theorem, params, total, failures):
    report = {"theorem": theorem, "params": params, "cases": total, "failures": failures}
    if "n" in params:
        report["n"] = params["n"]
    return report


def verify_counts(opts):
    nmax = _opt(opts, "n", 8)

    def check(n):
        all_n = len(dg.enumerate_sym_tl(n))
        even_n = len(dg.enumerate_sym_tl_even(n))
        errors = [f"|T_n| = {all_n}"] if all_n != comb(2 * n, n) else []
        if even_n != comb(2 * n - 1, n):
            errors.append(f"|T^e_n| = {even_n}")
        return "; ".join(errors) or None

    return _run("prop-2.3", {"n": nmax}, range(1, nmax + 1), check, "n={}".format)


def verify_seed_independence(opts):
    nmax = _opt(opts, "n", 3)
    seeds = (_opt(opts, "seed", 0), _opt(opts, "seed", 0) + 1)
    cases = []
    for n in range(1, nmax + 1):
        cases.extend(("pi", n, pi) for pi in dg.enumerate_matchings(n))
        cases.extend(("d", n, d) for d in dg.enumerate_tl(n))

    def check(case):
        kind, n, obj = case
        fn = ux.f_coefficient if kind == "pi" else ux.g_coefficient
        if fn(obj, n, seeds[0]) != fn(obj, n, seeds[1]):
            return f"{kind} coefficients differ between seeds {seeds}"

    return _run("thm-2.4", {"n": nmax, "seeds": seeds}, cases, check)


EXAMPLE_F_TABLE = {
    "V[]": 1,
    "V[(1,2)]": -1,
    "V[(3,4)]": -1,
    "V[(1,2)(3,4)]": 2,
    "V[(2,3)]": 0,
    "V[(1,4)(2,3)]": -1,
}


def verify_example_uncrossing(opts):
    pi = dg.matching([(1, 4), (2, 3)])

    def check(seed):
        # |X(pi)|: each class resolves two ways
        errors = ["|X(pi)| != 16"] if 2 ** ux.embed_nu_pi(pi, 2, seed).num_classes != 16 else []
        table = {D.key(): w for D, w in ux.f_coefficient(pi, 2, seed).items()}
        if table != EXAMPLE_F_TABLE:
            errors.append(f"table {table}")
        return "; ".join(errors) or None

    seed = _opt(opts, "seed", 0)
    return _run("ex-2.5", {}, (seed, seed + 1), check, "seed={}".format)


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

    def check(item):
        key, want = item
        got = pf.diagram_pfaffinant(dg.parse_diagram_key(key, 2), A).render()
        if got != want:
            return f"got {got}"

    return _run("ex-2.7", {}, EXAMPLE_DIAGRAM_PFAFFINANTS.items(), check, itemgetter(0))


def _decomposition_cases(opts):
    nmax = _opt(opts, "n", 3)
    samples = _opt(opts, "samples", 0)
    cases = list(_subset_cases(nmax))
    if samples:
        rng = random.Random(_opt(opts, "seed", 0))
        big = list(pf.even_subsets(2 * (nmax + 1)))
        cases.extend((nmax + 1, I) for I in rng.sample(big, min(samples, len(big))))
    return cases


def _decomposition(theorem, identity, opts):
    """Check ``identity(A, I)`` at every (n, I) of the decomposition cases."""
    arrays = {}

    def check(case):
        n, I = case
        if n not in arrays:
            arrays[n] = SkewArray.symbolic(2 * n)
        identity(arrays[n], I)

    params = {"n": _opt(opts, "n", 3), "samples": _opt(opts, "samples", 0),
              "seed": _opt(opts, "seed", 0)}
    return _run(theorem, params, _decomposition_cases(opts), check)


def verify_diagram_decomposition(opts):
    return _decomposition("thm-2.6", pf.verify_diagram_decomposition, opts)


def verify_tl_decomposition(opts):
    return _decomposition("thm-2.12", pf.verify_tl_decomposition, opts)


def verify_closure_power(opts):
    nmax = _opt(opts, "n", 5)

    def check(D):
        S = dg.removal_closure(D)  # raises AssertionError if not a power of two
        escapes = [f"S({D1.key()}) escapes" for D1 in sorted(S, key=dg.diagram_order_key)
                   if not dg.removal_closure(D1) <= S]
        return "; ".join(escapes) or None

    cases = (D for n in range(1, nmax + 1) for D in dg.enumerate_sym_tl(n))
    return _run("lem-2.8", {"n": nmax}, cases, check, lambda D: D.key())


def verify_partition_property(opts):
    nmax = _opt(opts, "n", 4)

    def check(case):
        n, I = case
        comp = dg.compatible_diagrams(I, n)
        blocks = [dg.removal_closure(D) for D in dg.i_maximal_diagrams(I, n)]
        if set().union(*blocks) != comp or sum(len(b) for b in blocks) != len(comp):
            return "not a disjoint union"

    return _run("lem-2.9", {"n": nmax}, _subset_cases(nmax), check, _n_subset_label)


def verify_standard_bijection(opts):
    nmax = _opt(opts, "n", 5)
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
    nmax = _opt(opts, "n", 4)

    def cases():
        for n in range(1, nmax + 1):
            for D2 in dg.enumerate_sym_tl(n):
                I2 = dg.i_set(D2)
                if len(I2) % 2 == 0:
                    yield from ((D, D2) for D in dg.compatible_diagrams(I2, n))

    def check(case):
        D, D2 = case
        if dg.diagram_order_key(D) > dg.diagram_order_key(D2):
            return "order violated"

    return _run("lem-2.15", {"n": nmax}, cases(), check, lambda c: f"{c[0].key()} vs {c[1].key()}")


def verify_triangularity(opts):
    nmax = _opt(opts, "n", 4)

    def check(n):
        pf.transition_matrix(n)  # raises unless unit upper triangular

    return _run("prop-2.16", {"n": nmax}, range(1, nmax + 1), check, "n={}".format)


def verify_basis(opts):
    nmax = _opt(opts, "n", 4)

    def check(n):
        rep = pf.certify_basis(n)
        want = comb(2 * n - 1, n)
        if rep["tl_rank"] != want or rep["complementary_rank"] != want:
            return repr(rep)

    return _run("thm-2.17", {"n": nmax}, range(1, nmax + 1), check, "n={}".format)


def _network_params(opts):
    """The options that pick the network suite of ``_networks``."""
    return {"n": _opt(opts, "n", 3), "grids": _opt(opts, "grids", 10),
            "seed": _opt(opts, "seed", 0)}


def _networks(opts):
    """(case, n, N) for each network of the suite, built when it is reached.

    The case, ("separator", n, D) or ("fence", 2, seed), labels failures.
    """
    params = _network_params(opts)
    for n in range(1, params["n"] + 1):
        for D in dg.enumerate_sym_tl(n):
            yield ("separator", n, D), n, nw.construct_network_of_diagram(D)
    for seed in range(params["seed"], params["seed"] + params["grids"]):
        yield ("fence", 2, seed), 2, nw.random_fence_network(2, 6, seed=seed)


def verify_path_pfaffian(opts):
    def cases():
        for net, n, N in _networks(opts):
            A = nw.path_weight_matrix(N)
            yield from ((net, N, A, I) for I in pf.even_subsets(2 * n))

    def check(case):
        _, N, A, I = case
        if nw.q_i_weight(N, I) != complementary_pfaffian(A, I):
            return "weights differ"

    return _run("cor-3.2", _network_params(opts), cases(), check,
                lambda c: f"{c[0]} I={sorted(c[-1])}")


def verify_network_equality(opts):
    def cases():
        for net, n, N in _networks(opts):
            subs = nw.marked_subnetworks(N)
            A = nw.path_weight_matrix(N)
            yield from ((net, N, subs, A, D) for D in dg.enumerate_sym_tl_even(n))

    def check(case):
        _, N, subs, A, D = case
        if pf.tl_pfaffinant(D, A) != nw.hat_pfaf(N, D, subs):
            return "sides differ"

    return _run("thm-3.6", _network_params(opts), cases(), check,
                lambda c: f"{c[0]} {c[-1].key()}")


def verify_separating_type(opts):
    nmax = _opt(opts, "n", 3)

    def check(D):
        N = nw.construct_network_of_diagram(D)
        subs = nw.marked_subnetworks(N)
        full = [s for s in subs if s.kept == frozenset(range(len(N.edges))) and not s.marked]
        if len(full) != 1 or full[0].type != D:
            return "type mismatch"
        errors = ["separator vanishes"] if nw.hat_pfaf_prime(N, D, subs).is_zero() else []
        errors.extend(f"nonzero at {Dp.key()}" for Dp in dg.removal_closure(D) - {D}
                      if not nw.hat_pfaf_prime(N, Dp, subs).is_zero())
        return "; ".join(errors) or None

    cases = (D for n in range(1, nmax + 1) for D in dg.enumerate_sym_tl(n))
    return _run("lem-3.7", {"n": nmax}, cases, check, lambda D: D.key())


def verify_covering_counts(opts):
    nmax = _opt(opts, "n", 2)

    def cases():
        for n in range(1, nmax + 1):
            for D in dg.enumerate_sym_tl(n):
                N = nw.construct_network_of_diagram(D)
                counts = {I: nw.i_disjoint_counts(N, I) for I in pf.even_subsets(2 * n)}
                for row, s in enumerate(nw.marked_subnetworks(N)):
                    yield from ((D, s, I, counts[I][row]) for I in counts)

    def check(case):
        _, s, I, count = case
        want = s.mult if dg.is_compatible(s.type, I) else 0
        if count != want:
            return f"count {count} != {want}"

    return _run("lem-3.4", {"n": nmax}, cases(), check, lambda c: f"{c[0].key()} I={sorted(c[2])}")


BOOLEAN_CONE_VECTORS = [
    ((0, 1, 0, 0), True), ((0, 0, 1, 0), True), ((0, 0, 0, 1), True),
    ((1, -1, -1, 1), True), ((1, -1, 1, -1), True), ((1, 1, -1, -1), True),
    ((1, -1, 0, 0), True), ((1, 0, -1, 0), True), ((1, 0, 0, -1), True),
    ((0, -1, 0, 0), False),
]


def verify_boolean_cone(opts):
    def check(item):
        vec, want = item
        if pf.boolean_cone_check(3, "odd", vec) != want:
            return f"expected {want}"

    return _run("ex-3.13", {}, BOOLEAN_CONE_VECTORS, check, lambda item: repr(item[0]))


def verify_min_partition_monotone(opts):
    nmax = _opt(opts, "n", 5)

    def cases():
        yield from ((n, I, "contain") for n, I in _subset_cases(nmax) if len(I) >= n)
        # cone membership of the min differences at n = 2, 3
        for n in (2, min(3, nmax)):
            yield from ((n, I, "cone") for I in pf.even_subsets(2 * n) if len(I) >= n and I)

    def check(case):
        n, I, kind = case
        if kind == "contain":
            mn = min_partition(I, 2 * n)
            if not dg.compatible_diagrams(I, n) <= dg.compatible_diagrams(mn, n):
                return "containment fails"
            return None
        verdict = pf.cone_membership(pf.min_difference_element(I, n))
        if not verdict.positive:
            return f"witness {verdict.witness.key()}"

    return _run("prop-3.14", {"n": nmax}, cases(), check, _n_subset_label)


def verify_cone_restriction(opts):
    nmax = _opt(opts, "n", 3)
    rng = random.Random(_opt(opts, "seed", 0))

    def cases():
        for n in range(2, nmax + 1):
            maximal = pf.maximal_diagrams(n)
            # empty min-difference elements lie in the cone and count as cases
            for _, c in pf.cone_elements(n, rng, 10):
                if pf.cone_membership(c).positive:
                    yield from ((n, c, Dm) for Dm in maximal)

    def check(case):
        _, c, Dm = case
        if not pf.cone_membership(c.restrict(dg.removal_closure(Dm))).positive:
            return "restriction leaves cone"

    return _run("lem-3.12", {"n": nmax}, cases(), check, lambda c: f"n={c[0]} {c[-1].key()}")


def verify_imm_decomposition(opts):
    nmax = _opt(opts, "n", 3)

    def cases():
        for n in range(1, nmax + 1):
            for k in range(0, n + 1):
                for I in combinations(range(1, n + 1), k):
                    yield from ((n, I, J) for J in combinations(range(1, n + 1), k))

    def check(case):
        im.verify_imm_decomposition(*case)

    return _run("thm-4.1", {"n": nmax}, cases(), check, lambda c: f"n={c[0]} I={c[1]} J={c[2]}")


def verify_block_sign_law(opts):
    nmax = _opt(opts, "n", 3)

    def cases():
        for n in range(1, nmax + 1):
            A, B = im.block_pair(n)
            yield from ((n, I, A, B) for I in pf.even_subsets(2 * n))

    def check(case):
        n, I, A, B = case
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
            return "sign law fails"

    return _run("lem-4.2", {"n": nmax}, cases(), check, _n_subset_label)


def verify_bridge(opts):
    nmax = _opt(opts, "n", 3)

    def check(case):
        n, D = case
        im.verify_pfaffinant_immanant_bridge(n, D)

    cases = ((n, D) for n in range(1, nmax + 1) for D in dg.enumerate_sym_tl_even(n))
    return _run("thm-4.3", {"n": nmax}, cases, check, lambda c: f"n={c[0]} {c[1].key()}")


def verify_pf_squared(opts):
    nmax = _opt(opts, "n", 3)

    def check(n):
        A = SkewArray.symbolic(2 * n)
        if pfaffian(A) ** 2 != determinant(skew_to_matrix(A)):
            return "pf^2 != det"

    return _run("thm-4.4", {"n": nmax}, range(1, nmax + 1), check, "n={}".format)


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

    def check(case):
        key, want = case
        row = rows.get(key)
        if want is None:  # every computed row must lie in the span
            return None if row["in_span"] else "not in span of products"
        got = None if row is None or not row["in_span"] else \
            tuple(row["coefficients"][lbl] for lbl in ("L^2", "L*M", "L*N", "M^2", "M*N", "N^2"))
        if got != want:
            return f"got {got}"

    cases = [*QUADRATIC_TABLE_ROWS.items(), *((key, None) for key in rows)]
    return _run("tab-4.3", {}, cases, check, itemgetter(0))


def verify_non_span_witness(opts):
    def check(rep):
        return "in span" if rep["in_span"] else None

    return _run("witness-4.3", {}, [im.non_span_witness()], check, itemgetter("diagram"))


def verify_jacobi_trudi(opts):
    max_size = _opt(opts, "max_size", 8)
    k = _opt(opts, "k", 4)

    def cases():
        for tot in range(1, max_size + 1):
            for lam in sq.strict_partitions(tot):
                yield from ((lam, mu, False) for mu in sq.strict_subpartitions(lam))
        # reversed-H sign variant on a sample
        for lam, mu in (((3, 1), (2,)), ((4, 2), (3, 1)), ((5, 3, 1), (2, 1))):
            yield lam, mu, True

    def check(case):
        lam, mu, reversed_h = case
        if not reversed_h:
            if sq.q_from_pfaffian(lam, mu, k) != sq.schur_q(lam, mu, k):
                return "pfaffian != tableau sum"
            return None
        A = sq.q_jt_matrix(lam, mu, 3)
        At = sq.q_jt_matrix(lam, mu, 3, reversed_h=True)
        if pfaffian(A) != (-1) ** comb(len(mu), 2) * pfaffian(At):
            return "sign variant fails"

    return _run("thm-5.2", {"max_size": max_size, "k": k}, cases(), check,
                lambda c: f"{c[0]}/{c[1]}" + (" reversed" if c[2] else ""))


def verify_monomial_positivity(opts):
    """Cone generators evaluate monomial-nonnegatively on plain (non-skew)
    generalized arrays; the skew extension is recorded as false elsewhere."""
    bound = _opt(opts, "bound", 6)
    n = _opt(opts, "n", 2)
    funcs = {D: pf.tl_functional(D) for D in dg.enumerate_sym_tl_even(n)}

    def cases():
        for pi in sq.weakly_decreasing_parts(bound, 2 * n):
            k = max(1, sum(pi))
            A = sq.q_jt_matrix(list(pi), [], k, allow_nonstrict=True)
            yield from ((pi, D, f, k, A) for D, f in funcs.items())

    def check(case):
        _, _, f, k, A = case
        m = sq.monomial_expand(f.evaluate(A), k)
        if m is None or any(c < 0 for c in m.values()):
            return "negative monomial"

    return _run("thm-5.4", {"n": n, "bound": bound}, cases(), check,
                lambda c: f"pi={c[0]} {c[1].key()}")


def verify_min_difference_bridge(opts):
    bound = _opt(opts, "bound", 8)
    k = _opt(opts, "k", 4)
    parts = [()]
    for t in range(1, bound + 1):
        parts.extend(sq.strict_partitions(t))

    def check(case):
        sq.verify_min_difference_q(*case, k)

    cases = ((lam, nu) for i, lam in enumerate(parts) for nu in parts[i:]
             if lam and sum(lam) + sum(nu) <= bound)
    return _run("prop-5.6", {"bound": bound, "k": k}, cases, check, lambda c: f"{c[0]},{c[1]}")


def verify_span_probe(opts):
    n = _opt(opts, "n", 3)
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
