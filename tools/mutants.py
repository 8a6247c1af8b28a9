"""Mutation checks: each mutant is one snippet change to the library that
the tests it names must catch.

    python tools/mutants.py [--jobs N] [NAME ...]

With no NAME every mutant runs.  The script works in copies of
``src/``, ``tests/`` and ``pyproject.toml`` in a fresh temporary
directory (under ``$TMPDIR`` if set), removed at the end.  It first runs
the named tests of the selected mutants on an unchanged copy, where they
must pass.  Then, for each mutant, it replaces the snippet in a new copy
and runs the mutant's tests there with ``python -m pytest -x``.  A mutant
is killed when its tests fail.  The checkout itself is never changed.
``--jobs N`` (a positive integer, default 1) runs up to min(N, number of
mutants) mutants at once, each still in its own copy; the report keeps
the table's order whatever order they finish in.

Exit codes: 0 every mutant killed, 1 a mutant survived, 2 an error: a
snippet that does not occur exactly once in its file, an unknown NAME,
tests that fail unmutated, or a pytest run that ends in anything but a
pass or a test failure (a collection error, no tests, a timeout).

Stdlib only, and not part of the tier-1 suite.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml")
TIMEOUT_S = 900


class Mutant(NamedTuple):
    name: str
    path: str       # relative to the checkout
    old: str        # must occur exactly once in the file
    new: str
    tests: tuple    # pytest node ids, relative to the checkout


UNCROSS = "src/pfaflab/uncross.py"
POLY = "src/pfaflab/poly.py"
SCHURQ = "src/pfaflab/schurq.py"
NETWORKS = "src/pfaflab/networks.py"
CLI = "src/pfaflab/cli.py"
IMMANANTS = "src/pfaflab/immanants.py"
T_UNCROSS = "tests/test_uncross.py::"
T_NETWORKS = "tests/test_networks.py::"
T_CLI = "tests/test_cli.py::"
T_SCHURQ = "tests/test_schurq.py::"
T_PFAFFINANTS = "tests/test_pfaffinants.py::"
T_IMMANANTS = "tests/test_immanants.py::"

MUTANTS = (
    # -- one-pass chord maps: concurrency from ties, one owner for the ends
    Mutant("tie-check-always-passes", UNCROSS,
           "            if all(a[0] != b[0] for crossings_on in along\n",
           "            if True or all(a[0] != b[0] for crossings_on in along\n",
           (T_UNCROSS + "test_concurrency_is_a_tie_along_a_chord[0]",)),
    Mutant("boundary-end-side-off-by-one", UNCROSS,
           "            self.boundary_end[q] = 2 * total - 1\n",
           "            self.boundary_end[q] = 2 * total - 2\n",
           (T_UNCROSS + "test_nested_pair_census_and_table",)),
    Mutant("diagram-without-a-tl-presentation-in-the-cone", SCHURQ,
           "        return False\n    return cone_membership(",
           "        return True\n    return cone_membership(",
           (T_SCHURQ + "test_diagram_in_cone_reads_the_cone_membership",)),
    Mutant("bridge-rebuilds-g-tilde-per-pair", "src/pfaflab/immanants.py",
           "g_tilde[d].get(Dp, 0)",
           "g_tilde_coefficient(d, n).get(Dp, 0)",
           ("tests/test_immanants.py::test_bridge_builds_each_g_tilde_table_once",)),
    # -- integer geometry and the per-placement and per-strand-set memos
    Mutant("crossing-memo-without-retry", UNCROSS,
           '''@lru_cache(maxsize=None)
def _chord_crossing(n: int, seed: int, retry: int, c1: tuple, c2: tuple):
    """_segment_crossing of two chords, given as position pairs, in one placement."""
    pts = _boundary_points(n, seed, retry)
''',
           '''_CROSSINGS = {}


def _chord_crossing(n: int, seed: int, retry: int, c1: tuple, c2: tuple):
    if (n, seed, c1, c2) in _CROSSINGS:
        return _CROSSINGS[n, seed, c1, c2]
    pts = _boundary_points(n, seed, retry)
    _CROSSINGS[n, seed, c1, c2] = _segment_crossing(pts[c1[0]], pts[c1[1]], pts[c2[0]], pts[c2[1]])
''',
           (T_UNCROSS + "test_concurrency_retry",)),
    Mutant("diagram-memo-without-n", UNCROSS,
           '''@lru_cache(maxsize=None)
def _final_diagram(n: int, strands: frozenset) -> SymTLDiagram:
''',
           '''_DIAGRAMS = {}


def _final_diagram(n: int, strands: frozenset) -> SymTLDiagram:
    if strands not in _DIAGRAMS:
        _DIAGRAMS[strands] = sym_diagram(n, _left_edges(n, strands))
    return _DIAGRAMS[strands]
''',
           (T_UNCROSS + "test_final_diagram_checks_each_input",)),
    Mutant("no-denominator-sign-normalisation", UNCROSS,
           '''    if den < 0:
        return -t, -u, -den
''', "",
           (T_UNCROSS + "test_segment_crossing_matches_fraction_oracle",)),
    Mutant("unchecked-strands-on-a-memo-miss", UNCROSS,
           "    return sym_diagram(n, _left_edges(n, strands))\n",
           "    return sym_diagram(n, [(p, q) for p, q in strands if q <= 2 * n])\n",
           (T_UNCROSS + "test_final_diagram_checks_each_input",)),
    Mutant("poly-prod-keeps-a-lone-number", POLY,
           '''    if not isinstance(total, Poly):
        total = Poly.const(total)
''', "",
           ("tests/test_poly.py::test_poly_prod_returns_a_poly",)),
    # -- the uncrossing fold
    Mutant("fold-without-loop-factor", UNCROSS,
           "nxt[new] = nxt.get(new, 0) + ((s * weight) << loops)",
           "nxt[new] = nxt.get(new, 0) + (s * weight)",
           (T_UNCROSS + "test_nested_pair_census_and_table",)),
    Mutant("fold-drops-zero-weight-states", UNCROSS,
           "        states = nxt\n",
           "        states = {k: w for k, w in nxt.items() if w}\n",
           (T_UNCROSS + "test_nested_pair_census_and_table",)),
    Mutant("state-bound-off-by-one", UNCROSS,
           "        if len(nxt) > DEFAULT_STATE_BOUND:\n",
           "        if len(nxt) >= DEFAULT_STATE_BOUND:\n",
           (T_UNCROSS + "test_state_bound_is_the_peak",)),
    Mutant("fold-counts-each-loop-orbit-twice", UNCROSS,
           "            seen.update(mirror_of[end] for end in ring)\n", "",
           (T_UNCROSS + "test_nested_pair_census_and_table",)),
    Mutant("fold-drops-a-mate-update", UNCROSS,
           "                        mate[pos[mb]] = ma\n", "",
           (T_UNCROSS + "test_nested_pair_census_and_table",)),
    Mutant("fold-swaps-the-resolution-signs", UNCROSS,
           'sign = -1 if cmap.class_kind[ci] == "unpaired" else 1',
           'sign = 1 if cmap.class_kind[ci] == "unpaired" else -1',
           (T_UNCROSS + "test_n1_f_table_consistent_with_decomposition",)),
    # -- the conjugation recursion for the tables of [2n]
    # the generator step is shared with the TL immanants' walk
    Mutant("recursion-horizontal-sign-flipped", UNCROSS,
           "        nxt[r] = (nxt[r] or 0) - w\n",
           "        nxt[r] = (nxt[r] or 0) + w\n",
           (T_UNCROSS + "test_recursion_matches_fold[3-0]",
            T_IMMANANTS + "test_walk_matches_the_fold[3]")),
    Mutant("recursion-without-loop-factor", UNCROSS,
           "nxt[v] = (nxt[v] or 0) + (w << loops)",
           "nxt[v] = (nxt[v] or 0) + w",
           (T_UNCROSS + "test_recursion_matches_fold[3-0]",
            T_IMMANANTS + "test_walk_matches_the_fold[3]")),
    Mutant("recursion-reaches-every-diagram", UNCROSS,
           "        if w is None:\n            continue\n",
           "        w = w or 0\n",
           (T_UNCROSS + "test_recursion_matches_fold[3-0]",
            T_IMMANANTS + "test_walk_matches_the_fold[3]")),
    # -- TL immanants on the generator step: the walk over S_n
    Mutant("tl-cup-cap-keyed-at-the-height", IMMANANTS,
           "caps[2 * n - k]", "caps[k]",
           (T_IMMANANTS + "test_walk_matches_the_fold[3]",)),
    Mutant("walk-skips-insertion-position-1", IMMANANTS,
           "        for k in range(m, 0, -1):\n", "        for k in range(m, 1, -1):\n",
           (T_IMMANANTS + "test_walk_yields_each_permutation_once",)),
    Mutant("walk-steps-before-the-first-position", IMMANANTS,
           "            if k < m:\n", "            if k <= m:\n",
           (T_IMMANANTS + "test_walk_matches_the_fold[3]",)),
    Mutant("walk-starts-at-the-wrong-identity", IMMANANTS,
           "[(i, 2 * n + 1 - i) for i in range(1, n + 1)]",
           "[(2 * i - 1, 2 * i) for i in range(1, n + 1)]",
           (T_IMMANANTS + "test_walk_matches_the_fold[3]",)),
    Mutant("cup-cap-no-loop-through-two-horizontals", UNCROSS,
           "        return frozenset(kept), 1\n",
           "        return frozenset(kept), 0\n",
           (T_UNCROSS + "test_recursion_matches_fold[3-0]", T_UNCROSS + "test_cup_cap_loops")),
    Mutant("cup-cap-no-loop-on-its-own-edge", UNCROSS,
           "        return edges, 1\n",
           "        return edges, 0\n",
           (T_UNCROSS + "test_recursion_matches_fold[3-0]", T_UNCROSS + "test_cup_cap_loops")),
    Mutant("cup-cap-rank-off-by-one", UNCROSS,
           "tuple((rank[V], loops)",
           "tuple(((rank[V] + 1) % len(rank), loops)",
           (T_UNCROSS + "test_recursion_matches_fold[3-0]", T_UNCROSS + "test_cup_cap_loops")),
    Mutant("unsigned-base-table", UNCROSS,
           "rank[frozenset(S)]: (-1) ** r",
           "rank[frozenset(S)]: 1",
           (T_UNCROSS + "test_recursion_matches_fold[3-0]",
            T_UNCROSS + "test_base_table_and_descents")),
    # -- network planarity: the closed touch test on the shared kernel
    Mutant("touch-test-made-open", NETWORKS,
           "        return 0 <= t <= den and 0 <= u <= den\n",
           "        return 0 < t < den and 0 < u < den\n",
           (T_NETWORKS + "test_segments_touch_matches_orientation_oracle",)),
    Mutant("collinear-segments-never-touch", NETWORKS,
           "    return u == 0 and max(A[0], C[0]) <= min(B[0], D[0])\n",
           "    return False\n",
           (T_NETWORKS + "test_segments_touch_matches_orientation_oracle",)),
    # -- network path families
    Mutant("family-counts-ignore-the-same-side-mask", NETWORKS,
           "sum(c for meet, c in meets.items() if not meet & same_side)",
           "sum(c for meet, c in meets.items())",
           ("tests/test_verify.py::test_registry_smoke[lem-3.4]",
            "tests/test_verify.py::test_registry_smoke[cor-3.2]")),
    Mutant("theta-counts-a-marked-edge-once", NETWORKS,
           "        uses = ins.bit_count() + (ins & marked).bit_count()\n",
           "        uses = ins.bit_count()\n",
           (T_NETWORKS + "test_family_table_matches_enumeration",)),
    Mutant("hat-pfaf-reads-only-D", NETWORKS,
           "if s.type in closure)", "if s.type == D)",
           ("tests/test_networks.py::test_network_equality_n2",
            "tests/test_networks.py::test_network_equality_on_fences",
            "tests/test_verify.py::test_registry_smoke[thm-3.6]")),
    # -- functionals and the Q-scans
    Mutant("from-dict-truncates-rationals", "src/pfaflab/pfaffinants.py",
           "c if c.__class__ is int else _num(c)", "int(c)",
           ("tests/test_pfaffinants.py::test_from_dict_keeps_rational_coefficients",)),
    Mutant("from-dict-accepts-a-foreign-matching", "src/pfaflab/pfaffinants.py",
           """            if k is None:
                raise ValueError(f"{sorted(pi)} is not a matching of [{2 * n}]")
""",
           """            if k is None:
                continue
""",
           (T_PFAFFINANTS + "test_from_dict_refuses_keys_that_are_not_matchings",)),
    Mutant("cone-element-accepts-another-n", "src/pfaflab/pfaffinants.py",
           "            if D.n != n:\n", "            if False:\n",
           (T_PFAFFINANTS + "test_cone_element_refuses_diagrams_of_another_n",)),
    # flipping the parity in the one signed base list would flip both
    # factors and cancel, so the product's sign is flipped
    Mutant("complementary-recursion-sign-flipped", "src/pfaflab/pfaffinants.py",
           "row[columns[a | b]] = s * t", "row[columns[a | b]] = -s * t",
           (T_PFAFFINANTS + "test_complementary_functional_matches_the_definition",
            T_PFAFFINANTS + "test_complementary_functional_matches_complementary_pfaffian")),
    Mutant("complementary-pair-straddles-i-and-ibar", "src/pfaflab/pfaffinants.py",
           """    inside = _signed_codes(sorted(I), bits)
    outside = _signed_codes([p for p in range(1, 2 * n + 1) if p not in I], bits)
""",
           """    inside, outside = sorted(I), [p for p in range(1, 2 * n + 1) if p not in I]
    if inside and outside:
        inside[-1], outside[0] = outside[0], inside[-1]
    inside, outside = _signed_codes(sorted(inside), bits), _signed_codes(sorted(outside), bits)
""",
           (T_PFAFFINANTS + "test_complementary_functional_matches_the_definition",
            T_PFAFFINANTS + "test_complementary_functional_matches_complementary_pfaffian")),
    Mutant("certify-basis-drops-a-complementary-pair", "src/pfaflab/pfaffinants.py",
           "    family = [I for I in even_subsets(2 * n) if 1 in I]\n",
           "    family = [I for I in even_subsets(2 * n) if 1 in I and len(I) < 2 * n]\n",
           (T_PFAFFINANTS + "test_certify_basis",)),
    Mutant("identity-compares-supports-only", "src/pfaflab/pfaffinants.py",
           "    if lhs.row != rhs.row:\n",
           "    if lhs.coefficients.keys() != rhs.coefficients.keys():\n",
           ("tests/test_pfaffinants.py::test_identities_agree_with_poly_oracle[True]",)),
    Mutant("generic-array-check-disabled", "src/pfaflab/pfaffinants.py",
           "    if not A.is_generic():\n",
           "    if False:\n",
           ("tests/test_pfaffinants.py::test_identities_need_the_generic_array",)),
    Mutant("generic-verdict-cached-as-true", "src/pfaflab/pfaffian.py",
           "            self._generic = self.entries == SkewArray.symbolic(self.size).entries\n",
           "            self._generic = True\n"
           "            return self.entries == SkewArray.symbolic(self.size).entries\n",
           (T_PFAFFINANTS + "test_generic_verdict_is_kept_per_array",)),
    Mutant("block-immanants-rebuilt-per-call", "src/pfaflab/immanants.py",
           "@lru_cache(maxsize=None)\ndef block_immanants(",
           "def block_immanants(",
           ("tests/test_immanants.py::test_verify_builds_the_block_tables_once_per_n",)),
    Mutant("cone-row-sum-drops-a-tl-row", "src/pfaflab/pfaffinants.py",
           "for D, c in self.tl_coeffs.items())",
           "for D, c in list(self.tl_coeffs.items())[1:])",
           (T_PFAFFINANTS + "test_cone_element_functional_is_the_tl_combination",)),
    Mutant("tl-functional-drops-a-closure-diagram", "src/pfaflab/pfaffinants.py",
           "for s in ranks_of(closure_masks(n)[r]))",
           "for s in list(ranks_of(closure_masks(n)[r]))[1:])",
           ("tests/test_pfaffinants.py::test_tl_functional_matches_closure_sum_over_tables",)),
    # -- decomposition checks as column sums of per-n rows
    # the index starts from the diagrams with no horizontal point, so the
    # I that hold some of a diagram's horizontal points lose it
    Mutant("compatible-index-drops-horizontal-subsets", "src/pfaflab/diagrams.py",
           "    every = (1 << len(diagrams)) - 1\n",
           "    every = sum(1 << r for r, D in enumerate(diagrams) if not D.horizontal_points())\n",
           ("tests/test_diagrams.py::test_compatible_index_matches_the_filter",)),
    Mutant("compatible-index-flips-the-parity", "src/pfaflab/diagrams.py",
           "    for k in range(0, 2 * n + 1, 2):\n",
           "    for k in range(1, 2 * n + 1, 2):\n",
           ("tests/test_diagrams.py::test_compatible_index_matches_the_filter",)),
    Mutant("compatible-index-bars-the-edges-that-straddle-i", "src/pfaflab/diagrams.py",
           "                if (p in I) == (q in I):\n",
           "                if (p in I) != (q in I):\n",
           ("tests/test_diagrams.py::test_compatible_index_matches_the_filter",)),
    Mutant("row-transpose-shifts-a-matching", "src/pfaflab/pfaffinants.py",
           "[w or 0 for w in column]", "[w or 0 for w in column[1:] + column[:1]]",
           (T_PFAFFINANTS + "test_row_functionals_match_the_table_probe",)),
    Mutant("row-check-never-falls-back", "src/pfaflab/pfaffinants.py",
           "    if summed != want:\n", "    if False:\n",
           (T_PFAFFINANTS + "test_identities_agree_with_poly_oracle[True]",)),
    Mutant("tl-row-leaves-the-diagram-out-of-its-closure", "src/pfaflab/pfaffinants.py",
           "for s in ranks_of(closure_masks(n)[r]))",
           "for s in ranks_of(closure_masks(n)[r] & ~(1 << r)))",
           (T_PFAFFINANTS + "test_row_sums_match_the_summed_side",)),
    Mutant("i-maximal-counts-a-diagram-inside-itself", "src/pfaflab/diagrams.py",
           "inside |= closure[r] & ~(1 << r)", "inside |= closure[r]",
           ("tests/test_diagrams.py::test_i_maximal_matches_quadratic_definition",)),
    # -- decomposition checks on integers: rank bitmasks and pair codes
    Mutant("i-maximal-mask-drops-the-even-filter", "src/pfaflab/diagrams.py",
           "return candidates & _even_mask(n) & ~inside", "return candidates & ~inside",
           ("tests/test_diagrams.py::test_i_maximal_matches_quadratic_definition",)),
    Mutant("closure-mask-takes-one-removal-step", "src/pfaflab/diagrams.py",
           "mask |= masks[rank[D.vertical_left - {edge}]]",
           "mask |= 1 << rank[D.vertical_left - {edge}]",
           ("tests/test_diagrams.py::test_closure_masks_match_removal_closure",)),
    Mutant("complementary-row-drops-the-sign-of-one-side", "src/pfaflab/pfaffinants.py",
           "row[columns[a | b]] = s * t", "row[columns[a | b]] = t",
           (T_PFAFFINANTS + "test_complementary_rows_match_the_relabelled_matchings",)),
    # a shifted table that both sides read alike only renames the bits, so
    # the shift is in the column index's reading of it
    Mutant("pair-bit-table-shifted-by-one", "src/pfaflab/pfaffinants.py",
           "sum(bits[p][q] for p, q in pi)", "sum(bits[p][q - 1] for p, q in pi)",
           (T_PFAFFINANTS + "test_complementary_rows_match_the_relabelled_matchings",)),
    Mutant("identity-reports-the-raw-input", "src/pfaflab/pfaffinants.py",
           "    I = frozenset(I)\n    _check_decomposition(A, I, i_maximal_mask",
           "    _check_decomposition(A, I, i_maximal_mask",
           (T_PFAFFINANTS + "test_identity_reports_the_set_it_checked[verify_tl_decomposition]",)),
    # -- thm-2.17 by the rank argument: the span and triangularity premises
    Mutant("span-check-skips-the-full-set", "src/pfaflab/pfaffinants.py",
           "    for I in family:\n", "    for I in family[:-1]:\n",
           (T_PFAFFINANTS + "test_certify_basis_checks_every_complementary_row",)),
    Mutant("triangularity-check-ignores-the-diagonal", "src/pfaflab/pfaffinants.py",
           "        if not mask >> r & 1 or mask >> r + 1:\n", "        if mask >> r + 1:\n",
           (T_PFAFFINANTS + "test_certify_basis_checks_the_standard_triangularity[diagonal]",)),
    Mutant("certify-basis-takes-n-zero", "src/pfaflab/pfaffinants.py",
           "    if n < 1:\n        raise UsageError(f\"certify_basis",
           "    if n < 0:\n        raise UsageError(f\"certify_basis",
           (T_PFAFFINANTS + "test_certify_basis_needs_a_positive_n",)),
    Mutant("closure-escapes-never-fail", "src/pfaflab/verify.py",
           '        return "; ".join(escapes) or None\n', "        return None\n",
           ("tests/test_verify.py::test_closure_escapes_are_one_failure_per_diagram",)),
    # -- one record path: con2 and con3 share one pair scan and one shortcut
    Mutant("con2-shortcut-ignores-inner-shapes", SCHURQ,
           "        if (t1, t2) in ((s1, s2), (s2, s1)):\n",
           "        if (t1[0], t2[0]) in ((s1[0], s2[0]), (s2[0], s1[0])):\n",
           (T_SCHURQ + "test_cell_transfer_scan_matches_oracle",)),
    Mutant("commuting-shortcut-misses-swapped-factors", SCHURQ,
           "        if (t1, t2) in ((s1, s2), (s2, s1)):\n",
           "        if (t1, t2) == (s1, s2):\n",
           (T_SCHURQ + "test_commuting_pairs_multiply_nothing",)),
    Mutant("record-skips-the-recheck", SCHURQ,
           '    if verdict != "positive" and rebuild is not None:\n',
           "    if False:\n",
           (T_SCHURQ + "test_recheck_in_one_more_variable",)),
    Mutant("schur-q-strip-weight-per-row", SCHURQ,
           "        weight = 2 ** _strip_components(lam, nu)\n        # the inner",
           "        weight = 2 ** sum(1 for p, q in zip(lam, nu + (0,) * len(lam)) if q < p)\n"
           "        # the inner",
           (T_SCHURQ + "test_branching_matches_tableaux",)),
    Mutant("q-expansion-never-reads-new-exponents", SCHURQ,
           "                if mono not in exponents:\n                    exponents[mono] = read(mono)\n",
           "",
           (T_SCHURQ + "test_expand_matches_poly_arithmetic",)),
    # -- Q-scans in monomial-symmetric coordinates
    Mutant("decreasing-branching-drops-equal-last-exponent", SCHURQ,
           "                if len(part) < k - 1 or part and part[-1] < tail:\n",
           "                if len(part) < k - 1 or part and part[-1] <= tail:\n",
           (T_SCHURQ + "test_decreasing_part_matches_schur_q",)),
    Mutant("q-product-skips-a-leading-zero", SCHURQ,
           "for a in product(*(range(e + 1) for e in nu))",
           "for a in product(*(range(not i, e + 1) for i, e in enumerate(nu)))",
           (T_SCHURQ + "test_restricted_product_matches_poly_product",)),
    Mutant("decreasing-peel-accepts-a-non-strict-lead", SCHURQ,
           "        if not is_strict(lam):\n            return coeffs, rem\n",
           "",
           (T_SCHURQ + "test_restricted_peel_matches_the_full_peel",
            T_SCHURQ + "test_record_falls_back_to_the_full_peel")),
    # -- con1 in m-coordinates: each monomial pfaffian expanded once per array
    Mutant("con1-expansion-memo-shared-across-instances", SCHURQ,
           "allow_nonstrict=True), {}\n",
           "allow_nonstrict=True), _m_value.__dict__.setdefault(j, {})\n",
           (T_SCHURQ + "test_q_positivity_scan_matches_oracle[2-5]",)),
    Mutant("con1-recheck-reads-the-expansions-at-k", SCHURQ,
           "allow_nonstrict=True), {}\n",
           "allow_nonstrict=True), arrays[k][1] if k in arrays else {}\n",
           (T_SCHURQ + "test_q_positivity_scan_matches_oracle[n2-k3-seed0-rechecked]",)),
    Mutant("con1-keeps-zero-m-coefficients", SCHURQ,
           "for nu, v in total.items() if v}", "for nu, v in total.items()}",
           (T_SCHURQ + "test_q_positivity_scan_matches_oracle[2-5]",)),
    Mutant("con1-drops-a-matching", SCHURQ,
           "    for pi, c, pf in f.terms(A):\n", "    for pi, c, pf in f.terms(A)[1:]:\n",
           (T_SCHURQ + "test_q_positivity_scan_matches_oracle[2-5]",)),
    Mutant("con1-skips-a-non-symmetric-pfaffian", SCHURQ,
           "        if m is None:\n            return f.evaluate(A)\n",
           "        if m is None:\n            continue\n",
           (T_SCHURQ + "test_q_positivity_falls_back_per_element[2-6]",)),
    Mutant("con1-recheck-array-per-element", SCHURQ,
           "            if j not in arrays:\n", "            if j not in arrays or j != k:\n",
           (T_SCHURQ + "test_q_positivity_expands_each_monomial_pfaffian_once",)),
    Mutant("verify-pool-not-capped", CLI,
           "max_workers=min(args.jobs, len(items))", "max_workers=args.jobs",
           (T_CLI + "test_verify_pool_is_capped",)),
    # -- each CLI command takes exactly the options it reads
    Mutant("con2-takes-n", CLI,
           '_leaf(scan, name, cmd_scan, "--k", "--bound")',
           '_leaf(scan, name, cmd_scan, *("--n",) * (name == "con2"), "--k", "--bound")',
           (T_CLI + "test_unread_flag_is_usage_error[scan con2 --n]",)),
    Mutant("verify-format-takes-csv", CLI,
           '''"--format": dict(choices=("text", "json"),''',
           '''"--format": dict(choices=("text", "json", "csv"),''',
           (T_CLI + "test_verify_rejects_csv_format[verify]",)),
    Mutant("network-build-n-not-required", CLI,
           '''_leaf(net, "build", cmd_network, required=("--diagram", "--n"))''',
           '''_leaf(net, "build", cmd_network, "--n", required=("--diagram",))''',
           (T_CLI + "test_required_options[build-n]",)),
    Mutant("eval-pfaffian-takes-diagram", CLI,
           '''_leaf(ev, "pfaffian", cmd_eval, "--n", "--subset")''',
           '''_leaf(ev, "pfaffian", cmd_eval, "--n", "--subset", "--diagram")''',
           (T_CLI + "test_each_leaf_takes_the_options_it_reads",)),
    Mutant("no-size-check", "src/pfaflab/verify.py",
           '    if key in ("n", "k") and value < 1:\n', "    if False:\n",
           ("tests/test_verify.py::test_size_below_one_is_usage_error",)),
    # -- Poly, pfaffians, linear algebra and verify options
    Mutant("no-exponent-guard-check", POLY,
           '''                if m & guards:
                    raise _overflow(_VARS[_lowest_field(m & guards)])
''', "",
           ("tests/test_poly.py::test_exponent_overflow_is_capacity_error",)),
    Mutant("pfaffian-expansion-sign", "src/pfaflab/pfaffian.py",
           "poly_sum((1 if t % 2 else -1,", "poly_sum((-1 if t % 2 else 1,",
           ("tests/test_pfaffian.py::test_expansion_matches_matching_sum",)),
    # -- the memos every array keeps
    Mutant("subpfaffian-memo-keyed-by-size", "src/pfaflab/pfaffian.py",
           """        if S not in memo:
            memo[S] = poly_sum((1 if t % 2 else -1, A.entries[S[0], j] * pf(S[1:t] + S[t + 1:]))
                               for t, j in enumerate(S[1:], 1) if (S[0], j) in A.entries)
        return memo[S]
""",
           """        if not S:
            return memo[S]
        if len(S) not in memo:
            memo[len(S)] = poly_sum((1 if t % 2 else -1, A.entries[S[0], j] * pf(S[1:t] + S[t + 1:]))
                                    for t, j in enumerate(S[1:], 1) if (S[0], j) in A.entries)
        return memo[len(S)]
""",
           ("tests/test_pfaffian.py::test_expansion_matches_matching_sum",)),
    Mutant("monomial-memo-shared-by-size", "src/pfaflab/pfaffinants.py",
           "        memo = A.monomials\n",
           "        memo = monomial_pfaffian.__dict__.setdefault(A.size, {})\n",
           (T_PFAFFINANTS + "test_evaluate_matches_poly_oracle",
            T_PFAFFINANTS + "test_from_dict_keeps_rational_coefficients")),
    Mutant("poly-sum-keeps-zero-terms", POLY,
           "for m, v in acc.items() if v})", "for m, v in acc.items()})",
           ("tests/test_poly_sympy.py::test_arithmetic_and_render_match_sympy",
            "tests/test_pfaffinants.py::test_evaluate_matches_poly_oracle")),
    Mutant("poly-sum-keeps-integral-fractions", POLY,
           "Poly.from_packed({m: v if v.__class__ is int else _num(v)\n",
           "Poly.from_packed({m: v\n",
           ("tests/test_poly_sympy.py::test_arithmetic_and_render_match_sympy",
            "tests/test_pfaffinants.py::test_evaluate_matches_poly_oracle")),
    Mutant("echelon-gcd-over-the-row-only", POLY,
           "            g = gcd(*(v for part in parts for v in part.values()))\n",
           "            g = gcd(*parts[0].values())\n",
           ("tests/test_linalg.py::test_engine_matches_dense_oracle",)),
    Mutant("echelon-denominators-not-cleared", POLY,
           "        row = {m: int(c * den) for m, c in terms.items()}\n",
           "        row = {m: int(c) for m, c in terms.items()}\n",
           ("tests/test_linalg.py::test_engine_matches_dense_oracle",)),
    # -- thm-2.17 on coefficient rows: the triangular peel and its fallback
    Mutant("peel-accepts-a-column-with-two-entries", POLY,
           "        if len(held) != 1:\n",
           "        if not held or len(held) > 2:\n",
           (T_PFAFFINANTS + "test_stalled_peel_falls_back_to_the_echelon",)),
    Mutant("row-rank-skips-the-fallback", POLY,
           "    if _peel(rows) == len(rows):\n        return len(rows)\n"
           "    return len(_echelon(rows, track=False)[0])\n",
           "    return _peel(rows)\n",
           (T_PFAFFINANTS + "test_stalled_peel_falls_back_to_the_echelon",)),
    Mutant("zero-option-read-as-default", "src/pfaflab/verify.py",
           "    value = default if opts.get(key) is None else int(opts[key])\n",
           "    value = int(opts.get(key) or default)\n",
           ("tests/test_verify.py::test_zero_option_is_not_its_default",)),
)


class MutantError(Exception):
    pass


def make_copy(dest: Path) -> None:
    dest.mkdir(parents=True)
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=ignore)
        else:
            shutil.copy2(src, dest / name)


def apply(mutant: Mutant, copy: Path) -> None:
    path = copy / mutant.path
    path.write_text(path.read_text().replace(mutant.old, mutant.new))


def run_tests(copy: Path, tests) -> int:
    """pytest's exit code on ``tests`` in ``copy``, importing the copy's library."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    try:
        return subprocess.run(cmd, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return -1


def run_mutant(mutant: Mutant, scratch: Path) -> int:
    """pytest's exit code on the mutant's tests in its own mutated copy."""
    copy = scratch / mutant.name
    make_copy(copy)
    apply(mutant, copy)
    code = run_tests(copy, mutant.tests)
    shutil.rmtree(copy)
    return code


def check(mutants, scratch: Path, jobs: int = 1) -> int:
    for mutant in mutants:      # every snippet must match before anything runs
        found = (ROOT / mutant.path).read_text().count(mutant.old)
        if found != 1:
            raise MutantError(f"{mutant.name}: its snippet occurs {found} times in {mutant.path}")
    tests = list(dict.fromkeys(t for m in mutants for t in m.tests))
    base = scratch / "unmutated"
    make_copy(base)
    code = run_tests(base, tests)
    shutil.rmtree(base)
    if code != 0:
        raise MutantError(f"the named tests do not pass unmutated (pytest exit {code})")
    survived = 0
    pool = ThreadPoolExecutor(max_workers=min(jobs, len(mutants)))
    try:
        # map yields in table order, each result as soon as it and those before it are done
        for mutant, code in zip(mutants, pool.map(lambda m: run_mutant(m, scratch), mutants)):
            if code == 0:
                survived += 1
                print(f"SURVIVED {mutant.name}", flush=True)
            elif code == 1:
                print(f"killed   {mutant.name}", flush=True)
            else:
                raise MutantError(f"{mutant.name}: pytest exit {code}, not a pass or a test failure")
    finally:
        pool.shutdown(cancel_futures=True)
    print(f"{len(mutants) - survived} of {len(mutants)} mutants killed")
    return 1 if survived else 0


def _positive(text: str) -> int:
    """A positive integer option value."""
    if not text.isdecimal() or not int(text):
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return int(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=_positive, default=1, metavar="N",
                        help="mutants run at once (default 1)")
    parser.add_argument("names", nargs="*", metavar="NAME",
                        help=f"mutants to run (default: all): {', '.join(m.name for m in MUTANTS)}")
    args = parser.parse_args(argv)
    by_name = {m.name: m for m in MUTANTS}
    unknown = [n for n in args.names if n not in by_name]
    if unknown:
        print(f"error: unknown mutant {', '.join(unknown)}", file=sys.stderr)
        return 2
    mutants = [by_name[n] for n in args.names] or list(MUTANTS)
    scratch = Path(tempfile.mkdtemp(prefix="mutants-"))
    try:
        return check(mutants, scratch, args.jobs)
    except MutantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
