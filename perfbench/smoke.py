"""Smoke test of the benchmark: every workload at its tiny size.

    python3 perfbench/smoke.py

Checks that each run prints every metric BENCHMARK.json names, with its
unit, and that the correctness gate trips when one scan reference or one
expected rank is corrupted.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(*argv) -> tuple:
    """(exit code, output lines, final JSON object) of one in-process run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--size", "tiny", "--seconds", "0.2", *argv])
    lines = out.getvalue().splitlines()
    return code, lines, json.loads(lines[-1])


class SmokeTest(unittest.TestCase):
    def assert_metrics(self, workload: str, trace: int, specs) -> None:
        code, lines, result = bench("--workload", workload, "--trace", str(trace))
        self.assertEqual(code, 0, lines[-8:])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in specs})
        for m in specs:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            self.assertIn(f"{workload} {m['name']} ", "\n".join(lines), m["name"])
        self.assertTrue(any(f"{workload} fail_ratio 0 ratio" in line for line in lines))

    def test_end_to_end_metrics(self):
        for workload in SPEC_WORKLOADS:
            with self.subTest(workload=workload):
                self.assert_metrics(workload, 0, SPEC["end_to_end"])

    def test_per_layer_metrics(self):
        for workload in SPEC_WORKLOADS:
            with self.subTest(workload=workload):
                self.assert_metrics(workload, 1, SPEC["per_layer"])
                stem = run.OUT / f"spans-{workload}-seed0-tiny"
                header, rounds = tracing.read_spans(stem)
                self.assertTrue(rounds and all(len(r["start"]) == len(r["end"]) for r in rounds))
                self.assertIn("op", header["names"])

    def test_corrupt_scan_reference_fails(self):
        reference = json.loads(workloads.REFERENCE_FILE.read_text())
        digests = reference["tiny"]["con2"]
        digests[0] = "0" * len(digests[0])
        run.SCRATCH.mkdir(exist_ok=True)
        path = run.SCRATCH / "corrupt_reference.json"
        path.write_text(json.dumps(reference))
        original, workloads.REFERENCE_FILE = workloads.REFERENCE_FILE, path
        try:
            code, _, result = bench("--workload", "qscan")
        finally:
            workloads.REFERENCE_FILE = original
            path.unlink()
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)

    def test_corrupt_expected_rank_fails(self):
        original = workloads.expected_rank
        workloads.expected_rank = lambda n: original(n) + (n == 2)
        try:
            code, lines, result = bench("--workload", "pfaffinant-warm")
        finally:
            workloads.expected_rank = original
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertTrue(any("certify_basis n=2: wrong result" in line for line in lines))


SPEC_WORKLOADS = [w["name"] for w in SPEC["workloads"]]

if __name__ == "__main__":
    unittest.main()
