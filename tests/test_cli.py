import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pfaflab
from pfaflab.cli import main

GOLDEN_EX_2_7 = """diagram,pfaffinant
V[],"a[1,2]*a[3,4] - a[1,3]*a[2,4] + a[1,4]*a[2,3]"
"V[(3,4)]","-a[1,2]*a[3,4] + a[1,3]*a[2,4] - a[1,4]*a[2,3]"
"V[(2,3)]",0
"V[(1,2)]","-a[1,2]*a[3,4] + a[1,3]*a[2,4] - a[1,4]*a[2,3]"
"V[(1,4)(2,3)]","a[1,3]*a[2,4] - a[1,4]*a[2,3]"
"V[(1,2)(3,4)]","a[1,2]*a[3,4] - a[1,3]*a[2,4] + 2*a[1,4]*a[2,3]"
"""

GOLDEN_EX_2_5 = """diagram,weight
V[],1
"V[(3,4)]",-1
"V[(2,3)]",0
"V[(1,2)]",-1
"V[(1,4)(2,3)]",-1
"V[(1,2)(3,4)]",2
"""

GOLDEN_EX_2_11 = """diagram,tl_pfaffinant
V[],"a[1,2]*a[3,4] - a[1,3]*a[2,4] + a[1,4]*a[2,3]"
"V[(1,4)(2,3)]","a[1,3]*a[2,4] - a[1,4]*a[2,3]"
"V[(1,2)(3,4)]","a[1,4]*a[2,3]"
"""

GOLDEN_TRANSITION = """partition,"V[(1,2)(3,4)]","V[(1,4)(2,3)]",V[]
"{1,3}",1,1,0
"{1,2}",0,1,1
"{1,2,3,4}",0,0,1
"""


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_table_goldens(capsys):
    for table, want in (("ex-2.7", GOLDEN_EX_2_7), ("ex-2.5", GOLDEN_EX_2_5),
                        ("ex-2.11", GOLDEN_EX_2_11), ("transition-n2", GOLDEN_TRANSITION)):
        code, out = run(capsys, "table", table)
        assert code == 0 and out == want, table


def test_table_determinism(capsys):
    _, out1 = run(capsys, "table", "quadratic-n2")
    _, out2 = run(capsys, "table", "quadratic-n2")
    assert out1 == out2


def test_eval_golden(capsys):
    code, out = run(capsys, "eval", "pfaffinant", "--n", "2", "--diagram", "V[(2,3)]")
    assert code == 0 and out == "0\n"
    code, out = run(capsys, "eval", "pfaffian", "--n", "2", "--subset", "1,3")
    assert code == 0 and out == "a[1,3]\n"
    code, out = run(capsys, "eval", "schur-q", "--lam", "1", "--k", "2")
    assert code == 0 and out == "2*x[1] + 2*x[2]\n"


def test_verify_exit_codes(capsys):
    code, out = run(capsys, "verify", "prop-2.3", "--n", "4")
    assert code == 0 and out.startswith("PASS prop-2.3")
    code, _ = run(capsys, "verify", "bogus")
    assert code == 2


def test_capacity_exit_code(capsys, monkeypatch):
    from pfaflab import uncross

    monkeypatch.setattr(uncross, "DEFAULT_STATE_BOUND", 2)
    code = main(["table", "ex-2.5"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("error: capacity:") and captured.err.count("\n") == 1


def test_exponent_overflow_exit_code(capsys):
    from pfaflab.poly import MAX_EXPONENT

    code = main(["eval", "schur-q", "--lam", str(MAX_EXPONENT + 1), "--k", "1"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == f"error: capacity: exponent of x[1] exceeds {MAX_EXPONENT}\n"


def test_internal_assertion_exit_code(capsys, monkeypatch):
    from pfaflab import schurq

    def broken(lam, mu, k):
        raise AssertionError("schur_q invariant broken")

    monkeypatch.setattr(schurq, "schur_q", broken)
    code = main(["eval", "schur-q", "--lam", "2,1", "--k", "2"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: internal: schur_q invariant broken\n"


def test_internal_value_error_exit_code(capsys, monkeypatch):
    from pfaflab import schurq

    def broken(lam, mu, k):
        raise ValueError("schur_q broke")

    monkeypatch.setattr(schurq, "schur_q", broken)
    code = main(["eval", "schur-q", "--lam", "2,1", "--k", "2"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: internal: ValueError: schur_q broke\n"


@pytest.mark.parametrize("argv, code, err", [
    (["eval", "pfaffinant", "--diagram", "V[(2,3"], 2, "error: bad diagram key 'V[(2,3'"),
    (["eval", "pfaffinant", "--diagram", "V[(1,3)]"], 2,
     "error: vertical edges [(1, 3)] do not give a valid symmetric diagram (n=2)"),
    (["eval", "tl-pfaffinant", "--diagram", "V[(2,3)]"], 2,
     "error: TL pfaffinant requires an even diagram, got V[(2,3)]"),
    (["eval", "immanant", "--diagram", "T[(1,3)(2,4)]"], 2, "error: edges [(1, 3), (2, 4)] cross"),
    (["eval", "pfaffian", "--subset", "1,9"], 2, "error: indices [1, 9] out of range for size 4"),
    (["eval", "pfaffian", "--subset", "1,2,3"], 2,
     "error: pfaffian needs an even index set, got [1, 2, 3]"),
    (["eval", "pfaffian", "--subset", "1,x"], 2,
     "error: invalid literal for int() with base 10: 'x'"),
    (["eval", "schur-q", "--lam", "2,2"], 2, "error: outer shape (2, 2) is not strict"),
    (["network", "check", "--file", "missing.json"], 2,
     "error: [Errno 2] No such file or directory: 'missing.json'"),
    (["network", "check", "--file", "list.json"], 2,
     "error: list indices must be integers or slices, not str"),
    (["network", "matrix", "--file", "keyless.json"], 2, "error: 'edges'"),
    # this network used to fail with an internal IndexError and exit 1
    (["network", "check", "--file", "sourceless.json"], 2,
     "error: sinks need a source to their left"),
    (["verify", "prop-2.3", "--n", "9"], 3,
     "error: capacity: diagram enumeration bound exceeded: n=9 > 8"),
], ids=["key", "diagram", "odd-tl", "tl-diagram", "subset-range", "odd-subset", "ints", "shape",
        "no-file", "not-object", "no-edges", "no-sources", "enum-bound"])
def test_usage_and_capacity_errors(capsys, monkeypatch, tmp_path, argv, code, err):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "list.json").write_text("[1, 2]")
    (tmp_path / "keyless.json").write_text('{"vertices": []}')
    (tmp_path / "sourceless.json").write_text(json.dumps({
        "vertices": [{"id": "w", "x": "1/1", "y": "0/1"}], "edges": [],
        "sources": [], "sinks": ["w"]}))
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == err + "\n"


@pytest.mark.parametrize("value", ["-1", "x"])
def test_negative_count_is_usage_error(capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "thm-2.6", "--samples", value])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert f"argument --samples: {value!r} is not a non-negative integer" in captured.err


@pytest.mark.parametrize("argv", [
    ["scan", "con1", "--bound", "2", "--n", "0"],
    ["scan", "con2", "--bound", "2", "--k", "0"],
    ["verify", "thm-2.6", "--n", "0"],
    ["verify", "thm-5.2", "--k", "00"],
    ["eval", "schur-q", "--lam", "2,1", "--k", "0"],
    ["eval", "pfaffian", "--n", "0"],
], ids=["scan-n", "scan-k", "verify-n", "verify-k", "eval-k", "eval-n"])
def test_zero_size_is_usage_error(capsys, argv):
    # --n 0 and --k 0 used to fall back to the default size with exit 0
    option, value = argv[-2:]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert f"argument {option}: {value!r} is not a positive integer" in captured.err


def test_zero_bound_and_samples_still_accepted(capsys):
    code, out = run(capsys, "scan", "con3", "--bound", "0")
    assert code == 0 and json.loads(out)["instance"] == {"lam": [], "mu": []}
    code, out = run(capsys, "verify", "thm-2.6", "--n", "1", "--samples", "0")
    assert code == 0 and out.startswith("PASS thm-2.6")
    code, out = run(capsys, "verify", "prop-5.6", "--bound", "0", "--format", "json")
    assert code == 0 and json.loads(out)["params"] == {"bound": 0, "k": 4}


def test_grids_zero_and_default_report_their_suites(capsys):
    # both runs used to report {"n": 1}, though only one ran the fences
    reports = []
    for extra in ((), ("--grids", "0")):
        code, out = run(capsys, "verify", "cor-3.2", "--n", "1", "--format", "json", *extra)
        assert code == 0
        reports.append(json.loads(out))
    assert [r["params"] for r in reports] == [{"n": 1, "grids": 10, "seed": 0},
                                              {"n": 1, "grids": 0, "seed": 0}]
    assert reports[0]["cases"] > reports[1]["cases"]


def test_verify_json_format(capsys):
    code, out = run(capsys, "verify", "ex-2.5", "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["theorem"] == "ex-2.5" and rep["failures"] == []


@pytest.mark.parametrize("argv", [
    ["verify", "ex-2.5", "--format", "csv"],
    ["scan", "con3", "--bound", "2", "--format", "csv"],
    ["table", "ex-2.5", "--format", "json"],
    ["eval", "schur-q", "--lam", "2,1", "--k", "2", "--format", "json"],
    ["network", "build", "--diagram", "V[(1,2)]", "--n", "1", "--format", "csv"],
    ["network", "matrix", "--file", "net.json", "--format", "json"],
    ["network", "check", "--file", "net.json", "--format", "json"],
], ids=["verify", "scan", "table", "eval", "network-build", "network-matrix", "network-check"])
def test_verify_rejects_csv_format(capsys, argv):
    # only verify takes --format, and only text or json
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "--format" in captured.err


# each leaf command: an argument list with its required options, and the
# options it reads
LEAVES = {
    "verify": (["verify", "list"], {"--samples", "--max-size", "--grids", "--jobs", "--n", "--k",
                                    "--bound", "--seed", "--format", "--out"}),
    "scan con1": (["scan", "con1"], {"--n", "--k", "--bound", "--seed", "--out"}),
    "scan con2": (["scan", "con2"], {"--k", "--bound", "--out"}),
    "scan con3": (["scan", "con3"], {"--k", "--bound", "--out"}),
    "eval pfaffinant": (["eval", "pfaffinant", "--diagram", "V[]"], {"--n", "--diagram", "--out"}),
    "eval tl-pfaffinant": (["eval", "tl-pfaffinant", "--diagram", "V[]"],
                           {"--n", "--diagram", "--out"}),
    "eval pfaffian": (["eval", "pfaffian"], {"--n", "--subset", "--out"}),
    "eval schur-q": (["eval", "schur-q", "--lam", "1"], {"--k", "--lam", "--mu", "--out"}),
    "eval immanant": (["eval", "immanant", "--diagram", "T[]"], {"--n", "--diagram", "--out"}),
    "table ex-2.5": (["table", "ex-2.5"], {"--seed", "--out"}),
    **{f"table {t}": (["table", t], {"--out"})
       for t in ("ex-2.7", "ex-2.11", "transition-n2", "quadratic-n2")},
    "network build": (["network", "build", "--diagram", "V[]", "--n", "1"],
                      {"--diagram", "--n", "--out"}),
    "network matrix": (["network", "matrix", "--file", "net.json"], {"--file", "--out"}),
    "network check": (["network", "check", "--file", "net.json"], {"--file", "--out"}),
}
# the options every command accepted before each took only those it reads
OLD_COMMON = ("--n", "--k", "--bound", "--seed", "--format", "--out")
UNREAD = [(leaf, flag) for leaf, (_, reads) in LEAVES.items()
          for flag in OLD_COMMON if flag not in reads]


@pytest.mark.parametrize("leaf, flag", UNREAD, ids=[" ".join(c) for c in UNREAD])
def test_unread_flag_is_usage_error(capsys, leaf, flag):
    with pytest.raises(SystemExit) as exc:
        main(LEAVES[leaf][0] + [flag, "2"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert f"unrecognized arguments: {flag} 2" in captured.err


def test_each_leaf_takes_the_options_it_reads():
    import argparse

    from pfaflab.cli import build_parser

    def leaves(parser, path):
        subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        if not subs:
            yield " ".join(path), parser
        for name, p in (subs[0].choices.items() if subs else ()):
            yield from leaves(p, path + [name])

    flags = {leaf: {a.option_strings[0] for a in p._actions if a.option_strings and a.dest != "help"}
             for leaf, p in leaves(build_parser(), [])}
    assert flags == {leaf: reads for leaf, (_, reads) in LEAVES.items()}
    assert sum(map(len, flags.values())) == 50


@pytest.mark.parametrize("argv, missing", [
    (["network", "build", "--diagram", "V[(1,2)]"], "--n"),
    (["network", "build", "--n", "1"], "--diagram"),
    (["network", "matrix"], "--file"),
    (["eval", "pfaffinant", "--n", "2"], "--diagram"),
    (["eval", "immanant"], "--diagram"),
], ids=["build-n", "build-diagram", "matrix-file", "pfaffinant-diagram", "immanant-diagram"])
def test_required_options(capsys, argv, missing):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert f"the following arguments are required: {missing}" in captured.err


def test_scan_emits_jsonl(capsys):
    code, out = run(capsys, "scan", "con3", "--bound", "4")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert records and all(r["conjecture"] == "con3" for r in records)
    assert all(r["verdict"] == "positive" for r in records)


def test_network_round_trip(tmp_path, capsys):
    out_file = tmp_path / "net.json"
    code, _ = run(capsys, "network", "build", "--diagram", "V[(1,2)]", "--n", "1",
                  "--out", str(out_file))
    assert code == 0 and out_file.exists()
    code, out = run(capsys, "network", "check", "--file", str(out_file))
    assert code == 0 and "round-trip stable" in out
    code, out = run(capsys, "network", "matrix", "--file", str(out_file))
    assert code == 0 and out.startswith("i,j,entry")


def test_network_check_reports_first_crossing(tmp_path, capsys):
    # crossings at x = 1/2 (u3->b3, u4->b4) and x = 11/2 (a1->w1, a2->w2);
    # the pair met first in edge order is the one reported
    xy = {"u1": (0, 3), "u2": (0, 2), "u3": (0, 1), "u4": (0, 0), "a1": (5, 3), "a2": (5, 2),
          "b3": (1, 0), "b4": (1, 1), "w1": (6, 2), "w2": (6, 3), "w3": (6, 0), "w4": (6, 1)}
    pairs = [("a1", "w1"), ("a2", "w2"), ("u3", "b3"), ("u4", "b4"),
             ("u1", "a1"), ("u2", "a2"), ("b3", "w3"), ("b4", "w4")]
    path = tmp_path / "two_crossings.json"
    path.write_text(json.dumps({
        "vertices": [{"id": v, "x": f"{x}/1", "y": f"{y}/1"} for v, (x, y) in xy.items()],
        "edges": [{"from": p, "to": q, "weight": "1"} for p, q in pairs],
        "sources": ["u1", "u2", "u3", "u4"], "sinks": ["w1", "w2", "w3", "w4"]}))
    code = main(["network", "check", "--file", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: edges a1->w1 and a2->w2 cross off-vertex\n"


# Runs the given CLI argument lists in a fresh interpreter and prints a JSON
# list of their outputs, then the message of a forced _require_equal failure
# and a pickled polynomial.  With "reverse", x[9]..x[1] and a[8,9]..a[1,2]
# are interned first, so every monomial key differs from a default-order run.
INTERNING_SCRIPT = """
import contextlib, io, json, pickle, sys
from pfaflab import pfaffinants, poly
from pfaflab.cli import main
from pfaflab.poly import Poly, a, x

if sys.argv[1] == "reverse":
    for k in range(9, 0, -1):
        Poly.var(x(k))
    for i in range(8, 0, -1):
        for j in range(9, i, -1):
            Poly.var(a(i, j))
outputs = []
for argv in json.loads(sys.argv[2]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    outputs.append([code, buf.getvalue()])
lhs = Poly.var(a(1, 2)) * Poly.var(x(9)) + 3 * Poly.var(a(8, 9)) * Poly.var(x(1)) ** 2
rhs = Poly.var(x(2)) - Poly.var(a(2, 5))
try:
    pfaffinants._require_equal(lhs, rhs, "probe")
except pfaffinants.VerificationError as exc:
    outputs.append(str(exc))
outputs.append(pickle.dumps(lhs * rhs).hex())
print(json.dumps(outputs))
"""


def _run_fresh(order, commands):
    env = dict(os.environ, PYTHONPATH=str(Path(pfaflab.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", INTERNING_SCRIPT, order, json.dumps(commands)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_output_independent_of_interning_order():
    import pickle

    from pfaflab.poly import Poly, a, x

    commands = [["eval", "schur-q", "--lam", "5,3,1", "--k", "4"], ["table", "ex-2.11"],
                ["verify", "thm-2.6", "--n", "2", "--format", "json"]]
    default, reverse = _run_fresh("default", commands), _run_fresh("reverse", commands)
    assert reverse == default[:-1] + [reverse[-1]]
    assert [code for code, _ in default[:3]] == [0, 0, 0]
    assert default[3] == "probe: sides differ at monomial a[1,2]*x[9] by 1"
    # a polynomial pickled under another interning order unpickles to the same value
    want = ((Poly.var(a(1, 2)) * Poly.var(x(9)) + 3 * Poly.var(a(8, 9)) * Poly.var(x(1)) ** 2)
            * (Poly.var(x(2)) - Poly.var(a(2, 5))))
    assert pickle.loads(bytes.fromhex(default[4])) == want
    assert pickle.loads(bytes.fromhex(reverse[4])) == want


def test_verify_jobs_match_serial(capsys, monkeypatch):
    from pfaflab import verify

    ids = ("ex-2.7", "thm-2.6", "thm-4.4", "thm-5.2", "thm-5.4")
    monkeypatch.setattr(verify, "REGISTRY", {t: verify.REGISTRY[t] for t in ids})
    argv = ["verify", "all", "--n", "2", "--bound", "3", "--k", "3", "--max-size", "3",
            "--format", "json"]
    code1, serial = run(capsys, *argv, "--jobs", "1")
    code2, pooled = run(capsys, *argv, "--jobs", "2")
    assert code1 == code2 == 0
    assert pooled == serial and len(json.loads(serial)) == len(ids)


def test_verify_pool_is_capped(capsys, monkeypatch):
    from pfaflab import cli, verify

    sizes = []

    class RecordingPool:
        """Stands in for ProcessPoolExecutor: records its size, runs serially."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    ids = ("ex-2.5", "ex-2.7", "prop-2.3")
    monkeypatch.setattr(verify, "REGISTRY", {t: verify.REGISTRY[t] for t in ids})
    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    code, out = run(capsys, "verify", "all", "--n", "2", "--jobs", "500")
    assert code == 0 and sizes == [3] and out.count("PASS") == 3
    for argv in (["all", "--jobs", "0"], ["all", "--jobs", "-1"], ["list", "--jobs", "0"]):
        code = main(["verify", *argv])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "usage: verify --jobs takes a positive integer\n"
    assert sizes == [3]


@pytest.mark.parametrize("argv", [
    ["scan", "con3", "--bound", "2"],
    ["eval", "schur-q", "--lam", "2,1", "--k", "2"],
    ["table", "ex-2.5"],
    ["network", "build", "--diagram", "V[(1,2)]", "--n", "1"],
], ids=["scan", "eval", "table", "network"])
def test_jobs_only_for_verify(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--jobs", "7"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "unrecognized arguments: --jobs 7" in captured.err


def test_python_m_pfaflab():
    from pfaflab import verify

    env = dict(os.environ, PYTHONPATH=str(Path(pfaflab.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "pfaflab", "verify", "list"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.split() == sorted(verify.REGISTRY)
