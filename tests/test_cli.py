import json

import pytest

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


def test_verify_json_format(capsys):
    code, out = run(capsys, "verify", "ex-2.5", "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["theorem"] == "ex-2.5" and rep["failures"] == []


@pytest.mark.parametrize("argv", [
    ["verify", "ex-2.5", "--format", "csv"],
    ["scan", "con3", "--bound", "2", "--format", "csv"],
    ["table", "ex-2.5", "--format", "json"],
], ids=["verify", "scan", "table"])
def test_verify_rejects_csv_format(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("usage:") and captured.err.count("\n") == 1


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


def test_cache_workflow(tmp_path, capsys):
    cdir = str(tmp_path / "cache")
    code, out = run(capsys, "cache", "warm", "--n", "2", "--cache-dir", cdir)
    assert code == 0 and "warmed" in out
    code, out = run(capsys, "cache", "info", "--cache-dir", cdir)
    assert code == 0 and "tables: 4" in out
    code, out = run(capsys, "cache", "clear", "--cache-dir", cdir)
    assert code == 0 and "removed 4" in out


def test_no_cache_matches_cached(capsys):
    _, cached = run(capsys, "table", "ex-2.7")
    _, fresh = run(capsys, "table", "ex-2.7", "--no-cache")
    assert cached == fresh
