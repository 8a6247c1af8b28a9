import pytest

from pfaflab import verify as vf

# id -> (small options, number of cases they give)
SMALL_OPTS = {
    "prop-2.3": ({"n": 4}, 4),
    "thm-2.4": ({"n": 2}, 7),
    "thm-2.6": ({"n": 2}, 10),
    "thm-2.12": ({"n": 2}, 10),
    "lem-2.8": ({"n": 3}, 28),
    "lem-2.9": ({"n": 3}, 42),
    "lem-2.13": ({"n": 3}, 28),
    "lem-2.15": ({"n": 3}, 73),
    "prop-2.16": ({"n": 3}, 3),
    "thm-2.17": ({"n": 3}, 3),
    "probe-2.5": ({"n": 2}, 6),
    "cor-3.2": ({"n": 2, "grids": 2}, 68),
    "lem-3.4": ({"n": 2}, 52),
    "thm-3.6": ({"n": 2, "grids": 2}, 26),
    "lem-3.7": ({"n": 2}, 8),
    "lem-3.12": ({"n": 2}, 40),
    "prop-3.14": ({"n": 3}, 47),
    "thm-4.1": ({"n": 2}, 8),
    "lem-4.2": ({"n": 2}, 10),
    "thm-4.3": ({"n": 2}, 4),
    "thm-4.4": ({"n": 2}, 2),
    "thm-5.2": ({"max_size": 4, "k": 3}, 27),
    "thm-5.4": ({"n": 2, "bound": 3}, 21),
    "prop-5.6": ({"bound": 5, "k": 3}, 9),
    "ex-2.5": ({}, 2),
    "ex-2.7": ({}, 6),
    "ex-3.13": ({}, 10),
    "tab-4.3": ({}, 22),
    "witness-4.3": ({}, 1),
}


@pytest.mark.parametrize("theorem", sorted(vf.REGISTRY))
def test_registry_smoke(theorem):
    if theorem == "witness-4.3":
        pytest.skip("covered by the acceptance suite (long-running)")
    opts, cases = SMALL_OPTS[theorem]
    report = vf.run(theorem, opts)
    assert report["theorem"] == theorem
    assert report["cases"] == cases
    assert report["failures"] == []


def test_runner_records_assertion_as_failure(monkeypatch):
    from pfaflab import diagrams

    def broken(D):
        raise AssertionError("closure is not a power of two")

    monkeypatch.setattr(diagrams, "removal_closure", broken)
    for theorem, cases, first in (("lem-2.8", 8, "V[]"), ("lem-2.9", 10, "n=1 I=[]")):
        report = vf.run(theorem, {"n": 2})
        assert report["cases"] == cases
        assert len(report["failures"]) == report["cases"]
        assert report["failures"][0] == {"case": first, "error": "closure is not a power of two"}


def test_closure_escapes_are_one_failure_per_diagram(monkeypatch):
    from pfaflab import diagrams

    # at n = 2, S(D) holds D and the next two diagrams of the order, whose
    # own closures reach one and two diagrams further
    order = diagrams.enumerate_sym_tl(2)

    def shifted(D):
        if D.n != 2:
            return frozenset({D})
        i = order.index(D)
        return frozenset(order[(i + t) % len(order)] for t in range(3))

    monkeypatch.setattr(diagrams, "removal_closure", shifted)
    report = vf.run("lem-2.8", {"n": 2})
    assert report["cases"] == 2 + len(order)
    assert [f["case"] for f in report["failures"]] == [D.key() for D in order]
    assert report["failures"][0]["error"] == \
        f"S({order[1].key()}) escapes; S({order[2].key()}) escapes"


def test_separator_failures_are_one_per_diagram(monkeypatch):
    from pfaflab import diagrams, networks
    from pfaflab.poly import Poly

    # a separator nonzero at every diagram fails at each proper closure diagram
    monkeypatch.setattr(networks, "hat_pfaf_prime", lambda N, D, subs: Poly.const(1))
    report = vf.run("lem-3.7", {"n": 3})
    order = [D for n in (1, 2, 3) for D in diagrams.enumerate_sym_tl(n)]
    failing = [D for D in order if len(diagrams.removal_closure(D)) > 1]
    assert report["cases"] == len(order)
    assert [f["case"] for f in report["failures"]] == [D.key() for D in failing]
    assert any(len(diagrams.removal_closure(D)) > 2 for D in failing)
    for D, f in zip(failing, report["failures"]):
        assert sorted(f["error"].split("; ")) == \
            sorted(f"nonzero at {Dp.key()}" for Dp in diagrams.removal_closure(D) - {D})


@pytest.mark.parametrize("theorem, opts", [
    ("thm-2.17", {"n": 0}), ("thm-2.6", {"n": 0}), ("thm-5.4", {"n": -1}),
    ("prop-5.6", {"k": 0}), ("thm-5.2", {"k": 0}),
])
def test_size_below_one_is_usage_error(theorem, opts):
    from pfaflab.poly import UsageError

    with pytest.raises(UsageError, match="must be a positive integer"):
        vf.run(theorem, opts)


@pytest.mark.parametrize("theorem, opts, params, cases", [
    # a zero option used to run, and report, that option's default
    ("prop-5.6", {"bound": 0}, {"bound": 0, "k": 4}, 0),
    ("thm-5.2", {"max_size": 0, "k": 3}, {"max_size": 0, "k": 3}, 3),
    ("cor-3.2", {"n": 1, "grids": 0}, {"n": 1, "grids": 0, "seed": 0}, 4),
    ("thm-2.6", {"n": 1, "samples": 0, "seed": 0}, {"n": 1, "samples": 0, "seed": 0}, 2),
    ("thm-3.6", {"n": 1, "grids": 0, "seed": 3}, {"n": 1, "grids": 0, "seed": 3}, 2),
])
def test_zero_option_is_not_its_default(theorem, opts, params, cases):
    report = vf.run(theorem, opts)
    assert report["params"] == params
    assert report["cases"] == cases and report["failures"] == []


@pytest.mark.parametrize("theorem, opts, cases", [
    # 512 samples draw every even subset of [10], so the decompositions
    # are exhaustive at n = 5: 170 cases at n <= 4 and 512 at n = 5
    ("thm-2.6", {"n": 4, "samples": 512}, 682),
    ("thm-2.12", {"n": 4, "samples": 512}, 682),
    ("thm-2.17", {"n": 5}, 5),
])
def test_uncrossing_identities_at_n5(theorem, opts, cases):
    report = vf.run(theorem, opts)
    assert report["cases"] == cases and report["failures"] == []


def test_unknown_id():
    with pytest.raises(KeyError):
        vf.run("nope")


def test_report_shape():
    report = vf.run("prop-2.3", {"n": 3})
    assert set(report) >= {"theorem", "cases", "failures", "n"}
    assert report["n"] == 3
