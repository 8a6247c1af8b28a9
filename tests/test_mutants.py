"""The mutation harness in tools/mutants.py: its table and its worker pool."""

import importlib.util
import time
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "mutants.py"
spec = importlib.util.spec_from_file_location("mutants", SCRIPT)
mutants = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutants)


def test_every_snippet_occurs_once():
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
    for m in mutants.MUTANTS:
        assert (mutants.ROOT / m.path).read_text().count(m.old) == 1, m.name


@pytest.mark.parametrize("jobs", ["0", "-1", "x"])
def test_jobs_is_a_positive_integer(jobs):
    with pytest.raises(SystemExit) as exc:
        mutants.main(["--jobs", jobs])
    assert exc.value.code == 2


def test_pool_is_capped_and_reports_in_table_order(monkeypatch, tmp_path, capsys):
    table = mutants.MUTANTS[:3]
    workers = []

    class Pool(mutants.ThreadPoolExecutor):
        def __init__(self, max_workers):
            workers.append(max_workers)
            super().__init__(max_workers=max_workers)

    def run_mutant(mutant, scratch):
        # the first mutant finishes last
        time.sleep(0.05 * (len(table) - table.index(mutant)))
        return 1

    monkeypatch.setattr(mutants, "ThreadPoolExecutor", Pool)
    monkeypatch.setattr(mutants, "make_copy", lambda dest: dest.mkdir(parents=True))
    monkeypatch.setattr(mutants, "run_tests", lambda copy, tests: 0)
    monkeypatch.setattr(mutants, "run_mutant", run_mutant)
    assert mutants.check(table, tmp_path, jobs=8) == 0
    assert workers == [3]
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"killed   {m.name}" for m in table] + ["3 of 3 mutants killed"]
