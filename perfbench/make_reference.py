"""Record the data the benchmark checks against, from the library as it is.

    python3 perfbench/make_reference.py

Writes two files under perfbench/data/:

- f_tables.json: the uncrossing table of every matching for n <= 4.  Each
  table is computed at two embedding seeds, which must agree (the weights
  do not depend on the embedding), so the warm workloads can put the same
  tables in place under any seed.
- qscan_reference.json: a digest of every record the qscan workload's
  scans yield, for both sizes and every con1 seed class.

Run it only at a commit whose tables and scan records are known to be
right; the benchmark treats every difference from these files as a failure.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench_tmp"
sys.path.insert(0, str(ROOT / "src"))
SCRATCH.mkdir(exist_ok=True)
os.environ["PFAFLAB_CACHE_DIR"] = str(SCRATCH)

import workloads as wl  # noqa: E402  (needs the library on sys.path)
from pfaflab import diagrams, uncross  # noqa: E402

TABLE_SEEDS = (0, 1)


def make_tables(nmax: int = 4) -> dict:
    out = []
    for n in range(1, nmax + 1):
        for pi in diagrams.enumerate_matchings(n):
            tables = [uncross.f_coefficient(pi, n, seed) for seed in TABLE_SEEDS]
            if any(t != tables[0] for t in tables[1:]):
                raise SystemExit(f"uncrossing table of {sorted(pi)} depends on the embedding seed")
            out.append({"n": n, "pi": sorted(list(e) for e in pi),
                        "f": {D.key(): w for D, w in sorted(tables[0].items(),
                                                             key=lambda kv: kv[0].key())}})
    return {"embedding_seeds_compared": list(TABLE_SEEDS), "tables": out}


def make_scan_reference() -> dict:
    out = {}
    for size in wl.SIZES:
        cache_dir = wl._fresh_cache_dir(SCRATCH)
        entry = {"con1": {}}
        for s in range(wl.SCAN_SEED_CLASSES):
            for name, gen in wl.scans(size, s):
                digests = [wl.record_digest(r) for r in gen] if name == "con1" or s == 0 else None
                if name == "con1":
                    entry["con1"][str(s)] = digests
                elif digests is not None:
                    entry[name] = digests
        shutil.rmtree(cache_dir)
        out[size] = entry
    return out


def main() -> int:
    wl.DATA.mkdir(exist_ok=True)
    wl.TABLES_FILE.write_text(json.dumps(make_tables(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {wl.TABLES_FILE}")
    wl.REFERENCE_FILE.write_text(json.dumps(make_scan_reference(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {wl.REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
