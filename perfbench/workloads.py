"""The benchmark's workloads: what each round runs, the state it starts
from, and the check applied to every op's result.

An op is one call to a public per-case function of pfaflab: one
decomposition identity at one index set, one basis certificate, one scan
record, or one network build or network identity case.  A round is one
pass over a workload's op list.  ``prepare`` is the set-up of a round: it
empties the in-process memos, makes a fresh cache directory, puts in
place the uncrossing tables the workload definition says are already
cached, and builds the op list from inputs generated once per run.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import random
import shutil
import tempfile
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Callable

from pfaflab import diagrams, networks, pfaffinants, poly, schurq, uncross

# The package re-exports the function ``pfaffian`` under the module's name.
pfaffian_mod = importlib.import_module("pfaflab.pfaffian")
try:
    cache = importlib.import_module("pfaflab.cache")
except ImportError:  # a library without the disk cache: nothing to put in place
    cache = None

DATA = Path(__file__).resolve().parent / "data"
TABLES_FILE = DATA / "f_tables.json"
REFERENCE_FILE = DATA / "qscan_reference.json"

# con1 (scan_q_positivity) depends on its seed; references exist for this
# many scan seeds, and the workload seed selects one of them.
SCAN_SEED_CLASSES = 10

SIZES = {
    "full": {
        "decomp_n": 4,
        "con1": (2, 7), "con2": 9, "con3": 10, "k": 5,
        "net_n": 3, "fences": 10, "fence_crossings": 6,
    },
    "tiny": {
        "decomp_n": 2,
        "con1": (2, 2), "con2": 4, "con3": 5, "k": 3,
        "net_n": 2, "fences": 2, "fence_crossings": 3,
    },
}

LIBRARY_MODULES = (diagrams, pfaffian_mod, poly, pfaffinants, schurq, uncross, networks) \
    + ((cache,) if cache else ())


def _memo_clearers() -> tuple:
    """cache_clear of every lru_cache in the library, collected before any
    tracing wrapper replaces a module global."""
    seen = {}
    for mod in LIBRARY_MODULES:
        for value in vars(mod).values():
            clear = getattr(value, "cache_clear", None)
            if callable(clear) and getattr(value, "__module__", None) == mod.__name__:
                seen[id(value)] = clear
    if cache is not None:
        seen["disk-cache-memory"] = cache.clear_memory
    return tuple(seen.values())


MEMO_CLEARERS = _memo_clearers()


def clear_memos() -> None:
    for clear in MEMO_CLEARERS:
        clear()


def expected_rank(n: int) -> int:
    """Rank of the TL pfaffinants and of the complementary pfaffians (thm-2.17)."""
    return comb(2 * n - 1, n)


def record_digest(record) -> str:
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def scan_seed(seed: int) -> int:
    return seed % SCAN_SEED_CLASSES


def scans(size: str, seed: int):
    """The qscan workload's three scans, in order, as (name, generator)."""
    p = SIZES[size]
    n1, b1 = p["con1"]
    return [
        ("con1", schurq.scan_q_positivity(n1, b1, k=p["k"], seed=scan_seed(seed))),
        ("con2", schurq.scan_cell_transfer(p["con2"], k=p["k"])),
        ("con3", schurq.scan_sort(p["con3"], k=p["k"])),
    ]


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], bool]


@dataclass
class Round:
    ops: list
    cache_dir: Path
    # run after the ops, untimed: each returns a failure message or None
    post_checks: list = field(default_factory=list)

    def finish(self) -> list:
        failures = [msg for msg in (check() for check in self.post_checks) if msg]
        self.discard()
        return failures

    def discard(self) -> None:
        shutil.rmtree(self.cache_dir, ignore_errors=True)


def _lib(module, name: str, *args) -> Callable[[], object]:
    """Call module.name(*args), resolving the name when the op runs so that
    an installed tracing wrapper is the one called."""
    return lambda: getattr(module, name)(*args)


def _is_true(result) -> bool:
    return result is True


def _identity_ok(result) -> bool:
    return isinstance(result, dict) and result.get("ok") is True


def _basis_ok(n: int, report) -> bool:
    want = expected_rank(n)
    return report["tl_rank"] == want and report["complementary_rank"] == want


def _fresh_cache_dir(scratch: Path) -> Path:
    scratch.mkdir(parents=True, exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="cache-", dir=scratch))
    os.environ["PFAFLAB_CACHE_DIR"] = str(path)
    if cache is not None:
        cache.configure()
    return path


def place_tables(cache_dir: Path, seed: int, max_n: int) -> None:
    """Write the recorded uncrossing tables for n <= max_n under ``seed``,
    through the library's own writer."""
    if cache is None:
        return
    for entry in json.loads(TABLES_FILE.read_text())["tables"]:
        n = entry["n"]
        if n > max_n:
            continue
        pi = frozenset(tuple(e) for e in entry["pi"])
        table = {diagrams.parse_diagram_key(k, n): w for k, w in entry["f"].items()}
        cache.write_table(cache.table_path(cache_dir, n, pi, seed), n, pi, seed, table)


# -- workloads -------------------------------------------------------------------
#
# Each workload is (make_inputs, prepare).  make_inputs runs once per
# benchmark run: it makes the symbolic arrays and generates the inputs.
# prepare runs before every round and returns the round's ops.


def pfaffinant_inputs(size: str, seed: int) -> list:
    nmax = SIZES[size]["decomp_n"]
    return [(n, pfaffian_mod.SkewArray.symbolic(2 * n), list(pfaffinants.even_subsets(2 * n)))
            for n in range(1, nmax + 1)]


def _pfaffinant_ops(inputs, seed: int) -> list:
    ops = []
    for n, A, subsets in inputs:
        for I in subsets:
            where = f"n={n} I={sorted(I)}"
            ops.append(Op(f"thm-2.6 {where}",
                          _lib(pfaffinants, "verify_diagram_decomposition", A, I, seed), _identity_ok))
            ops.append(Op(f"thm-2.12 {where}",
                          _lib(pfaffinants, "verify_tl_decomposition", A, I, seed), _identity_ok))
    for n, _, _ in inputs:
        ops.append(Op(f"certify_basis n={n}", _lib(pfaffinants, "certify_basis", n, seed),
                      lambda report, n=n: _basis_ok(n, report)))
    return ops


def prepare_pfaffinant_cold(size: str, seed: int, scratch: Path, inputs) -> Round:
    clear_memos()
    cache_dir = _fresh_cache_dir(scratch)
    return Round(_pfaffinant_ops(inputs, seed), cache_dir)


def prepare_pfaffinant_warm(size: str, seed: int, scratch: Path, inputs) -> Round:
    clear_memos()
    cache_dir = _fresh_cache_dir(scratch)
    place_tables(cache_dir, seed, SIZES[size]["decomp_n"])
    return Round(_pfaffinant_ops(inputs, seed), cache_dir)


def qscan_inputs(size: str, seed: int) -> dict:
    """The expected record digests of each scan for this size and seed."""
    ref = json.loads(REFERENCE_FILE.read_text())[size]
    return {name: ref[name][str(scan_seed(seed))] if name == "con1" else ref[name]
            for name in ("con1", "con2", "con3")}


def prepare_qscan(size: str, seed: int, scratch: Path, inputs) -> Round:
    clear_memos()
    cache_dir = _fresh_cache_dir(scratch)
    # con1 evaluates n = 2 functionals at embedding seed 0
    place_tables(cache_dir, 0, SIZES[size]["con1"][0])
    ops = []
    post_checks = []
    for name, gen in scans(size, seed):
        for i, want in enumerate(inputs[name]):
            ops.append(Op(f"{name} record {i}", gen.__next__,
                          lambda record, want=want: record_digest(record) == want))
        post_checks.append(
            lambda gen=gen, name=name: None if next(gen, None) is None
            else f"{name} yields more records than its reference")
    return Round(ops, cache_dir, post_checks)


def network_inputs(size: str, seed: int) -> list:
    """(label, n, constructor, arguments) per network.

    The separating network of every diagram at n <= net_n, then criterion
    7's default fences (fence seeds 0..9) with edge weights drawn from the
    workload seed, so the load does not depend on the seed.
    """
    p = SIZES[size]
    out = [(f"separator {D.key()}", n, "construct_network_of_diagram", (D,))
           for n in range(1, p["net_n"] + 1) for D in diagrams.enumerate_sym_tl(n)]
    rng = random.Random(seed)
    for t in range(p["fences"]):
        shape = networks.random_fence_network(2, p["fence_crossings"], seed=t)
        edges = [(e.tail, e.head, Fraction(rng.randrange(1, 6))) for e in shape.edges]
        out.append((f"fence {t}", 2, "Network", (shape.vertices, edges, shape.sources, shape.sinks)))
    return out


def prepare_networks(size: str, seed: int, scratch: Path, inputs) -> Round:
    cache_dir = _fresh_cache_dir(scratch)
    place_tables(cache_dir, 0, SIZES[size]["net_n"])   # tl_pfaffinant uses embedding seed 0
    ops = []
    for label, n, constructor, args in inputs:
        ctx = {}

        def build(ctx=ctx, construct=_lib(networks, constructor, *args)):
            N = construct()
            ctx.update(N=N, A=networks.path_weight_matrix(N), subs=networks.marked_subnetworks(N))
            return True

        ops.append(Op(f"{label} build", build, _is_true))
        for I in pfaffinants.even_subsets(2 * n):
            ops.append(Op(f"{label} cor-3.2 I={sorted(I)}",
                          lambda ctx=ctx, I=I: networks.q_i_weight(ctx["N"], I)
                          == pfaffian_mod.complementary_pfaffian(ctx["A"], I), _is_true))
        for D in diagrams.enumerate_sym_tl_even(n):
            ops.append(Op(f"{label} thm-3.6 {D.key()}",
                          lambda ctx=ctx, D=D: pfaffinants.tl_pfaffinant(D, ctx["A"])
                          == networks.hat_pfaf(ctx["N"], D, ctx["subs"]), _is_true))
    clear_memos()   # last: building the ops above fills the diagram enumeration memos
    return Round(ops, cache_dir)


WORKLOADS = {
    "pfaffinant-cold": (pfaffinant_inputs, prepare_pfaffinant_cold),
    "pfaffinant-warm": (pfaffinant_inputs, prepare_pfaffinant_warm),
    "qscan": (qscan_inputs, prepare_qscan),
    "networks": (network_inputs, prepare_networks),
}
