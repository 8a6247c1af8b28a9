"""pfaflab's benchmark: a single-thread closed loop over the library's
public per-case functions.

    python3 perfbench/run.py --workload qscan --seed 3 --seconds 30 --trace 0

One client issues each op only after the previous one returned.  A run
sets up and runs whole rounds of its workload, at least one, and starts
another only if it is predicted to end within ``--seconds``.  Every op's
result is checked after its round, outside the timed phase.

The end-to-end times are CPU times of the benchmark's single thread
(``time.thread_time``), rescaled to a reference host speed that a probe
measures between ops (speed.py).  The library is CPU-bound and
single-threaded, so on an idle machine CPU time and wall-clock time
agree.  CPU time leaves out the time the thread waits for a processor
that another process holds, and the rescaling removes most of the
host's drift in speed.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` the run alternates untraced
and traced rounds and reports the per-layer metrics of the traced ones,
and writes their spans under ``.perfbench_out/``.  The exit code is 0 when
every op passed its check, 1 when one failed and 2 when the run could not
start.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter, thread_time

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_tmp"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 5

E2E_UNITS = {"round_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms", "setup_s": "s",
             "peak_rss_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   help="pfaffinant-cold, pfaffinant-warm, qscan, networks, or all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny is for the smoke test only")
    return p.parse_args(argv)


def unit_of(metric: str) -> str:
    if metric in E2E_UNITS:
        return E2E_UNITS[metric]
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


def percentile(values, q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[int(q) - 1] \
        if len(values) > 1 else values[0]


def provenance(workload: str, seed: int, size: str) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        cpu = platform.processor() or "unknown"
    return {"workload": workload, "seed": seed, "size": size, "nproc": os.cpu_count(),
            "python": platform.python_version(), "cpu": cpu, "commit": git_commit()}


def git_commit() -> str:
    """HEAD of the checkout read from .git without running git; 'unknown' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_round(rnd, tracer=None) -> tuple:
    """Run a round's ops in a closed loop, with the speed probe between
    them, then check them.

    Returns (wall_s, slowdown, op_cpu_ms, failures, attempted): the wall
    time includes the probes, the op CPU times do not.  A round's post
    checks count as attempted too.
    """
    results = []
    latencies = []
    errors = {}
    meter = speed.SpeedMeter()
    t_begin = perf_counter()
    for i, op in enumerate(rnd.ops):
        c0 = thread_time()
        try:
            result = tracer.run_op(i, op.call) if tracer else op.call()
        except Exception:  # the harness keeps running and reports the op as failed
            result = None
            errors[i] = traceback.format_exc(limit=3)
        op_cpu = thread_time() - c0
        latencies.append(op_cpu * 1e3)
        results.append(result)
        meter.after_op(op_cpu)
    wall = perf_counter() - t_begin
    slowdown = meter.slowdown()
    failures = []
    for i, (op, result) in enumerate(zip(rnd.ops, results)):
        if i in errors:
            failures.append(f"{op.label}: raised\n{errors[i]}")
        else:
            try:
                ok = op.check(result)
            except Exception as exc:  # a malformed result fails its check
                ok = False
                result = f"{type(exc).__name__}: {exc}"
            if not ok:
                failures.append(f"{op.label}: wrong result {str(result)[:200]}")
    attempted = len(rnd.ops) + len(rnd.post_checks)
    failures.extend(rnd.finish())
    return wall, slowdown, latencies, failures, attempted


def run_workload(name: str, args, wl, tracer) -> dict:
    """Set up and run rounds for ``args.seconds``; returns raw measurements."""
    make_inputs, prepare = wl.WORKLOADS[name]
    inputs, inputs_s = speed.timed_step(lambda: make_inputs(args.size, args.seed))
    setup = []
    for _ in range(SETUP_SAMPLES - 1):
        rnd, reset_s = speed.timed_step(lambda: prepare(args.size, args.seed, SCRATCH, inputs))
        rnd.discard()
        setup.append(reset_s)

    modes = ("plain", "traced") if args.trace else ("plain",)
    walls = {m: [] for m in modes}
    cpus = {m: [] for m in modes}
    rounds = {m: [] for m in modes}     # round CPU time at the reference speed
    slowdowns = []
    latencies, failures, layer_rounds = [], [], []
    attempted = 0
    t_start = perf_counter()
    while True:
        mode = modes[sum(len(w) for w in walls.values()) % len(modes)]
        t_round = perf_counter()
        rnd, reset_s = speed.timed_step(lambda: prepare(args.size, args.seed, SCRATCH, inputs))
        setup.append(reset_s)
        if mode == "traced":
            missing = tracer.install(
                recheck_k=wl.SIZES[args.size]["k"] + 1 if name == "qscan" else None)
            if missing and not walls["traced"]:
                print(f"# trace: not in this library: {', '.join(missing)}")
            tracer.reset()
            try:
                wall, slowdown, lat, fails, tried = run_round(rnd, tracer)
            finally:
                tracer.uninstall()
            layer_rounds.append(tracer.finish_round())
        else:
            wall, slowdown, lat, fails, tried = run_round(rnd)
            latencies.extend(v / slowdown for v in lat)
        walls[mode].append(wall)
        cpus[mode].append(sum(lat) / 1e3)
        rounds[mode].append(sum(lat) / 1e3 / slowdown)
        slowdowns.append(slowdown)
        attempted += tried
        failures.extend(fails)
        elapsed = perf_counter() - t_start
        last = perf_counter() - t_round
        if all(walls.values()) and elapsed + last > args.seconds:
            break
    return {"walls": walls, "cpus": cpus, "rounds": rounds, "slowdowns": slowdowns,
            "latencies": latencies, "failures": failures, "attempted": attempted,
            "inputs_s": inputs_s, "setup": setup, "layers": layer_rounds}


def end_to_end(raw, import_s: float) -> dict:
    lat = raw["latencies"]
    return {
        "round_s": statistics.median(raw["rounds"]["plain"]),
        "op_p50_ms": statistics.median(lat),
        "op_p90_ms": percentile(lat, 90),
        "setup_s": import_s + raw["inputs_s"] + statistics.median(raw["setup"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(raw) -> dict:
    rounds = raw["layers"]
    out = {k: statistics.median_low(r[k] for r in rounds) for k in rounds[0]}
    plain = statistics.median(raw["rounds"]["plain"])
    traced = statistics.median(raw["rounds"]["traced"])
    out["trace.overhead_s"] = traced - plain
    out["trace.overhead_ratio"] = (traced - plain) / plain
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "pfaflab" / "__init__.py").is_file():
        print(f"error: no pfaflab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    SCRATCH.mkdir(exist_ok=True)
    os.environ["PFAFLAB_CACHE_DIR"] = str(SCRATCH)   # never the user's ~/.cache/pfaflab
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))

    def import_library():
        import pfaflab
        import tracing
        import workloads
        return pfaflab, tracing, workloads

    (pfaflab, tracing, wl), import_s = speed.timed_step(import_library)
    if not Path(pfaflab.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: pfaflab imported from {pfaflab.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in wl.WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; choose from {', '.join(wl.WORKLOADS)} or all",
              file=sys.stderr)
        return 2

    attempted = failed = 0
    metrics = {}
    for name in names:
        tracer = tracing.Tracer() if args.trace else None
        raw = run_workload(name, args, wl, tracer)
        prov = provenance(name, args.seed, args.size)
        prov["ops_per_round"] = raw["attempted"] // sum(len(w) for w in raw["walls"].values())
        prov["round_walls_s"] = raw["walls"]
        prov["round_cpus_s"] = raw["cpus"]
        prov["round_slowdowns"] = raw["slowdowns"]
        prov["setup_parts_s"] = {"import": import_s, "inputs": raw["inputs_s"],
                                 "resets": raw["setup"]}
        values = per_layer(raw) if args.trace else end_to_end(raw, import_s)
        if args.trace:
            for key in ("uncross.traces", "poly.mul.term_pairs", "networks.families"):
                prov[key] = values[key]
            stem = OUT / f"spans-{name}-seed{args.seed}-{args.size}"
            print(f"# spans: {tracer.write_spans(stem, prov)}")
        print(f"# provenance: {json.dumps(prov, sort_keys=True)}")
        nfail = len(raw["failures"])
        for msg in raw["failures"][:5]:
            print(f"# FAILED {msg}")
        print(f"{name} fail_ratio {nfail / raw['attempted']:.6g} ratio "
              f"({nfail} failed of {raw['attempted']} attempted)")
        if not args.trace:
            print(f"{name} op latency samples: {len(raw['latencies'])}, "
                  f"{sum(1 for v in raw['latencies'] if v > values['op_p90_ms'])} beyond p90")
        for key, value in values.items():
            print(f"{name} {key} {value:.9g} {unit_of(key)}")
            metrics[key if len(names) == 1 else f"{name}.{key}"] = \
                {"value": value, "unit": unit_of(key)}
        attempted += raw["attempted"]
        failed += nfail

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
