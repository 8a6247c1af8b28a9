"""Command-line workbench: verify, scan, eval, table, network.

`scan`, `eval`, `table` and `network` take their choice (`scan con1`,
`network build`) as a sub-command.  Each command and sub-command
registers, from the one table `FLAGS`, only the options it reads, so an
option it does not read is a usage error.  `verify` takes one option set
for every identity, since `verify all` applies it to all of them; it
alone takes `--jobs` and `--format` (text or json).

Exit codes: 0 all checks passed, 1 a mathematical check failed or the
library failed internally (an assertion, or any error but the ones for 2
and 3), 2 usage error (UsageError for bad options, keys, subsets, shapes
or network files, OddSubsetError, NotStandardError, InvalidNetworkError),
3 a computation exceeded a capacity bound.  Output is deterministic for a
fixed configuration and seed.  Uncrossing tables live in process memory
only: each process (each ``verify --jobs`` worker too) computes the
tables it needs once.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from concurrent.futures import ProcessPoolExecutor

from . import diagrams as dg
from . import immanants as im
from . import networks as nw
from . import pfaffinants as pfn
from . import schurq as sq
from . import uncross as ux
from . import verify as vf
from .pfaffian import SkewArray, pfaffian
from .poly import UsageError


def _count(text: str) -> int:
    """A non-negative integer option value."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"{text!r} is not a non-negative integer")
    return int(text)


def _positive(text: str) -> int:
    """A positive integer option value."""
    if not text.isdecimal() or not int(text):
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return int(text)


# every option of every command: each leaf command registers the ones it reads
FLAGS = {
    "--n": dict(type=_positive, help="size bound"),
    "--k": dict(type=_positive, help="number of variables"),
    "--bound": dict(type=_count, help="size bound for scans"),
    "--seed": dict(type=int, default=0, help="placement/scan seed"),
    "--samples": dict(type=_count),
    "--max-size": dict(type=_count),
    "--grids": dict(type=_count),
    "--jobs": dict(type=int, default=1,
                   help="worker processes for independent verification targets"),
    "--format": dict(choices=("text", "json"), default="text"),
    "--diagram": dict(help="diagram key, e.g. V[(2,3)] or T[(1,2)(3,4)]"),
    "--subset": dict(help="comma separated indices, e.g. 1,3"),
    "--lam": dict(help="comma separated outer parts"),
    "--mu": dict(default="", help="comma separated inner parts"),
    "--file": dict(help="network JSON file"),
    "--out": dict(help="write output to a file"),
}


def _leaf(sub, name, run, *flags, required=(), **kwargs):
    """A command (or sub-command) ``name`` that takes ``flags`` and --out."""
    parser = sub.add_parser(name, **kwargs)
    for flag in (*flags, *required, "--out"):
        parser.add_argument(flag, required=flag in required, **FLAGS[flag])
    parser.set_defaults(run=run)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pfaflab",
                                     description="Exact pfaffinant workbench")
    sub = parser.add_subparsers(dest="command", required=True)

    p = _leaf(sub, "verify", cmd_verify, "--samples", "--max-size", "--grids", "--jobs", "--n",
              "--k", "--bound", "--seed", "--format", help="run a registered identity check")
    p.add_argument("theorem", help="identity id (or 'all'); see 'verify list'")

    def group(name, dest, what):
        return sub.add_parser(name, help=what).add_subparsers(dest=dest, required=True)

    scan = group("scan", "conjecture", "run a conjecture scanner, emitting JSONL verdicts")
    _leaf(scan, "con1", cmd_scan, "--n", "--k", "--bound", "--seed")
    for name in ("con2", "con3"):
        _leaf(scan, name, cmd_scan, "--k", "--bound")

    ev = group("eval", "object", "evaluate an object and print the polynomial")
    for name in ("pfaffinant", "tl-pfaffinant"):
        _leaf(ev, name, cmd_eval, "--n", required=("--diagram",))
    _leaf(ev, "pfaffian", cmd_eval, "--n", "--subset")
    _leaf(ev, "schur-q", cmd_eval, "--k", "--lam", "--mu")
    _leaf(ev, "immanant", cmd_eval, "--n", required=("--diagram",))

    table = group("table", "table", "print a golden table as CSV")
    _leaf(table, "ex-2.5", cmd_table, "--seed")
    for name in ("ex-2.7", "ex-2.11", "transition-n2", "quadratic-n2"):
        _leaf(table, name, cmd_table)

    net = group("network", "action", "build or inspect separating networks")
    _leaf(net, "build", cmd_network, required=("--diagram", "--n"))
    for name in ("matrix", "check"):
        _leaf(net, name, cmd_network, required=("--file",))
    return parser


def _emit(text: str, out_path):
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(str(exc)) from None
    else:
        sys.stdout.write(text)


def _verify_one(item):
    theorem, opts = item
    return vf.run(theorem, opts)


def cmd_verify(args) -> int:
    if args.jobs < 1:
        sys.stderr.write("usage: verify --jobs takes a positive integer\n")
        return 2
    opts = {"n": args.n, "k": args.k, "seed": args.seed, "samples": args.samples,
            "max_size": args.max_size, "grids": args.grids, "bound": args.bound}
    opts = {k: v for k, v in opts.items() if v is not None}
    if args.theorem == "list":
        _emit("\n".join(sorted(vf.REGISTRY)) + "\n", args.out)
        return 0
    targets = sorted(vf.REGISTRY) if args.theorem == "all" else [args.theorem]
    unknown = [t for t in targets if t not in vf.REGISTRY]
    if unknown:
        sys.stderr.write(f"unknown identity id: {', '.join(unknown)}\n")
        return 2
    items = [(t, opts) for t in targets]
    if args.jobs > 1 and len(items) > 1:
        # the pool forks all its workers at the first submit
        with ProcessPoolExecutor(max_workers=min(args.jobs, len(items))) as pool:
            reports = list(pool.map(_verify_one, items))
    else:
        reports = [_verify_one(it) for it in items]
    ok = all(not r["failures"] for r in reports)
    if args.format == "json":
        _emit(json.dumps(reports if len(reports) > 1 else reports[0], indent=1) + "\n", args.out)
    else:
        lines = []
        for r in reports:
            status = "PASS" if not r["failures"] else "FAIL"
            lines.append(f"{status} {r['theorem']}: {r['cases']} cases, "
                         f"{len(r['failures'])} failures")
            for f in r["failures"][:10]:
                lines.append(f"  {f['case']}: {f['error']}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if ok else 1


def cmd_scan(args) -> int:
    bound = args.bound if args.bound is not None else 10
    k = args.k if args.k is not None else 5
    if args.conjecture == "con1":
        records = sq.scan_q_positivity(args.n or 2, bound, k=k, seed=args.seed)
    elif args.conjecture == "con2":
        records = sq.scan_cell_transfer(bound, k=k)
    else:
        records = sq.scan_sort(bound, k=k)
    buf = io.StringIO()
    for rec in records:
        buf.write(json.dumps(rec, sort_keys=True) + "\n")
    _emit(buf.getvalue(), args.out)
    return 0


def _parse_ints(text):
    try:
        return [int(t) for t in text.split(",") if t.strip()] if text else []
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def cmd_eval(args) -> int:
    if args.object == "schur-q":
        lam = tuple(_parse_ints(args.lam))
        mu = tuple(_parse_ints(args.mu))
        k = args.k or max(1, sum(lam) - sum(mu))
        _emit(sq.schur_q(lam, mu, k).render() + "\n", args.out)
        return 0
    n = args.n or 2
    if args.object in ("pfaffinant", "tl-pfaffinant"):
        D = dg.parse_diagram_key(args.diagram, n)
        A = SkewArray.symbolic(2 * n)
        fn = pfn.diagram_pfaffinant if args.object == "pfaffinant" else pfn.tl_pfaffinant
        _emit(fn(D, A).render() + "\n", args.out)
        return 0
    if args.object == "pfaffian":
        A = SkewArray.symbolic(2 * n)
        I = _parse_ints(args.subset) if args.subset else None
        _emit(pfaffian(A, I).render() + "\n", args.out)
        return 0
    d = dg.parse_tl_key(args.diagram, n)
    _, B = im.block_pair(n)
    _emit(im.tl_immanant(d, B).render() + "\n", args.out)
    return 0


def _csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue()


def cmd_table(args) -> int:
    if args.table == "ex-2.5":
        pi = dg.matching([(1, 4), (2, 3)])
        table = ux.f_coefficient(pi, 2, args.seed)
        rows = [("diagram", "weight")]
        for D in dg.enumerate_sym_tl(2):
            rows.append((D.key(), str(table.get(D, 0))))
    elif args.table == "ex-2.7":
        A = SkewArray.symbolic(4)
        rows = [("diagram", "pfaffinant")]
        for D in dg.enumerate_sym_tl(2):
            rows.append((D.key(), pfn.diagram_pfaffinant(D, A).render()))
    elif args.table == "ex-2.11":
        A = SkewArray.symbolic(4)
        rows = [("diagram", "tl_pfaffinant")]
        for D in dg.enumerate_sym_tl_even(2):
            rows.append((D.key(), pfn.tl_pfaffinant(D, A).render()))
    elif args.table == "transition-n2":
        parts, cols, mat = pfn.transition_matrix(2)
        rows = [("partition", *(D.key() for D in cols))]
        for (I, _), row in zip(parts, mat):
            rows.append(("{" + ",".join(map(str, I)) + "}", *map(str, row)))
    else:
        labels = ("L^2", "L*M", "L*N", "M^2", "M*N", "N^2")
        rows = [("diagram", "in_span", *labels)]
        for r in im.quadratic_relation_table():
            coeffs = r["coefficients"] or {}
            rows.append((r["diagram"], str(r["in_span"]),
                         *(str(coeffs.get(lbl, "")) for lbl in labels)))
    _emit(_csv(rows), args.out)
    return 0


def cmd_network(args) -> int:
    if args.action == "build":
        D = dg.parse_diagram_key(args.diagram, args.n)
        N = nw.construct_network_of_diagram(D)
        _emit(nw.network_to_json(N) + "\n", args.out)
        return 0
    try:
        with open(args.file) as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(str(exc)) from None
    N = nw.network_from_json(text)
    if args.action == "check":
        round_trip = nw.network_from_json(nw.network_to_json(N))
        ok = nw.network_to_json(round_trip) == nw.network_to_json(N)
        _emit(f"valid network; round-trip {'stable' if ok else 'UNSTABLE'}\n", args.out)
        return 0 if ok else 1
    A = nw.path_weight_matrix(N)
    rows = [("i", "j", "entry")]
    for i in range(1, A.size + 1):
        for j in range(i + 1, A.size + 1):
            rows.append((str(i), str(j), A.upper(i, j).render()))
    _emit(_csv(rows), args.out)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except ux.CapacityError as exc:
        sys.stderr.write(f"error: capacity: {exc}\n")
        return 3
    except (UsageError, dg.OddSubsetError, dg.NotStandardError, nw.InvalidNetworkError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except AssertionError as exc:
        sys.stderr.write(f"error: internal: {str(exc) or 'assertion failed'}\n")
        return 1
    except Exception as exc:
        # any other error escaping the library is a fault of the library
        sys.stderr.write(f"error: internal: {type(exc).__name__}: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
