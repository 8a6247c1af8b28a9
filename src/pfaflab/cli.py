"""Command-line workbench: verify, scan, eval, table, network.

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


def _common(parser):
    parser.add_argument("--n", type=_positive, default=None, help="size bound")
    parser.add_argument("--k", type=_positive, default=None, help="number of variables")
    parser.add_argument("--bound", type=_count, default=None, help="size bound for scans")
    parser.add_argument("--seed", type=int, default=0, help="placement/scan seed")
    parser.add_argument("--format", choices=("text", "json", "csv"), default=None)
    parser.add_argument("--out", default=None, help="write output to a file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pfaflab",
                                     description="Exact pfaffinant workbench")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run a registered identity check")
    p.add_argument("theorem", help="identity id (or 'all'); see 'verify list'")
    p.add_argument("--samples", type=_count, default=None)
    p.add_argument("--max-size", type=_count, default=None)
    p.add_argument("--grids", type=_count, default=None)
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for independent verification targets")
    _common(p)

    p = sub.add_parser("scan", help="run a conjecture scanner, emitting JSONL verdicts")
    p.add_argument("conjecture", choices=("con1", "con2", "con3"))
    _common(p)

    p = sub.add_parser("eval", help="evaluate an object and print the polynomial")
    p.add_argument("object", choices=("pfaffinant", "tl-pfaffinant", "pfaffian",
                                      "schur-q", "immanant"))
    p.add_argument("--diagram", default=None, help="diagram key, e.g. V[(2,3)] or T[(1,2)(3,4)]")
    p.add_argument("--subset", default=None, help="comma separated indices, e.g. 1,3")
    p.add_argument("--lam", default=None, help="comma separated outer parts")
    p.add_argument("--mu", default="", help="comma separated inner parts")
    _common(p)

    p = sub.add_parser("table", help="print a golden table as CSV")
    p.add_argument("table", choices=("ex-2.5", "ex-2.7", "ex-2.11", "transition-n2",
                                     "quadratic-n2"))
    _common(p)

    p = sub.add_parser("network", help="build or inspect separating networks")
    p.add_argument("action", choices=("build", "matrix", "check"))
    p.add_argument("--diagram", default=None)
    p.add_argument("--file", default=None, help="network JSON file")
    _common(p)
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
    if (args.format or "text") == "json":
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
    n = args.n or 2
    if args.object in ("pfaffinant", "tl-pfaffinant"):
        if not args.diagram:
            sys.stderr.write("--diagram is required\n")
            return 2
        D = dg.parse_diagram_key(args.diagram, n)
        A = SkewArray.symbolic(2 * n)
        fn = pfn.diagram_pfaffinant if args.object == "pfaffinant" else pfn.tl_pfaffinant
        _emit(fn(D, A, args.seed).render() + "\n", args.out)
        return 0
    if args.object == "pfaffian":
        A = SkewArray.symbolic(2 * n)
        I = _parse_ints(args.subset) if args.subset else None
        _emit(pfaffian(A, I).render() + "\n", args.out)
        return 0
    if args.object == "schur-q":
        lam = tuple(_parse_ints(args.lam))
        mu = tuple(_parse_ints(args.mu))
        k = args.k or max(1, sum(lam) - sum(mu))
        _emit(sq.schur_q(lam, mu, k).render() + "\n", args.out)
        return 0
    if not args.diagram:
        sys.stderr.write("--diagram is required\n")
        return 2
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
            rows.append((D.key(), pfn.diagram_pfaffinant(D, A, args.seed).render()))
    elif args.table == "ex-2.11":
        A = SkewArray.symbolic(4)
        rows = [("diagram", "tl_pfaffinant")]
        for D in dg.enumerate_sym_tl_even(2):
            rows.append((D.key(), pfn.tl_pfaffinant(D, A, args.seed).render()))
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
        if not args.diagram or not args.n:
            sys.stderr.write("network build needs --diagram and --n\n")
            return 2
        D = dg.parse_diagram_key(args.diagram, args.n)
        N = nw.construct_network_of_diagram(D)
        _emit(nw.network_to_json(N) + "\n", args.out)
        return 0
    if not args.file:
        sys.stderr.write(f"network {args.action} needs --file\n")
        return 2
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


COMMANDS = {
    "verify": cmd_verify,
    "scan": cmd_scan,
    "eval": cmd_eval,
    "table": cmd_table,
    "network": cmd_network,
}


# the --format values each subcommand (each network action) can print
FORMATS = {"verify": ("text", "json"), "scan": ("json",), "table": ("csv",), "eval": ("text",),
           "network build": ("json",), "network matrix": ("csv",), "network check": ("text",)}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = f"network {args.action}" if args.command == "network" else args.command
    formats = FORMATS[command]
    if args.format is not None and args.format not in formats:
        sys.stderr.write(f"usage: {command} --format takes {' or '.join(formats)}\n")
        return 2
    if command == "verify" and args.jobs < 1:
        sys.stderr.write("usage: verify --jobs takes a positive integer\n")
        return 2
    try:
        return COMMANDS[args.command](args)
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
