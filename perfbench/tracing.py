"""Traced rounds: spans around the calls into each pfaflab module, recorded
from outside the library, and the per-layer metrics derived from them.

``install`` replaces each traced function by a wrapper at every binding in
the loaded pfaflab modules (so names bound by ``from .x import y`` are
wrapped too) and the ``Poly`` operators on the class; ``uninstall`` puts
the originals back.  A span is (name, start, end, parent, op id); spans
stay in memory until ``write_spans``.  A layer's self time is the length
of its spans minus the length of their child spans.
"""

from __future__ import annotations

import json
import sys
from array import array
from pathlib import Path
from time import perf_counter

FIELDS = (("start", "d"), ("end", "d"), ("name", "H"), ("parent", "i"), ("op", "i"))


def _double_factorial_odd(m: int) -> int:
    """(m-1)!! for even m >= 0: the number of perfect matchings of m points."""
    out = 1
    for k in range(m - 1, 0, -2):
        out *= k
    return out


def _term_count(p) -> int:
    terms = getattr(p, "terms", None)
    if terms is not None:
        return len(terms)
    return 1 if p else 0


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.start, self.end = array("d"), array("d")
        self.name, self.parent, self.op = array("H"), array("i"), array("i")
        self.stack = [-1]
        self.current_op = -1
        self.counters = {}
        self.rounds = []      # span arrays of finished rounds, for write_spans
        self._installed = []  # (owner, attribute, original)
        self._gauges = {}     # metric -> (read, value at reset)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def reset(self) -> None:
        for arr in (self.start, self.end, self.name, self.parent, self.op):
            del arr[:]
        self.stack[:] = [-1]
        self.current_op = -1
        self.counters = {}
        for key, (read, _) in self._gauges.items():
            self._gauges[key] = (read, read())

    def spanned(self, fn, name: str, before=None, after=None):
        """Wrap fn in a span; ``before(args)`` and ``after(result)`` feed counters."""
        nid = self.name_id(name)
        start, end, names, parent, ops, stack = \
            self.start, self.end, self.name, self.parent, self.op, self.stack
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            i = len(start)
            names.append(nid)
            parent.append(stack[-1])
            ops.append(tracer.current_op)
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @staticmethod
    def hooked(fn, before=None, after=None):
        """Wrap fn for counting only, without a span."""
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            result = fn(*args, **kwargs)
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def run_op(self, op_id: int, call):
        """Run one op of the round as a root span named ``op``."""
        self.current_op = op_id
        try:
            return self.spanned(call, "op")()
        finally:
            self.current_op = -1

    # -- installing wrappers ---------------------------------------------------

    def _replace_function(self, original, wrapper) -> int:
        replaced = 0
        for mod in [m for k, m in sys.modules.items() if k == "pfaflab" or k.startswith("pfaflab.")]:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._installed.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
                    replaced += 1
        return replaced

    def _replace_methods(self, cls, attrs, wrapper) -> None:
        for attr in attrs:
            self._installed.append((cls, attr, cls.__dict__[attr]))
            setattr(cls, attr, wrapper)

    def install(self, recheck_k=None) -> list:
        """Install every wrapper; returns the targets this library lacks."""
        if self._installed:
            raise RuntimeError("tracing is already installed")
        self._gauges = {}
        mods = {k.rsplit(".", 1)[-1]: m for k, m in sys.modules.items() if k.startswith("pfaflab.")}
        missing = []

        def target(module, attr):
            obj = getattr(mods.get(module), attr, None)
            if obj is None:
                missing.append(f"{module}.{attr}")
            return obj

        def span(module, attr, name, before=None, after=None):
            fn = target(module, attr)
            if fn is not None:
                self._replace_function(fn, self.spanned(fn, name, before, after))

        def hook(module, attr, before=None, after=None):
            fn = target(module, attr)
            if fn is not None:
                self._replace_function(fn, self.hooked(fn, before, after))

        def method(module, cls_name, attrs, name, before=None):
            cls = target(module, cls_name)
            if cls is not None:
                self._replace_methods(cls, attrs, self.spanned(cls.__dict__[attrs[0]], name, before))

        count = self.count

        def mul_pairs(args):
            count("poly.mul.term_pairs", _term_count(args[0]) * _term_count(args[1]))

        def pf_matchings(args):
            I = args[1] if len(args) > 1 and args[1] is not None else range(args[0].size)
            count("pfaffian.matchings", _double_factorial_odd(len(I)))

        def traces(cmap):
            count("uncross.traces", 2 ** getattr(cmap, "num_classes", 0))

        def families(subs):
            count("networks.families", sum(s.families for s in subs))

        def recheck(args):
            if recheck_k is not None and len(args) > 1 and args[1] == recheck_k:
                count("schurq.recheck.calls")

        method("poly", "Poly", ("__mul__", "__rmul__"), "poly.mul", mul_pairs)
        method("poly", "Poly", ("__add__", "__radd__"), "poly.add")
        span("poly", "matrix_rank", "poly.linalg")
        span("poly", "express_in_span", "poly.linalg")
        span("pfaffian", "pfaffian", "pfaffian", pf_matchings)
        span("uncross", "f_coefficient", "uncross")
        hook("uncross", "embed_nu_pi", after=traces)
        if "cache" in mods:
            span("cache", "f_table", "cache.f_table")
            span("cache", "read_table", "cache.read")
            span("cache", "write_table", "cache.write")
        span("pfaffinants", "diagram_functional", "pfaffinants.functional")
        span("pfaffinants", "tl_functional", "pfaffinants.functional")
        method("pfaffinants", "PfaffinantFunctional", ("evaluate",), "pfaffinants.evaluate")
        schur_q = target("schurq", "schur_q")
        span("schurq", "schur_q", "schurq.schur_q")
        span("schurq", "expand_in_q_basis", "schurq.expand")
        hook("schurq", "classify_difference", before=recheck)
        if schur_q is not None and hasattr(schur_q, "cache_info"):
            self._gauges["schurq.schur_q.misses"] = (lambda: schur_q.cache_info().misses, 0)
        for attr in ("construct_network_of_diagram", "random_fence_network"):
            span("networks", attr, "networks.build")
        method("networks", "Network", ("__init__",), "networks.build")
        span("networks", "path_weight_matrix", "networks.path_weight_matrix")
        span("networks", "marked_subnetworks", "networks.marked_subnetworks", after=families)
        span("networks", "q_i_weight", "networks.q_i_weight")
        span("networks", "hat_pfaf", "networks.hat_pfaf")
        span("networks", "hat_pfaf_prime", "networks.hat_pfaf")
        for attr in ("enumerate_matchings", "enumerate_sym_tl", "enumerate_sym_tl_even",
                     "compatible_diagrams", "i_maximal_diagrams", "removal_closure",
                     "standard_partition"):
            span("diagrams", attr, "diagrams")
        return missing

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed = []

    # -- deriving metrics --------------------------------------------------------

    def finish_round(self) -> dict:
        """Per-layer metrics of the round just run; keeps its spans for writing."""
        nnames = len(self.names)
        self_s = [0.0] * nnames
        calls = [0] * nnames
        ids = self._ids
        f_table, read, unc = (ids.get(k, -1) for k in ("cache.f_table", "cache.read", "uncross"))
        disk_hits = misses = 0
        start, end, name, parent = self.start, self.end, self.name, self.parent
        for i in range(len(start)):
            d = end[i] - start[i]
            nid = name[i]
            self_s[nid] += d
            calls[nid] += 1
            p = parent[i]
            if p >= 0:
                pid = name[p]
                self_s[pid] -= d
                if pid == f_table:
                    if nid == read:
                        disk_hits += 1
                    elif nid == unc:
                        misses += 1

        def s(key):
            return self_s[ids[key]] if key in ids else 0.0

        def c(key):
            return calls[ids[key]] if key in ids else 0

        def n(key):
            return self.counters.get(key, 0)

        cache_calls = c("cache.f_table")
        m = {
            "poly.mul.calls": c("poly.mul"), "poly.mul.term_pairs": n("poly.mul.term_pairs"),
            "poly.mul.self_s": s("poly.mul"),
            "poly.add.calls": c("poly.add"), "poly.add.self_s": s("poly.add"),
            "poly.linalg.calls": c("poly.linalg"), "poly.linalg.self_s": s("poly.linalg"),
            "pfaffian.calls": c("pfaffian"), "pfaffian.matchings": n("pfaffian.matchings"),
            "pfaffian.self_s": s("pfaffian"),
            "uncross.tables": c("uncross"), "uncross.traces": n("uncross.traces"),
            "uncross.self_s": s("uncross"),
            "cache.calls": cache_calls, "cache.mem_hits": cache_calls - disk_hits - misses,
            "cache.disk_hits": disk_hits, "cache.misses": misses,
            "cache.hit_ratio": (cache_calls - misses) / cache_calls if cache_calls else 0.0,
            "cache.read_s": s("cache.read"), "cache.write_s": s("cache.write"),
            "cache.self_s": s("cache.f_table") + s("cache.read") + s("cache.write"),
            "pfaffinants.functional.calls": c("pfaffinants.functional"),
            "pfaffinants.functional.self_s": s("pfaffinants.functional"),
            "pfaffinants.evaluate.calls": c("pfaffinants.evaluate"),
            "pfaffinants.evaluate.self_s": s("pfaffinants.evaluate"),
            "schurq.schur_q.calls": c("schurq.schur_q"),
            "schurq.schur_q.misses": self._gauge("schurq.schur_q.misses"),
            "schurq.schur_q.self_s": s("schurq.schur_q"),
            "schurq.expand.calls": c("schurq.expand"), "schurq.expand.self_s": s("schurq.expand"),
            "schurq.recheck.calls": n("schurq.recheck.calls"),
            "networks.build.self_s": s("networks.build"),
            "networks.path_weight_matrix.self_s": s("networks.path_weight_matrix"),
            "networks.marked_subnetworks.self_s": s("networks.marked_subnetworks"),
            "networks.families": n("networks.families"),
            "networks.q_i_weight.calls": c("networks.q_i_weight"),
            "networks.q_i_weight.self_s": s("networks.q_i_weight"),
            "networks.hat_pfaf.self_s": s("networks.hat_pfaf"),
            "diagrams.self_s": s("diagrams"),
            "other.self_s": s("op"),
        }
        self.rounds.append(tuple(array(arr.typecode, arr) for arr in
                                 (self.start, self.end, self.name, self.parent, self.op)))
        return m

    def _gauge(self, key: str) -> int:
        if key not in self._gauges:
            return 0
        read, at_reset = self._gauges[key]
        return read() - at_reset

    # -- writing spans -------------------------------------------------------------

    def write_spans(self, stem: Path, provenance: dict) -> Path:
        """Write every traced round's spans: ``stem.json`` (header) and ``stem.bin``."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        header = {"fields": [list(f) for f in FIELDS], "names": self.names,
                  "rounds": [len(r[0]) for r in self.rounds], "provenance": provenance}
        with open(stem.with_suffix(".bin"), "wb") as fh:
            for arrays in self.rounds:
                for arr in arrays:
                    arr.tofile(fh)
        stem.with_suffix(".json").write_text(json.dumps(header, indent=1, sort_keys=True) + "\n")
        return stem.with_suffix(".json")


def read_spans(stem: Path) -> tuple:
    """(header, rounds) as written by write_spans; each round maps field -> array."""
    header = json.loads(stem.with_suffix(".json").read_text())
    rounds = []
    with open(stem.with_suffix(".bin"), "rb") as fh:
        for count in header["rounds"]:
            spans = {}
            for field, code in header["fields"]:
                arr = array(code)
                arr.fromfile(fh, count)
                spans[field] = arr
            rounds.append(spans)
    return header, rounds
