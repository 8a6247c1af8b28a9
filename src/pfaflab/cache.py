"""JSON cache for uncrossing-weight tables, keyed by (n, matching, seed)."""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

from .diagrams import enumerate_matchings, parse_diagram_key
from .uncross import f_coefficient

ENV_CACHE_DIR = "PFAFLAB_CACHE_DIR"

_memory: dict = {}
_config = {"dir": None, "enabled": True}


def configure(cache_dir=None, enabled: bool = True) -> None:
    """Process-wide cache location and on/off switch (CLI plumbing)."""
    _config["dir"] = Path(cache_dir) if cache_dir else None
    _config["enabled"] = enabled


def default_cache_dir() -> Path:
    if _config["dir"] is not None:
        return _config["dir"]
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "pfaflab"


def _pi_slug(pi) -> str:
    return "_".join(f"{i}-{j}" for i, j in sorted(pi))


def table_path(cache_dir: Path, n: int, pi, seed: int) -> Path:
    return Path(cache_dir) / f"f_n{n}_s{seed}_{_pi_slug(pi)}.json"


def write_table(path: Path, n: int, pi, seed: int, table: dict) -> None:
    payload = {
        "n": n,
        "pi": [list(e) for e in sorted(pi)],
        "seed": seed,
        "f": {D.key(): w for D, w in sorted(table.items(), key=lambda kv: kv[0].key())},
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    # a private temporary file per writer, so concurrent writers of one
    # table never rename each other's file away
    fd, tmp = tempfile.mkstemp(prefix=path.name, suffix=".tmp", dir=path.parent)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(json.dumps(payload, indent=1, sort_keys=True))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def read_table(path: Path, n: int) -> dict:
    payload = json.loads(path.read_text())
    return {parse_diagram_key(k, n): int(v) for k, v in payload["f"].items()}


def f_table(pi, n: int, seed: int = 0, cache_dir=None, use_cache: bool = True,
            verify: bool = False) -> dict:
    """Uncrossing weights per diagram, via the in-memory/file cache.

    With ``verify`` the cached table is checked against a fresh computation.
    """
    use_cache = use_cache and _config["enabled"]
    directory = Path(cache_dir) if cache_dir else default_cache_dir()
    key = (str(directory), n, frozenset(pi), seed)
    if use_cache and key in _memory and not verify:
        return _memory[key]
    path = table_path(directory, n, pi, seed)
    table = None
    if use_cache and path.exists():
        table = read_table(path, n)
        if verify and table != f_coefficient(pi, n, seed):
            raise RuntimeError(f"cache mismatch for {path}")
    if table is None:
        table = f_coefficient(pi, n, seed)
        if use_cache:
            write_table(path, n, pi, seed, table)
    if use_cache:
        _memory[key] = table
    return table


def f_tables(n: int, seed: int = 0, cache_dir=None, use_cache: bool = True) -> dict:
    """The table of every matching of [2n], memoised as one dict per (dir, n, seed)."""
    use_cache = use_cache and _config["enabled"]
    directory = Path(cache_dir) if cache_dir else default_cache_dir()
    key = (str(directory), n, seed)
    if use_cache and key in _memory:
        return _memory[key]
    tables = {pi: f_table(pi, n, seed, directory, use_cache) for pi in enumerate_matchings(n)}
    if use_cache:
        _memory[key] = tables
    return tables


def clear_memory() -> None:
    _memory.clear()
