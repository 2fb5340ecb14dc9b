"""Trace recipes and the shared trace-materialization cache.

A *trace recipe* is the JSON description of one trace that every lane
job (``harness.fleet``) carries.  It is one of:

- ``{"app": str, ...AppSpec fields}`` — a synthetic application trace;
- ``{"pattern": str, ...PatternSpec fields}`` — a Table 1 pattern;
- ``{"interleave": [recipe, ...], "seed": int, "name": str}`` — the
  traces randomly interleaved by an explicit mixing seed (``name``
  defaults to ``"interleaved"``);
- ``{"concat": [recipe, ...]}`` — the traces back to back.

App and pattern recipes may add ``"kwargs"``, the generator's keyword
arguments; absent spec fields take the spec's defaults, and any other
key raises.  Generating a trace takes tens of milliseconds at test
scale and minutes at the paper's 2B-access scale, so :func:`materialize`
memoizes traces on disk as ``.npz`` archives keyed by the canonical
:func:`~repro.harness.runner.spec_key` hash of the recipe: any number of
harness invocations and worker processes share one materialization.

The cache is configured per process via :func:`configure`;
:func:`~repro.harness.runner.run_grid` forwards its ``trace_cache_dir``
argument to worker processes through a ``ProcessPoolExecutor``
initializer.  Unconfigured, :func:`materialize` only generates, so the
cache can only change *when* a trace is built, never what it contains.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import tempfile
from pathlib import Path

from ..patterns.applications import AppSpec, generate_application
from ..patterns.generators import PatternSpec, generate
from ..patterns.trace import Trace, interleave
from .runner import spec_key

_cache_dir: Path | None = None


def configure(cache_dir: str | Path | None) -> Path | None:  # repro-lint: zone=init
    """Set (or clear, with ``None``) this process's trace cache directory.

    Creates the directory on demand and returns the previous setting so
    callers can restore it (``run_grid``'s serial path brackets cell
    execution with configure/restore).
    """
    global _cache_dir
    previous = _cache_dir
    if cache_dir is None:
        _cache_dir = None
        return previous
    path = Path(cache_dir)
    if path.exists() and not path.is_dir():
        raise ValueError(f"trace_cache_dir {path} exists and is not "
                         "a directory")
    path.mkdir(parents=True, exist_ok=True)
    _cache_dir = path
    return previous


def configured_dir() -> Path | None:
    """The directory :func:`materialize` currently caches into, if any."""
    return _cache_dir


def trace_spec(app: str, spec: AppSpec) -> dict:
    """Canonical cache spec of one materialized application trace."""
    return {"kind": "trace_materialization", "app": app,
            **dataclasses.asdict(spec)}


def materialize(app: str | dict, spec: AppSpec | None = None) -> Trace:
    """Build a trace, serving/storing the cache if configured.

    ``app`` is an application name with its ``spec``, or a whole trace
    recipe.  A cached archive that fails to load (torn write, foreign
    file) or fails the integrity check is regenerated and overwritten
    rather than served.
    """
    recipe = ({"app": app, **dataclasses.asdict(spec or AppSpec())}
              if isinstance(app, str) else app)
    directory = _cache_dir
    if directory is None:
        return _build(recipe)
    key = spec_key({"kind": "trace_materialization", **recipe})
    path = directory / f"{key}.npz"
    if path.exists():
        cached = _load(path, recipe)
        if cached is not None:
            return cached
    trace = _build(recipe)
    _store(path, trace)
    return trace


def _build(recipe: dict) -> Trace:
    """Generate a recipe's trace, uncached."""
    fields = {key: value for key, value in recipe.items() if key != "kwargs"}
    kwargs = recipe.get("kwargs", {})
    if "app" in recipe:
        return generate_application(fields.pop("app"), AppSpec(**fields),
                                    **kwargs)
    if "pattern" in recipe:
        return generate(fields.pop("pattern"), PatternSpec(**fields), **kwargs)
    if set(recipe) - {"name"} == {"interleave", "seed"}:
        return interleave([_build(part) for part in recipe["interleave"]],
                          seed=recipe["seed"],
                          name=recipe.get("name", "interleaved"))
    if set(recipe) == {"concat"}:
        return functools.reduce(Trace.concat,
                                [_build(part) for part in recipe["concat"]])
    raise ValueError(f"not a trace recipe: keys {sorted(recipe)}")


def _load(path: Path, recipe: dict) -> Trace | None:
    try:
        trace = Trace.load(path)
    except Exception:  # truncated zip, bad JSON sidecar, missing columns
        return None
    # The sha256 key already covers the full recipe; these checks catch a
    # file that loads cleanly but cannot be the requested trace.
    name = recipe.get("app", recipe.get("pattern", recipe.get("name")))
    if ((name is not None and trace.name != name)
            or not 0 < len(trace) <= recipe.get("n", len(trace))):
        return None
    return trace


def _store(path: Path, trace: Trace) -> None:
    """Atomic write (tmp + rename): concurrent workers racing to
    materialize the same trace each write a whole file and the last
    rename wins; readers never observe a torn archive."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp.npz")
    os.close(fd)
    try:
        trace.save(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
