"""Parallel, cached experiment runner.

Every figure/ablation in this repository is a *grid*: a list of
independent cells, each mapping deterministically to a small
JSON-serializable result row.  The cells that replay a trace are lane
jobs (trace recipe × prefetcher recipe × sim config, see
``harness.fleet.run_lane_job``).
``run_grid`` executes such a grid with two orthogonal accelerations:

- **Process parallelism** — cells fan out across a
  :class:`~concurrent.futures.ProcessPoolExecutor` (``jobs`` workers).
  Cells are pure functions of their spec, so results are identical to a
  serial run regardless of scheduling.
- **On-disk memoization** — with ``cache_dir`` set, each cell's result is
  stored in ``<cache_dir>/<sha256(spec)>.json`` and served from disk on
  the next invocation.  The key hashes the *entire canonical spec* (plus
  ``CACHE_VERSION``), so changing any knob — trace length, seed, model
  config, sim config — invalidates exactly the affected cells.  Changing
  code does **not** invalidate the cache; bump :data:`CACHE_VERSION` when
  a semantic change makes old results stale, or delete the directory.

Cell functions must be module-level (picklable) and take a single JSON
dict; specs must be JSON-serializable (tuples become lists).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Any

#: Bump when a code change invalidates previously cached results.
CACHE_VERSION = 1


def resolve_jobs(jobs: int | None, n_cells: int) -> int:
    """Resolve a ``jobs`` argument to an effective worker count.

    ``None`` auto-detects: one worker per *available* core — the
    process's CPU affinity mask where the platform exposes it
    (``sched_getaffinity``; containers and batch schedulers routinely
    restrict it well below ``os.cpu_count()``), the total core count
    otherwise — capped at the number of cells (a pool larger than the
    grid only adds spawn cost).  Explicit values are likewise capped at
    ``n_cells``.  Anything that resolves to fewer than two workers means
    "run serially" — on a single-core machine process fan-out is pure
    IPC overhead (``jobs=4`` ran a 16-cell grid at 0.85x of the serial
    loop on one core), so auto-detection deliberately falls back to the
    in-process loop there.
    """
    if jobs is None:
        try:
            jobs = len(os.sched_getaffinity(0))
        except (AttributeError, OSError):
            jobs = os.cpu_count() or 1
    return max(1, min(jobs, n_cells))


class SpecError(TypeError):
    """A cell spec contains a value with no canonical JSON form.

    Raised instead of silently falling back to ``str()`` (or to json's
    non-canonical NaN handling): an unstable serialization would let two
    distinct cells share a cache key — or one cell take a fresh key every
    run — and the disk cache would quietly serve wrong results.
    """


def canonicalize_spec(spec: Any, _path: str = "spec") -> Any:
    """Validate + normalize a spec to its canonical JSON-ready form.

    Allowed values: ``str``/``bool``/``int``/finite ``float``/``None``,
    lists/tuples of allowed values (tuples normalize to lists, matching
    what a JSON round-trip produces), and string-keyed dicts of allowed
    values.  Anything else — numpy scalars, arrays, NaN/inf, callables,
    sets, non-string keys — raises :class:`SpecError` naming the exact
    offending field.
    """
    if spec is None or isinstance(spec, (str, bool, int)):
        return spec
    if isinstance(spec, float):
        if not math.isfinite(spec):
            raise SpecError(f"{_path} is {spec!r}: NaN/inf have no canonical "
                            "JSON form and would poison the cache key")
        return spec
    if isinstance(spec, (list, tuple)):
        return [canonicalize_spec(v, f"{_path}[{i}]") for i, v in enumerate(spec)]
    if isinstance(spec, dict):
        out: dict[str, Any] = {}
        for key, value in spec.items():
            if not isinstance(key, str):
                raise SpecError(f"{_path} has non-string key {key!r} "
                                f"({type(key).__name__}); JSON object keys "
                                "must be str")
            out[key] = canonicalize_spec(value, f"{_path}[{key!r}]")
        return out
    raise SpecError(f"{_path} is not JSON-serializable "
                    f"({type(spec).__name__}: {spec!r}); use "
                    "int/float/str/bool/None, lists/tuples, or "
                    "str-keyed dicts (numpy scalars: call .item() first)")


def spec_key(spec: dict) -> str:
    """Stable content hash of a cell spec (includes ``CACHE_VERSION``).

    Keys are canonical: dict insertion order, tuple-vs-list, and dict-key
    order never change the hash, and non-JSON values are rejected loudly
    (see :class:`SpecError`) so the runtime and repro-lint's RL005 agree
    on what may live in a spec.
    """
    canonical = json.dumps(
        {"cache_version": CACHE_VERSION, "spec": canonicalize_spec(spec)},
        sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _cache_load(path: Path, spec: dict) -> Any:
    """Load a cached result, verifying the stored spec is the one asked for.

    The filename hash should make a mismatch impossible, but a hash
    collision, a foreign file dropped into the cache directory, or a
    stale file from a buggy writer would silently serve a wrong result
    for the lifetime of the cache — so the stored canonical spec is
    compared against the requested one and any mismatch is treated as a
    miss (the cell recomputes and overwrites).
    """
    try:
        with path.open("r", encoding="utf-8") as fh:
            payload = json.load(fh)
        stored_spec = payload["spec"]
        result = payload["result"]
    except (OSError, ValueError, KeyError):
        return None
    if stored_spec != canonicalize_spec(spec):
        return None
    return result


def _cache_store(path: Path, spec: dict, result: Any) -> None:
    """Atomic write (tmp + rename) so concurrent runs never see torn files."""
    payload = json.dumps({"spec": canonicalize_spec(spec), "result": result},
                         sort_keys=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _init_worker(trace_cache_dir: str | None,
                 telemetry_dir: str | None,
                 telemetry_interval: int | None,
                 backend: str = "auto") -> None:
    """ProcessPoolExecutor initializer: re-establish per-process module
    state (trace cache, telemetry sink directory, kernel backend) that
    does not survive the fork/spawn."""
    if trace_cache_dir is not None:
        from . import trace_cache

        trace_cache.configure(trace_cache_dir)
    if telemetry_dir is not None:
        from .. import telemetry

        telemetry.configure(telemetry_dir, telemetry_interval)
    if backend != "auto":
        from ..nn import backends

        backends.set_default_backend(backend)


def run_grid(specs: Sequence[dict], fn: Callable[[dict], object],
             jobs: int | None = None,
             cache_dir: str | Path | None = None,
             trace_cache_dir: str | Path | None = None,
             telemetry_dir: str | Path | None = None,
             telemetry_interval: int | None = None,
             backend: str = "auto") -> list[Any]:
    """Run ``fn(spec)`` for every spec; return results in spec order.

    Args:
        specs: JSON-serializable cell descriptions.  Duplicate specs are
            computed once and fanned back out.
        fn: Module-level cell function (pickled to workers when
            ``jobs > 1``).
        jobs: Worker processes.  ``None`` auto-detects the cores this
            process may run on (its CPU affinity mask, ``os.cpu_count()``
            only where the platform has none); see :func:`resolve_jobs`.
            ``0``/``1`` (or a grid with a single uncached cell) runs
            serially in-process.
        cache_dir: Directory for the JSON result cache (created on
            demand).  ``None`` disables caching.
        trace_cache_dir: Directory for the shared trace-materialization
            cache (see ``harness.trace_cache``).  Configured in every
            worker process (or bracketed around the serial loop) for the
            duration of the grid; ``None`` leaves trace generation
            uncached.
        telemetry_dir: Directory telemetry-aware cells write per-run
            JSONL into (see ``repro.telemetry``).  Plumbed the same way
            as ``trace_cache_dir`` — per-process module state, never part
            of the cell spec, so observed and unobserved grids share
            result-cache entries.  Cells served from the result cache do
            not re-run and therefore write no telemetry.
        telemetry_interval: Window interval for those sinks (``None``
            keeps the telemetry package default).
        backend: Kernel backend every cell's ``"auto"`` resolves to
            (see ``repro.nn.backends``).  Plumbed as per-process ambient
            state, never into the cell specs: backends are bit-identical
            by contract, so the same spec maps to the same cache entry
            regardless of which backend computed it.  ``"auto"`` keeps
            availability-based selection.
    """
    from ..nn import backends

    if backend != "auto":
        # Fail in the caller, not inside a pool worker.
        backends.resolve_backend(backend)
    specs = list(specs)
    keys = [spec_key(spec) for spec in specs]
    results: dict[str, object] = {}

    cache_path = None
    if cache_dir is not None:
        cache_path = Path(cache_dir)
        if cache_path.exists() and not cache_path.is_dir():
            raise ValueError(f"cache_dir {cache_path} exists and is not "
                             "a directory")
        cache_path.mkdir(parents=True, exist_ok=True)
        for key, spec in zip(keys, specs):
            if key in results:
                continue
            cached = _cache_load(cache_path / f"{key}.json", spec)
            if cached is not None:
                results[key] = cached

    pending: list[tuple[str, dict]] = []
    seen = set(results)
    for key, spec in zip(keys, specs):
        if key not in seen:
            seen.add(key)
            pending.append((key, spec))

    if pending:
        workers = resolve_jobs(jobs, len(pending))
        needs_state = (trace_cache_dir is not None
                       or telemetry_dir is not None
                       or backend != "auto")
        if workers > 1:
            if needs_state:
                pool = ProcessPoolExecutor(
                    max_workers=workers,
                    initializer=_init_worker,
                    initargs=(
                        str(trace_cache_dir)
                        if trace_cache_dir is not None else None,
                        str(telemetry_dir)
                        if telemetry_dir is not None else None,
                        telemetry_interval,
                        backend,
                    ))
            else:
                pool = ProcessPoolExecutor(max_workers=workers)
            with pool:
                futures = [(key, spec, pool.submit(fn, spec))
                           for key, spec in pending]
                computed = [(key, spec, future.result())
                            for key, spec, future in futures]
        elif needs_state:
            from . import trace_cache
            from .. import telemetry

            prev_trace = (trace_cache.configure(trace_cache_dir)
                          if trace_cache_dir is not None else None)
            prev_telemetry = (telemetry.configure(telemetry_dir,
                                                  telemetry_interval)
                              if telemetry_dir is not None else None)
            prev_backend = backends.get_default_backend()
            if backend != "auto":
                backends.set_default_backend(backend)
            try:
                computed = [(key, spec, fn(spec)) for key, spec in pending]
            finally:
                if trace_cache_dir is not None:
                    trace_cache.configure(prev_trace)
                if telemetry_dir is not None:
                    telemetry.configure(prev_telemetry)
                if backend != "auto":
                    backends.set_default_backend(prev_backend)
        else:
            computed = [(key, spec, fn(spec)) for key, spec in pending]
        for key, spec, result in computed:
            results[key] = result
            if cache_path is not None:
                _cache_store(cache_path / f"{key}.json", spec, result)

    return [results[key] for key in keys]
