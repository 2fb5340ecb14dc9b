"""Outside-only tracing: spans recorded around calls into each layer.

Nothing under ``src/`` is instrumented.  The benchmark wraps the objects it
hands to the program — a :class:`TimedPrefetcher` proxy around a
prefetcher, a :class:`TimedModel` proxy given to
``CLSPrefetcher(config, model=...)`` — and times the public calls it makes
itself.  Spans carry name, start, end, parent and run id; they stay in
memory and are written to ``trace.jsonl`` when the benchmark ends.  A
layer's self time is its span's duration minus the part its children cover.
"""

from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter
from typing import Any

import numpy as np

#: ``trace.jsonl`` keeps at most this many span lines (the per-name summary
#: in its header always covers every span).
MAX_SPAN_LINES = 200_000


class Tracer:
    """An in-memory span log with an implicit parent stack.

    Single-threaded by design (every workload drives the program from one
    load-generating thread), so the current parent is one integer.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.run: list[int] = []
        self.run_id = 0
        #: Counts recorded at the same boundaries as the spans, so ratios
        #: (time per pair, per event) are measured where the work happens.
        self.counters: dict[str, int] = {}
        self._current = -1
        self._arrays: tuple[int, tuple[np.ndarray, ...]] | None = None

    def intern(self, name: str) -> int:
        ident = self._name_ids.get(name)
        if ident is None:
            ident = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return ident

    def begin(self, name_id: int) -> int:
        index = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._current)
        self.run.append(self.run_id)
        self.end.append(0.0)
        self._current = index
        self.start.append(perf_counter())
        return index

    def finish(self, index: int) -> None:
        self.end[index] = perf_counter()
        self._current = self.parent[index]

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def call(self, name_id: int, fn: Any, *args: Any) -> Any:
        """Run ``fn(*args)`` inside a span (the call-by-call instrument)."""
        index = self.begin(name_id)
        try:
            return fn(*args)
        finally:
            self.finish(index)

    # -- analysis -----------------------------------------------------------
    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(name ids, durations, self times, run ids) as numpy arrays
        (memoized until another span is recorded)."""
        if self._arrays is not None and self._arrays[0] == len(self.start):
            return self._arrays[1]  # type: ignore[return-value]
        name = np.asarray(self.name_id, dtype=np.int64)
        duration = (np.asarray(self.end, dtype=float)
                    - np.asarray(self.start, dtype=float))
        parent = np.asarray(self.parent, dtype=np.int64)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent],
                              weights=duration[has_parent],
                              minlength=len(duration))
        out = (name, duration, duration - covered, np.asarray(self.run))
        self._arrays = (len(self.start), out)
        return out

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: count, total, self total (seconds), mean and p99
        duration (seconds)."""
        name, duration, self_time, _ = self.arrays()
        out: dict[str, dict[str, float]] = {}
        for ident, label in enumerate(self.names):
            mask = name == ident
            count = int(mask.sum())
            if not count:
                continue
            picked = duration[mask]
            out[label] = {
                "count": count,
                "total_s": float(picked.sum()),
                "self_s": float(self_time[mask].sum()),
                "mean_s": float(picked.mean()),
                "p99_s": float(np.percentile(picked, 99)),
            }
        return out

    def durations(self, label: str) -> np.ndarray:
        """All durations (seconds) of spans named ``label``."""
        ident = self._name_ids.get(label)
        if ident is None:
            return np.zeros(0)
        name, duration, _, _ = self.arrays()
        return duration[name == ident]

    def self_times(self, label: str) -> np.ndarray:
        ident = self._name_ids.get(label)
        if ident is None:
            return np.zeros(0)
        name, _, self_time, _ = self.arrays()
        return self_time[name == ident]

    def write(self, path: Path, workload: str) -> None:
        """Write ``trace.jsonl``: one header line (names + per-name
        summary over *all* spans), then one line per span, capped at
        :data:`MAX_SPAN_LINES`."""
        path.parent.mkdir(parents=True, exist_ok=True)
        total = len(self.start)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({
                "record": "trace_header", "workload": workload,
                "spans": total, "written": min(total, MAX_SPAN_LINES),
                "summary": self.summary()}) + "\n")
            names = self.names
            for i in range(min(total, MAX_SPAN_LINES)):
                handle.write(json.dumps({
                    "id": i, "name": names[self.name_id[i]],
                    "start": self.start[i], "end": self.end[i],
                    "parent": self.parent[i], "run": self.run[i]}) + "\n")


class TimedPrefetcher:
    """Prefetcher proxy that spans ``on_miss`` / ``on_miss_fast``.

    Everything the simulator probes to pick an engine — ``is_null``,
    ``wants_accesses``, ``on_access``, ``on_access_fast`` and whether
    ``on_miss_fast`` exists at all — is answered by the wrapped
    prefetcher, so engine selection and outcomes are unchanged
    (``bench/tests/test_tracing.py`` pins that bit for bit).
    """

    def __init__(self, inner: Any, tracer: Tracer, span_name: str) -> None:
        self._inner = inner
        self._tracer = tracer
        self._span = tracer.intern(span_name)
        fast = getattr(inner, "on_miss_fast", None)
        if fast is not None:
            self._fast = fast
            # Instance attribute, so ``getattr(p, "on_miss_fast", None)``
            # is None exactly when the wrapped prefetcher has none.
            self.on_miss_fast = self._on_miss_fast

    def __getattr__(self, attr: str) -> Any:
        return getattr(self._inner, attr)

    def on_miss(self, event: Any) -> list[int]:
        tracer = self._tracer
        index = tracer.begin(self._span)
        out = self._inner.on_miss(event)
        tracer.finish(index)
        return out

    def _on_miss_fast(self, index: int, address: int, page: int,
                      stream_id: int, timestamp: int) -> list[int]:
        tracer = self._tracer
        span = tracer.begin(self._span)
        out = self._fast(index, address, page, stream_id, timestamp)
        tracer.finish(span)
        return out


class TimedModel:
    """``SequenceModel`` proxy that spans ``step`` / ``train_pair`` /
    ``train_pairs`` / ``predict_rollout`` / ``clone``.

    ``simulate()`` never checks the concrete model type, so a forwarding
    proxy suffices there; attribute probes such as
    ``rollout_top_argpartition`` and ``train_pairs_sequential_equivalent``
    reach the wrapped model through ``__getattr__``.
    """

    def __init__(self, inner: Any, tracer: Tracer, layer: str) -> None:
        self._inner = inner
        self._tracer = tracer
        self._layer = layer
        self._step = tracer.intern(f"{layer}.step")
        self._train_pair = tracer.intern(f"{layer}.train_pair")
        self._train_pairs = tracer.intern(f"{layer}.train_pairs")
        self._rollout = tracer.intern(f"{layer}.predict_rollout")
        self._clone = tracer.intern(f"{layer}.clone")
        self._pairs = f"{layer}.pairs_trained"

    def __getattr__(self, attr: str) -> Any:
        return getattr(self._inner, attr)

    def step(self, input_class: int, train: bool = True,
             lr_scale: float = 1.0) -> np.ndarray:
        tracer = self._tracer
        span = tracer.begin(self._step)
        out = self._inner.step(input_class, train, lr_scale)
        tracer.finish(span)
        return out

    def train_pair(self, input_class: int, target_class: int,
                   lr_scale: float = 1.0) -> float:
        tracer = self._tracer
        span = tracer.begin(self._train_pair)
        out = self._inner.train_pair(input_class, target_class, lr_scale)
        tracer.finish(span)
        tracer.count(self._pairs)
        return out

    def train_pairs(self, pairs: list[tuple[int, int]],
                    lr_scale: float = 1.0) -> None:
        tracer = self._tracer
        span = tracer.begin(self._train_pairs)
        self._inner.train_pairs(pairs, lr_scale)
        tracer.finish(span)
        tracer.count(self._pairs, len(pairs))

    def predict_rollout(self, width: int = 1, length: int = 1
                        ) -> list[list[tuple[int, float]]]:
        tracer = self._tracer
        span = tracer.begin(self._rollout)
        out = self._inner.predict_rollout(width, length)
        tracer.finish(span)
        return out

    def clone(self) -> "TimedModel":
        tracer = self._tracer
        span = tracer.begin(self._clone)
        twin = self._inner.clone()
        tracer.finish(span)
        return TimedModel(twin, tracer, self._layer)
