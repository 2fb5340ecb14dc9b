"""Memory access traces.

A trace is the unit of work for every simulator and experiment in this
repository: an ordered sequence of memory accesses, each with an address,
an access kind, an issuing stream, and a logical timestamp.  Addresses are
byte addresses; simulators map them to pages or cache lines themselves.

Traces are stored column-wise in numpy arrays so that multi-million-access
traces stay cheap, with a thin object API on top.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator

import numpy as np

#: Access kinds, encoded as small integers in the ``kinds`` column.
KIND_LOAD = 0
KIND_STORE = 1

_KIND_NAMES = {KIND_LOAD: "load", KIND_STORE: "store"}
_KIND_CODES = {name: code for code, name in _KIND_NAMES.items()}


@dataclass(frozen=True)
class MemoryAccess:
    """A single memory access.

    Attributes:
        address: Byte address accessed.
        kind: ``KIND_LOAD`` or ``KIND_STORE``.
        stream_id: Logical stream (thread/process/SM) that issued it.
        timestamp: Logical issue time in nanoseconds.
    """

    address: int
    kind: int = KIND_LOAD
    stream_id: int = 0
    timestamp: int = 0

    @property
    def kind_name(self) -> str:
        return _KIND_NAMES[self.kind]


@dataclass
class Trace:
    """An ordered memory access trace.

    Attributes:
        name: Human-readable label ("stride", "mcf", ...).
        addresses: int64 array of byte addresses.
        kinds: uint8 array of access kinds (defaults to all loads).
        stream_ids: int32 array of issuing stream ids (defaults to 0).
        timestamps: int64 array of logical nanosecond timestamps.  When not
            supplied, accesses are spaced ``default_gap_ns`` apart.
        metadata: Free-form generator parameters, for provenance.
    """

    name: str
    addresses: np.ndarray
    kinds: np.ndarray | None = None
    stream_ids: np.ndarray | None = None
    timestamps: np.ndarray | None = None
    metadata: dict = field(default_factory=dict)
    default_gap_ns: int = 100

    #: Memoized (universe, compact ids) per page size — see page_index().
    _page_index_cache: dict = field(default_factory=dict, init=False,
                                    repr=False, compare=False)

    def __post_init__(self) -> None:
        self.addresses = np.asarray(self.addresses, dtype=np.int64)
        if self.addresses.ndim != 1:
            raise ValueError("addresses must be a 1-D array")
        n = len(self.addresses)
        if self.kinds is None:
            self.kinds = np.zeros(n, dtype=np.uint8)
        else:
            self.kinds = np.asarray(self.kinds, dtype=np.uint8)
        if self.stream_ids is None:
            self.stream_ids = np.zeros(n, dtype=np.int32)
        else:
            self.stream_ids = np.asarray(self.stream_ids, dtype=np.int32)
        if self.timestamps is None:
            self.timestamps = np.arange(n, dtype=np.int64) * self.default_gap_ns
        else:
            self.timestamps = np.asarray(self.timestamps, dtype=np.int64)
        for column, label in (
            (self.kinds, "kinds"),
            (self.stream_ids, "stream_ids"),
            (self.timestamps, "timestamps"),
        ):
            if len(column) != n:
                raise ValueError(f"{label} length {len(column)} != addresses length {n}")

    def __len__(self) -> int:
        return len(self.addresses)

    def __iter__(self) -> Iterator[MemoryAccess]:
        for i in range(len(self)):
            yield self[i]

    def __getitem__(self, i: int) -> MemoryAccess:
        return MemoryAccess(
            address=int(self.addresses[i]),
            kind=int(self.kinds[i]),
            stream_id=int(self.stream_ids[i]),
            timestamp=int(self.timestamps[i]),
        )

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    def pages(self, page_size: int = 4096) -> np.ndarray:
        """Page numbers touched by each access, in order."""
        if page_size <= 0 or page_size & (page_size - 1):
            raise ValueError("page_size must be a positive power of two")
        shift = page_size.bit_length() - 1
        return self.addresses >> shift

    def page_index(self, page_size: int = 4096) -> tuple[np.ndarray, np.ndarray]:
        """``(universe, cids)``: sorted distinct pages and per-access ids.

        ``universe[cids[i]]`` is the page of access ``i``.  Compact ids are
        what make the compiled simulator's residency test a plain array
        lookup.  The result is memoized per page size — treat traces as
        immutable after construction (``slice``/``concat`` return copies),
        as the columns are shared, not re-derived.
        """
        cached = self._page_index_cache.get(page_size)
        if cached is None:
            universe, cids = np.unique(self.pages(page_size),
                                       return_inverse=True)
            cached = (universe, cids)
            self._page_index_cache[page_size] = cached
        return cached

    def footprint_pages(self, page_size: int = 4096) -> int:
        """Number of distinct pages the trace touches."""
        return int(self.page_index(page_size)[0].size)

    def footprint_bytes(self, page_size: int = 4096) -> int:
        return self.footprint_pages(page_size) * page_size

    def deltas(self) -> np.ndarray:
        """Address deltas between consecutive accesses (length n-1)."""
        return np.diff(self.addresses)

    # ------------------------------------------------------------------
    # Composition
    # ------------------------------------------------------------------
    def concat(self, other: "Trace", name: str | None = None) -> "Trace":
        """Append ``other`` after this trace, shifting its timestamps."""
        if len(self) == 0:
            offset = 0
        else:
            offset = int(self.timestamps[-1]) + self.default_gap_ns
        return Trace(
            name=name or f"{self.name}+{other.name}",
            addresses=np.concatenate([self.addresses, other.addresses]),
            kinds=np.concatenate([self.kinds, other.kinds]),
            stream_ids=np.concatenate([self.stream_ids, other.stream_ids]),
            timestamps=np.concatenate([self.timestamps, other.timestamps + offset]),
            metadata={"parts": [self.metadata, other.metadata]},
        )

    def slice(self, start: int, stop: int, name: str | None = None) -> "Trace":
        return Trace(
            name=name or f"{self.name}[{start}:{stop}]",
            addresses=self.addresses[start:stop].copy(),
            kinds=self.kinds[start:stop].copy(),
            stream_ids=self.stream_ids[start:stop].copy(),
            timestamps=self.timestamps[start:stop].copy(),
            metadata=dict(self.metadata),
        )

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> None:
        """Save as a .npz archive with a JSON metadata sidecar entry."""
        path = Path(path)
        np.savez_compressed(
            path,
            addresses=self.addresses,
            kinds=self.kinds,
            stream_ids=self.stream_ids,
            timestamps=self.timestamps,
            meta=np.frombuffer(
                json.dumps({"name": self.name, "metadata": self.metadata}).encode(),
                dtype=np.uint8,
            ),
        )

    @classmethod
    def load(cls, path: str | Path) -> "Trace":
        with np.load(Path(path)) as data:
            meta = json.loads(bytes(data["meta"].tobytes()).decode())
            return cls(
                name=meta["name"],
                addresses=data["addresses"],
                kinds=data["kinds"],
                stream_ids=data["stream_ids"],
                timestamps=data["timestamps"],
                metadata=meta["metadata"],
            )

    @classmethod
    def from_accesses(cls, name: str, accesses: Iterable[MemoryAccess],
                      **kwargs: Any) -> "Trace":
        accesses = list(accesses)
        return cls(
            name=name,
            addresses=np.array([a.address for a in accesses], dtype=np.int64),
            kinds=np.array([a.kind for a in accesses], dtype=np.uint8),
            stream_ids=np.array([a.stream_id for a in accesses], dtype=np.int32),
            timestamps=np.array([a.timestamp for a in accesses], dtype=np.int64),
            **kwargs,
        )


def interleave(traces: list[Trace], seed: int = 0, name: str = "interleaved") -> Trace:
    """Randomly interleave traces, preserving each trace's internal order.

    This models the centralized UVM driver's view (§4): several independent
    access streams arrive merged into one.  Each source trace keeps its own
    ``stream_id`` so consumers can still separate them.
    """
    if not traces:
        raise ValueError("need at least one trace")
    rng = np.random.default_rng(seed)
    lengths = np.array([len(t) for t in traces])
    order = np.repeat(np.arange(len(traces)), lengths)
    rng.shuffle(order)

    cursors = np.zeros(len(traces), dtype=np.int64)
    n = int(lengths.sum())
    addresses = np.empty(n, dtype=np.int64)
    kinds = np.empty(n, dtype=np.uint8)
    stream_ids = np.empty(n, dtype=np.int32)
    for out_i, t_idx in enumerate(order):
        t = traces[t_idx]
        c = cursors[t_idx]
        addresses[out_i] = t.addresses[c]
        kinds[out_i] = t.kinds[c]
        stream_ids[out_i] = t_idx
        cursors[t_idx] += 1
    return Trace(name=name, addresses=addresses, kinds=kinds, stream_ids=stream_ids,
                 metadata={"sources": [t.name for t in traces], "seed": seed})
