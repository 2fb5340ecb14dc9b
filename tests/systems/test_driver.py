"""Tests for stream-aware prefetcher composition."""

from __future__ import annotations

import pytest

from repro.memsim.events import MissEvent
from repro.systems.driver import PerStreamPrefetcher


class Recorder:
    """Counts misses it sees; echoes the next page."""

    instances = 0

    def __init__(self):
        Recorder.instances += 1
        self.name = f"rec{Recorder.instances}"
        self.seen: list[int] = []

    def on_miss(self, event: MissEvent) -> list[int]:
        self.seen.append(event.stream_id)
        return [event.page + 1]


def miss(stream: int, page: int = 1) -> MissEvent:
    return MissEvent(index=0, address=page * 4096, page=page,
                     stream_id=stream, timestamp=0)


class TestPerStream:
    def test_routes_by_stream(self):
        instances: list[Recorder] = []

        def factory():
            r = Recorder()
            instances.append(r)
            return r

        demux = PerStreamPrefetcher(factory=factory)
        demux.on_miss(miss(0))
        demux.on_miss(miss(1))
        demux.on_miss(miss(0))
        assert demux.n_streams == 2
        assert instances[0].seen == [0, 0]
        assert instances[1].seen == [1]

    def test_overflow_shared_instance(self):
        demux = PerStreamPrefetcher(factory=Recorder, max_streams=2)
        for stream in range(5):
            demux.on_miss(miss(stream))
        assert demux.n_streams == 2
        assert demux._overflow is not None
        assert demux._overflow.seen == [2, 3, 4]

    def test_rejects_bad_max(self):
        with pytest.raises(ValueError):
            PerStreamPrefetcher(factory=Recorder, max_streams=0)
