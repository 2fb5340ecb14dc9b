"""Differential suite: the daemon, replayed single-threaded in lockstep,
is bit-identical to the offline prefetcher.

The recorded miss stream comes from a real ``simulate()`` run (cache
feedback shapes which accesses actually miss); a fresh offline
:class:`CLSPrefetcher` per tenant replays it to produce the reference,
and :func:`replay_lockstep` drives the daemon's own round functions in
the canonical stage → drain-trainer → finish → answer order.  Compared
exactly — no tolerances:

- the prefetch pages answered per miss,
- the learned live *and* shadow ``w_out``,
- the §5.5 confidence EMA and redeploy count,
- the self-monitored accuracy EMA.

Parametrized over stacked/scalar serving and replay on/off, so the
fleet-batched path and the background-replay path are each held to the
same bit-identity bar.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.cls_prefetcher import CLSPrefetcher, CLSPrefetcherConfig
from repro.memsim.simulator import SimConfig, simulate
from repro.nn.hebbian import HebbianConfig
from repro.patterns.generators import PatternSpec, generate
from repro.seeding import spawn_seeds
from repro.serve import PrefetchService, ServeConfig, replay_lockstep
from repro.serve.clock import VirtualClock

VOCAB = 64
GLOBAL_SEED = 11
N_TENANTS = 3
PATTERNS = ("pointer_chase", "stride", "indirect_index")


class _RecordingPrefetcher(CLSPrefetcher):
    """Offline prefetcher that records every miss it is shown."""

    def __init__(self, config: CLSPrefetcherConfig) -> None:
        super().__init__(config)
        self.recorded: list[tuple[int, int]] = []

    def on_miss_fast(self, index: int, address: int, page: int,
                     stream_id: int, timestamp: int) -> list[int]:
        self.recorded.append((address, timestamp))
        return super().on_miss_fast(index, address, page, stream_id,
                                    timestamp)


def _offline_config(tenant: int, replay: str | None) -> CLSPrefetcherConfig:
    return CLSPrefetcherConfig(
        vocab_size=VOCAB, prefetch_length=2, prefetch_width=2,
        min_confidence=0.01, min_accuracy=0.05,
        replay_policy=replay, availability=True, phase_detection=False,
        hebbian=HebbianConfig(vocab_size=VOCAB, seed=GLOBAL_SEED),
        seed=spawn_seeds(GLOBAL_SEED, N_TENANTS)[tenant])


def _record_streams(replay: str | None
                    ) -> dict[int, list[tuple[int, int]]]:
    """Run one ``simulate()`` per tenant; return its recorded misses."""
    streams: dict[int, list[tuple[int, int]]] = {}
    for tenant in range(N_TENANTS):
        trace = generate(PATTERNS[tenant % len(PATTERNS)],
                         PatternSpec(n=600, working_set=48,
                                     element_size=4096,
                                     seed=spawn_seeds(GLOBAL_SEED,
                                                      N_TENANTS)[tenant]))
        recorder = _RecordingPrefetcher(_offline_config(tenant, replay))
        simulate(trace, recorder, SimConfig(memory_fraction=0.5))
        streams[tenant] = recorder.recorded
    return streams


@pytest.mark.parametrize("stacked", [True, False],
                         ids=["stacked", "scalar"])
@pytest.mark.parametrize("replay", [None, "full"],
                         ids=["no-replay", "replay"])
def test_lockstep_daemon_matches_offline(stacked: bool,
                                         replay: str | None) -> None:
    streams = _record_streams(replay)
    # Interleave tenant streams round-robin into one daemon feed.
    events: list[tuple[int, int, int]] = []
    for step in range(max(len(s) for s in streams.values())):
        for tenant in range(N_TENANTS):
            if step < len(streams[tenant]):
                address, timestamp = streams[tenant][step]
                events.append((tenant, address, timestamp))

    # Fresh offline references replaying the recorded streams.
    refs = {t: CLSPrefetcher(_offline_config(t, replay))
            for t in range(N_TENANTS)}
    offline: list[list[int]] = []
    for tenant, address, timestamp in events:
        offline.append(refs[tenant].on_miss_fast(
            0, address, address >> 12, 0, timestamp))

    service = PrefetchService(
        ServeConfig(vocab_size=VOCAB, prefetch_length=2, prefetch_width=2,
                    min_confidence=0.01, min_accuracy=0.05,
                    replay_policy=replay, stacked=stacked,
                    seed=GLOBAL_SEED),
        clock=VirtualClock())
    online = replay_lockstep(service, events)

    assert online == offline, "prefetch answers diverged from offline"
    for tenant, ref in refs.items():
        lane = service.lane(tenant)
        assert ref.manager is not None
        assert np.array_equal(lane.manager.live.w_out,
                              ref.manager.live.w_out), \
            f"tenant {tenant}: live weights diverged"
        assert np.array_equal(lane.manager.shadow.w_out,
                              ref.manager.shadow.w_out), \
            f"tenant {tenant}: shadow weights diverged"
        assert lane.manager.confidence_ema == ref.manager.confidence_ema
        assert lane.manager.redeploys == ref.manager.redeploys
        assert lane.accuracy_ema == ref.accuracy_ema
        assert lane.misses_seen == ref.stats.misses_seen
        assert lane.trained_steps == ref.stats.trained_steps
        assert lane.replayed_pairs == ref.stats.replayed_pairs
    # The daemon actually redeployed somewhere, or this test pins nothing
    # about the availability protocol.
    assert sum(service.lane(t).manager.redeploys
               for t in range(N_TENANTS)) > 0


def test_stacked_and_scalar_serving_agree() -> None:
    """The fleet-batched serve path and the per-lane scalar path are the
    same daemon bit for bit (mirrors the fleet's own equivalence suite,
    at the service level)."""
    events = [(t, 4096 * ((i * (t + 3)) % 40), i)
              for i in range(120) for t in range(2)]

    def run(stacked: bool) -> tuple[list[list[int]], list[np.ndarray]]:
        service = PrefetchService(
            ServeConfig(vocab_size=VOCAB, prefetch_length=2,
                        prefetch_width=2, stacked=stacked, seed=5),
            clock=VirtualClock())
        answers = replay_lockstep(service, events)
        weights = [np.array(service.lane(t).live_net().w_out)
                   for t in range(2)]
        return answers, weights

    answers_stacked, weights_stacked = run(True)
    answers_scalar, weights_scalar = run(False)
    assert answers_stacked == answers_scalar
    for stacked_w, scalar_w in zip(weights_stacked, weights_scalar):
        assert np.array_equal(stacked_w, scalar_w)


def test_lockstep_is_deterministic() -> None:
    """Same stream, same config → byte-identical manifests counters."""
    events = [(t, 4096 * ((7 * i + t) % 30), i)
              for i in range(90) for t in range(2)]

    def run() -> tuple[list[list[int]], dict[str, int]]:
        service = PrefetchService(
            ServeConfig(vocab_size=VOCAB, seed=3), clock=VirtualClock())
        return replay_lockstep(service, events), service.counters()

    first, second = run(), run()
    assert first == second
