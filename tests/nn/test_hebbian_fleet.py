"""Per-lane bit-identity of the tenant-axis batched Hebbian fleet.

A :class:`repro.nn.hebbian_fleet.HebbianFleet` stepping T class streams
must reproduce T independent clones of the prototype stepping the same
streams — identical probabilities every step, identical learned weights
at the end, and a materialized ``lane_network`` must continue its lane
bit-identically — under every float backend name (all of them the same
numpy arithmetic since PR 16; the list follows the registry).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.backends import available_backends
from repro.nn.hebbian import HebbianConfig, SparseHebbianNetwork
from repro.nn.hebbian_fleet import HebbianFleet
from repro.seeding import child_rng

#: int8 serves from a quantized mirror the fleet deliberately rejects.
BACKENDS = [b for b in available_backends("nn") if b != "int8"]

N_LANES = 5
VOCAB = 48
ROUNDS = 160


def _prototype(backend: str, *, punish: bool = True,
               pretrain: int = 40) -> SparseHebbianNetwork:
    net = SparseHebbianNetwork(HebbianConfig(
        vocab_size=VOCAB, hidden_dim=240, punish_wrong=punish, seed=11,
        backend=backend))
    rng = child_rng(30480, 0)
    for _ in range(pretrain):
        net.step(int(rng.integers(0, VOCAB)))
    net.reset_state()
    return net


def _streams(seed_stream: int) -> np.ndarray:
    rng = child_rng(30481, seed_stream)
    # Skewed per-lane streams: lane t cycles mostly within its own band
    # so transitions repeat (exercising the shared memo) but lanes learn
    # different weights.
    base = rng.integers(0, VOCAB, size=(ROUNDS, N_LANES))
    band = (np.arange(N_LANES) * 7) % VOCAB
    mix = rng.integers(0, 4, size=(ROUNDS, N_LANES)) > 0
    return np.where(mix, (base % 11) + band[None, :], base) % VOCAB


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("punish", [True, False])
def test_fleet_matches_independent_clones(backend: str,
                                          punish: bool) -> None:
    proto = _prototype(backend, punish=punish)
    fleet = HebbianFleet(proto, N_LANES)
    clones = [proto.clone() for _ in range(N_LANES)]
    streams = _streams(0)
    for step in range(ROUNDS):
        probs = fleet.step_all(streams[step])
        for t, clone in enumerate(clones):
            want = clone.step(int(streams[step, t]))
            assert np.array_equal(probs[t], want), (backend, step, t)
    for t, clone in enumerate(clones):
        assert np.array_equal(fleet.w_out[t], clone.w_out), (backend, t)
        assert int(fleet.train_steps[t]) == clone.train_steps


@pytest.mark.parametrize("backend", BACKENDS)
def test_lane_network_continues_bit_identically(backend: str) -> None:
    proto = _prototype(backend)
    fleet = HebbianFleet(proto, N_LANES)
    clones = [proto.clone() for _ in range(N_LANES)]
    streams = _streams(1)
    half = ROUNDS // 2
    for step in range(half):
        fleet.step_all(streams[step])
        for t, clone in enumerate(clones):
            clone.step(int(streams[step, t]))
    for t, clone in enumerate(clones):
        lane = fleet.lane_network(t)
        assert np.array_equal(lane.w_out, clone.w_out)
        for step in range(half, ROUNDS):
            got = lane.step(int(streams[step, t]))
            want = clone.step(int(streams[step, t]))
            assert np.array_equal(got, want), (backend, step, t)


def test_fleet_starts_from_prototype_weights() -> None:
    proto = _prototype("numpy")
    fleet = HebbianFleet(proto, 3)
    for t in range(3):
        assert np.array_equal(fleet.w_out[t], proto.w_out)
    # Lane weights are copies: learning must not write back.
    fleet.step_all([0, 1, 2])
    fleet.step_all([1, 2, 3])
    assert np.array_equal(proto.w_out,
                          _prototype("numpy").w_out)


def test_rejects_unsupported_prototypes() -> None:
    plastic = SparseHebbianNetwork(HebbianConfig(
        vocab_size=16, hidden_dim=64, plastic_hidden=True,
        backend="numpy"))
    with pytest.raises(ValueError, match="plastic_hidden"):
        HebbianFleet(plastic, 2)
    int8 = SparseHebbianNetwork(HebbianConfig(
        vocab_size=16, hidden_dim=64, backend="int8"))
    with pytest.raises(ValueError, match="int8"):
        HebbianFleet(int8, 2)
    with pytest.raises(ValueError, match="positive"):
        HebbianFleet(_prototype("numpy", pretrain=0), 0)


def test_rollout_from_lane_network_matches() -> None:
    """predict_rollout on a materialized lane equals the clone's."""
    proto = _prototype("numpy")
    fleet = HebbianFleet(proto, 2)
    clones = [proto.clone() for _ in range(2)]
    streams = _streams(2)
    for step in range(60):
        fleet.step_all(streams[step, :2])
        for t, clone in enumerate(clones):
            clone.step(int(streams[step, t]))
    for t, clone in enumerate(clones):
        lane = fleet.lane_network(t)
        assert lane.predict_rollout(width=2, length=3) == \
            clone.predict_rollout(width=2, length=3)


@pytest.mark.parametrize("backend", BACKENDS)
def test_step_lanes_subset_matches_clones(backend: str) -> None:
    """Stepping a changing subset each round equals per-clone steps."""
    proto = _prototype(backend)
    fleet = HebbianFleet(proto, N_LANES)
    clones = [proto.clone() for _ in range(N_LANES)]
    streams = _streams(3)
    rng = child_rng(30482, 0)
    for step in range(ROUNDS):
        k = int(rng.integers(1, N_LANES + 1))
        lanes = sorted(rng.choice(N_LANES, size=k, replace=False).tolist())
        classes = [int(streams[step, t]) for t in lanes]
        trains = [bool(rng.integers(0, 2)) for _ in lanes]
        probs = fleet.step_lanes(lanes, classes, trains)
        for i, t in enumerate(lanes):
            want = clones[t].step(classes[i], train=trains[i])
            assert np.array_equal(probs[i], want), (backend, step, t)
    for t, clone in enumerate(clones):
        assert np.array_equal(fleet.w_out[t], clone.w_out), (backend, t)
        assert int(fleet.train_steps[t]) == clone.train_steps


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("punish", [True, False])
def test_train_pairs_lanes_matches_clones(backend: str,
                                          punish: bool) -> None:
    """Batched replay application equals per-clone train_pairs calls."""
    proto = _prototype(backend, punish=punish)
    fleet = HebbianFleet(proto, N_LANES)
    clones = [proto.clone() for _ in range(N_LANES)]
    streams = _streams(4)
    rng = child_rng(30483, 0)
    for step in range(80):
        fleet.step_all(streams[step])
        for t, clone in enumerate(clones):
            clone.step(int(streams[step, t]))
        if step % 3 != 0:
            continue
        lanes = []
        pairs_per_lane = []
        scales = []
        for t in range(N_LANES):
            if rng.integers(0, 2) == 0:
                continue
            count = int(rng.integers(1, 5))
            pairs = [(int(rng.integers(0, VOCAB)),
                      int(rng.integers(0, VOCAB)))
                     for _ in range(count)]
            lanes.append(t)
            pairs_per_lane.append(pairs)
            scales.append(float(rng.choice([0.5, 1.0])))
        if not lanes:
            continue
        fleet.train_pairs_lanes(lanes, pairs_per_lane, scales)
        for t, pairs, scale in zip(lanes, pairs_per_lane, scales):
            clones[t].train_pairs(pairs, lr_scale=scale)
    for t, clone in enumerate(clones):
        assert np.array_equal(fleet.w_out[t], clone.w_out), (backend, t)


@pytest.mark.parametrize("backend", BACKENDS)
def test_rollout_lanes_matches_clones(backend: str) -> None:
    """Batched rollouts equal each clone's predict_rollout, including
    lanes with no scored step yet (empty rollout)."""
    proto = _prototype(backend)
    fleet = HebbianFleet(proto, N_LANES)
    clones = [proto.clone() for _ in range(N_LANES)]
    streams = _streams(5)
    # Leave lane N_LANES-1 unstepped: its rollout must be [].
    stepped = list(range(N_LANES - 1))
    for step in range(60):
        classes = [int(streams[step, t]) for t in stepped]
        fleet.step_lanes(stepped, classes, [True] * len(stepped))
        for i, t in enumerate(stepped):
            clones[t].step(classes[i])
    widths = [2, 3, 1, 4, 2][:N_LANES]
    lengths = [3, 2, 4, 1, 3][:N_LANES]
    rollouts = fleet.rollout_lanes(list(range(N_LANES)), widths, lengths)
    for t in range(N_LANES):
        want = clones[t].predict_rollout(width=widths[t],
                                         length=lengths[t])
        assert rollouts[t] == want, (backend, t)
    assert rollouts[N_LANES - 1] == []


@pytest.mark.parametrize("backend", BACKENDS)
def test_acquire_release_round_trip(backend: str) -> None:
    """A network adopted into a reserve fleet and released continues
    bit-identically to a twin that never left scalar-land."""
    proto = _prototype(backend)
    fleet = HebbianFleet(proto, 2, reserve=True)
    streams = _streams(6)
    nets = [proto.clone() for _ in range(3)]
    twins = [net.clone() for net in nets]
    # Warm the networks outside the fleet first.
    for step in range(20):
        for net, twin in zip(nets, twins):
            net.step(int(streams[step, 0]))
            twin.step(int(streams[step, 0]))
    # Adopt all three: the third acquisition forces a capacity grow.
    slots = [fleet.acquire_lane(net) for net in nets]
    assert len(set(slots)) == 3
    for step in range(20, 40):
        fleet.step_lanes(slots, [int(streams[step, 1])] * 3,
                         [True] * 3)
        for twin in twins:
            twin.step(int(streams[step, 1]))
    for slot, net, twin in zip(slots, nets, twins):
        fleet.release_lane(slot, net)
        assert np.array_equal(net.w_out, twin.w_out)
        assert net.train_steps == twin.train_steps
        for step in range(40, 60):
            got = net.step(int(streams[step, 2]))
            want = twin.step(int(streams[step, 2]))
            assert np.array_equal(got, want), (backend, step)
    # Released slots recycle without growing again.
    recycled = fleet.acquire_lane(nets[0])
    assert recycled in slots


@pytest.mark.parametrize("logged", [True, False],
                         ids=["patch", "full-copy"])
def test_redeploy_lane_equals_release_then_acquire(logged: bool) -> None:
    """Re-pointing a resident slot at a fork that trained apart leaves
    the fleet as the release → acquire round trip does."""
    proto = _prototype("numpy")
    streams = _streams(7)
    fleets, slots = [], []
    for _ in range(2):
        fleet = HebbianFleet(proto, 2, reserve=True)
        fleet.acquire_lane(proto.clone())             # a bystander lane
        slots.append(fleet.acquire_lane(proto.clone()))
        fleets.append(fleet)
    live = proto.clone()
    shadow = live.fork()
    for step in range(20):
        for fleet, slot in zip(fleets, slots):
            fleet.step_lanes([slot], [int(streams[step, 0])], [False])
        shadow.train_pair(int(streams[step, 1]), int(streams[step, 2]))
    changed = live.sync_from(shadow) if logged else None
    assert logged == (changed is not None)
    shadow.reset_state()
    patched, reference = fleets
    patched.redeploy_lane(slots[0], shadow, changed)
    reference.release_lane(slots[1], proto.clone())
    assert reference.acquire_lane(shadow) == slots[1]
    assert np.array_equal(patched.w_out, reference.w_out)
    assert np.array_equal(patched.lane_weights(slots[0]), shadow.w_out)
    assert np.array_equal(patched.train_steps, reference.train_steps)
    for step in range(20, 40):
        classes = [int(streams[step, 0])] * 2
        got = patched.step_lanes([0, slots[0]], classes, [True, True])
        want = reference.step_lanes([0, slots[1]], classes, [True, True])
        assert np.array_equal(got, want), step
    assert patched.rollout_lanes([slots[0]], [2], [3]) == \
        reference.rollout_lanes([slots[1]], [2], [3])


def test_acquire_rejects_config_mismatch() -> None:
    proto = _prototype("numpy")
    fleet = HebbianFleet(proto, 1, reserve=True)
    other = SparseHebbianNetwork(HebbianConfig(
        vocab_size=VOCAB, hidden_dim=200, seed=11, backend="numpy"))
    with pytest.raises(ValueError, match="config"):
        fleet.acquire_lane(other)
