"""Per-lane bit-identity of the tenant-axis batched Hebbian fleet.

A :class:`repro.nn.hebbian_fleet.HebbianFleet` stepping T class streams
must reproduce T independent networks stepping the same streams —
identical probabilities every step, identical learned weights at the
end, and a materialized ``lane_network`` must continue its lane
bit-identically.  The fleet runs on the compiled kernels alone, so its
prototype is on ``c`` and every case that builds one skips without the C
backend; the independent networks it is checked against run under every
float backend name (``backend``: numpy's arithmetic, the oracle, or the
scalar network's own kernels; the list follows the registry).

A kernel call is one array program at every width, so the bit-identity
cases also run at a spread of call widths (``CALL_WIDTHS``), and a call
on no lane at all is pinned as a no-op.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hippocampus import (
    MAX_ATTEMPTS_PER_PICK,
    Episode,
    EpisodicStore,
    LaneDraws,
)
from repro.nn import hebbian, hebbian_fleet
from repro.nn.backends import available_backends, backend_available
from repro.nn.hebbian import (
    HebbianConfig,
    SparseHebbianNetwork,
    select_topk,
)
from repro.nn.hebbian_fleet import HebbianFleet
from repro.nn.lstm import LSTMConfig, OnlineLSTM
from repro.seeding import child_rng

#: The independent networks' backends (int8 serves a quantized mirror,
#: which is not bit-identical).
BACKENDS = [b for b in available_backends("nn") if b != "int8"]

#: A case that builds a fleet.
needs_c = pytest.mark.skipif(not backend_available("c"),
                             reason="a HebbianFleet needs the C backend")

N_LANES = 5
VOCAB = 48
ROUNDS = 160

#: Lanes per call: one, two, a dozen either side, and 64.
CALL_WIDTHS = [1, 2, 11, 12, 13, 64]


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


def _twins(backend: str, n_lanes: int, *, punish: bool = True
           ) -> list[SparseHebbianNetwork]:
    """``n_lanes`` independent networks equal to the fleet's prototype,
    served on ``backend``."""
    oracle = _prototype(backend, punish=punish)
    return [oracle.clone() for _ in range(n_lanes)]


def _streams(seed_stream: int, n_lanes: int = N_LANES) -> np.ndarray:
    rng = child_rng(30481, seed_stream)
    # Skewed per-lane streams: lane t cycles mostly within its own band
    # so transitions repeat (exercising the shared memo) but lanes learn
    # different weights.
    base = rng.integers(0, VOCAB, size=(ROUNDS, n_lanes))
    band = (np.arange(n_lanes) * 7) % VOCAB
    mix = rng.integers(0, 4, size=(ROUNDS, n_lanes)) > 0
    return np.where(mix, (base % 11) + band[None, :], base) % VOCAB


@needs_c
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("punish", [True, False])
def test_fleet_matches_independent_clones(backend: str,
                                          punish: bool) -> None:
    _check_lockstep(backend, punish, N_LANES)


def _check_lockstep(backend: str, punish: bool, n_lanes: int) -> None:
    fleet = HebbianFleet(_prototype("c", punish=punish), n_lanes)
    clones = _twins(backend, n_lanes, punish=punish)
    streams = _streams(0, n_lanes)
    for step in range(ROUNDS):
        probs = fleet.step_all(streams[step])
        for t, clone in enumerate(clones):
            want = clone.step(int(streams[step, t]))
            assert np.array_equal(probs[t], want), (backend, step, t)
    for t, clone in enumerate(clones):
        assert np.array_equal(fleet.w_out[t], clone.w_out), (backend, t)
        assert int(fleet.train_steps[t]) == clone.train_steps


@needs_c
@pytest.mark.parametrize("backend", BACKENDS)
def test_lane_network_continues_bit_identically(backend: str) -> None:
    fleet = HebbianFleet(_prototype("c"), N_LANES)
    clones = _twins(backend, N_LANES)
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


@needs_c
def test_fleet_starts_from_prototype_weights() -> None:
    proto = _prototype("c")
    fleet = HebbianFleet(proto, 3)
    for t in range(3):
        assert np.array_equal(fleet.w_out[t], proto.w_out)
    # Lane weights are copies: learning must not write back.
    fleet.step_all([0, 1, 2])
    fleet.step_all([1, 2, 3])
    assert np.array_equal(proto.w_out,
                          _prototype("c").w_out)


def test_rejects_unsupported_prototypes() -> None:
    """A prototype without the compiled kernels — served on numpy, or the
    int8 serving mirror — is refused, and so is a fleet of no lanes."""
    for backend in ("numpy", "int8"):
        net = SparseHebbianNetwork(HebbianConfig(
            vocab_size=16, hidden_dim=64, backend=backend))
        assert not HebbianFleet.stacks(net)
        with pytest.raises(ValueError, match="compiled Hebbian kernels"):
            HebbianFleet(net, 2)
    with pytest.raises(ValueError, match="positive"):
        HebbianFleet(_prototype("numpy", pretrain=0), 0)


@needs_c
def test_rollout_from_lane_network_matches() -> None:
    """predict_rollout on a materialized lane equals the clone's."""
    proto = _prototype("c")
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


@needs_c
@pytest.mark.parametrize("backend", BACKENDS)
def test_step_lanes_subset_matches_clones(backend: str) -> None:
    """Stepping a changing subset each round equals per-clone steps."""
    _check_subset_steps(backend, N_LANES)


def _check_subset_steps(backend: str, n_lanes: int) -> None:
    fleet = HebbianFleet(_prototype("c"), n_lanes)
    clones = _twins(backend, n_lanes)
    streams = _streams(3, n_lanes)
    rng = child_rng(30482, 0)
    for step in range(ROUNDS):
        k = int(rng.integers(1, n_lanes + 1))
        lanes = sorted(rng.choice(n_lanes, size=k, replace=False).tolist())
        classes = [int(streams[step, t]) for t in lanes]
        trains = [bool(rng.integers(0, 2)) for _ in lanes]
        probs = fleet.step_lanes(lanes, classes, trains)
        for i, t in enumerate(lanes):
            want = clones[t].step(classes[i], train=trains[i])
            assert np.array_equal(probs[i], want), (backend, step, t)
    for t, clone in enumerate(clones):
        assert np.array_equal(fleet.w_out[t], clone.w_out), (backend, t)
        assert int(fleet.train_steps[t]) == clone.train_steps


@needs_c
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("punish", [True, False])
def test_train_pairs_lanes_matches_clones(backend: str,
                                          punish: bool) -> None:
    """Batched replay application equals per-clone train_pairs calls."""
    _check_train_pairs(backend, punish, N_LANES)


def _check_train_pairs(backend: str, punish: bool, n_lanes: int) -> None:
    fleet = HebbianFleet(_prototype("c", punish=punish), n_lanes)
    clones = _twins(backend, n_lanes, punish=punish)
    streams = _streams(4, n_lanes)
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
        for t in range(n_lanes):
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


@needs_c
@pytest.mark.parametrize("punish", [True, False])
def test_replay_rings_is_sample_then_train_pairs(punish: bool) -> None:
    """``replay_rings`` — draw, pick and train in one kernel call — equals
    ``EpisodicStore.sample`` and ``train_pairs`` on each lane's own clone
    and generator: drawing from ``LaneDraws``' blocks, and from draws
    given (the rows the rejection loop draws), on a book that has not met
    the inputs' codes yet and on one that has."""
    n_lanes, per_step, cap = 6, 2, 16
    attempts = per_step * MAX_ATTEMPTS_PER_PICK
    proto = _prototype("c", punish=punish)
    fleet = HebbianFleet(proto, n_lanes)
    clones = [proto.clone() for _ in range(n_lanes)]
    rng = child_rng(30490, 0)
    count = np.array([0, 1, 5, cap, 3 * cap + 5, 40])
    rings = (count, cap, np.zeros((n_lanes, cap), dtype=np.int32),
             np.zeros((n_lanes, cap), dtype=np.int32),
             np.zeros((n_lanes, cap), dtype=np.int64))
    stores = []
    for t in range(n_lanes):
        store = EpisodicStore(capacity=cap)
        for i in range(int(count[t])):
            episode = Episode(int(rng.integers(0, VOCAB)),
                              int(rng.integers(0, VOCAB)),
                              int(rng.integers(0, 3)))
            store.store(episode)
            for column, value in zip(rings[2:], episode[:3]):
                column[t, i % cap] = value
        stores.append(store)
    draws = LaneDraws(n_lanes)
    mine = [np.random.default_rng([7, t]) for t in range(n_lanes)]
    reference = [np.random.default_rng([7, t]) for t in range(n_lanes)]
    for t, generator in enumerate(mine):
        draws.attach(t, generator)
    lanes = np.arange(n_lanes)
    replayed = np.zeros(n_lanes, dtype=np.int64)
    want_replayed = np.zeros(n_lanes, dtype=np.int64)
    for step in range(12):
        phase = rng.integers(-1, 3, size=n_lanes)
        values = np.empty((n_lanes, attempts), dtype=np.int64)
        if step % 4 == 3:
            given = None
            values[:] = 0  # a store of one draws nothing
            for t in range(n_lanes):
                size = min(int(count[t]), cap)
                if size > 1:
                    values[t] = draws.draw_exact(t, size, attempts)
        else:
            draws.ready(lanes, attempts)
            given = draws.blocks()
        assert fleet.replay_rings(lanes, phase, values, given, rings,
                                  per_step, 0.5, replayed).size == 0
        for t, (store, clone) in enumerate(zip(stores, clones)):
            exclude = int(phase[t]) if phase[t] >= 0 else None
            picks = store.sample(reference[t], per_step, exclude)
            clone.train_pairs([(e.input_class, e.target_class)
                               for e in picks], lr_scale=0.5)
            want_replayed[t] += len(picks)
    assert replayed.tolist() == want_replayed.tolist()
    for t, clone in enumerate(clones):
        assert np.array_equal(fleet.w_out[t], clone.w_out), t
        draws.detach(t)
        assert mine[t].bit_generator.state == reference[t].bit_generator.state


@needs_c
@pytest.mark.parametrize("backend", BACKENDS)
def test_rollout_lanes_matches_clones(backend: str) -> None:
    """Batched rollouts equal each clone's predict_rollout, including
    lanes with no scored step yet (empty rollout)."""
    _check_rollouts(backend, N_LANES, [2, 3, 1, 4, 2])


def _check_rollouts(backend: str, n_lanes: int, widths: list[int]) -> None:
    """``widths`` cycles over the lanes (one value: the uniform-width
    row-wise selection; ``VOCAB`` and up: the full-sort branch)."""
    fleet = HebbianFleet(_prototype("c"), n_lanes)
    clones = _twins(backend, n_lanes)
    streams = _streams(5, n_lanes)
    # Leave the last lane unstepped: its rollout must be [].
    stepped = list(range(n_lanes - 1))
    for step in range(60):
        classes = [int(streams[step, t]) for t in stepped]
        fleet.step_lanes(stepped, classes, [True] * len(stepped))
        for i, t in enumerate(stepped):
            clones[t].step(classes[i])
    widths = [widths[t % len(widths)] for t in range(n_lanes)]
    lengths = [[3, 2, 4, 1, 3][t % 5] for t in range(n_lanes)]
    rollouts = fleet.rollout_lanes(list(range(n_lanes)), widths, lengths)
    for t in range(n_lanes):
        want = clones[t].predict_rollout(width=widths[t],
                                         length=lengths[t])
        assert rollouts[t] == want, (backend, t)
    assert rollouts[n_lanes - 1] == []


@needs_c
@pytest.mark.parametrize("backend", BACKENDS)
def test_acquire_release_round_trip(backend: str) -> None:
    """A network adopted into a reserve fleet and released continues
    bit-identically to a twin that never left scalar-land."""
    proto = _prototype("c")
    fleet = HebbianFleet(proto, 2, reserve=True)
    streams = _streams(6)
    nets = [proto.clone() for _ in range(3)]
    twins = _twins(backend, 3)
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


@needs_c
@pytest.mark.parametrize("logged", [True, False],
                         ids=["patch", "full-copy"])
def test_redeploy_lane_equals_release_then_acquire(logged: bool) -> None:
    """Re-pointing a resident slot at a fork that trained apart leaves
    the fleet as the release → acquire round trip does."""
    proto = _prototype("c")
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


@needs_c
def test_acquire_rejects_config_mismatch() -> None:
    proto = _prototype("c")
    fleet = HebbianFleet(proto, 1, reserve=True)
    other = SparseHebbianNetwork(HebbianConfig(
        vocab_size=VOCAB, hidden_dim=200, seed=11, backend="c"))
    with pytest.raises(ValueError, match="config"):
        fleet.acquire_lane(other)


# ----------------------------------------------------------------------
# Call widths (against numpy's arithmetic; the lane loops case below
# checks the same against the scalar network's kernels)
# ----------------------------------------------------------------------
@needs_c
@pytest.mark.parametrize("n_lanes", CALL_WIDTHS)
@pytest.mark.parametrize("punish", [True, False])
def test_lockstep_bit_identity_at_call_width(n_lanes: int,
                                             punish: bool) -> None:
    _check_lockstep("numpy", punish, n_lanes)


@needs_c
@pytest.mark.parametrize("n_lanes", CALL_WIDTHS)
def test_subset_steps_bit_identity_at_call_width(n_lanes: int) -> None:
    _check_subset_steps("numpy", n_lanes)


@needs_c
@pytest.mark.parametrize("n_lanes", CALL_WIDTHS)
@pytest.mark.parametrize("punish", [True, False])
def test_train_pairs_bit_identity_at_call_width(n_lanes: int,
                                                punish: bool) -> None:
    _check_train_pairs("numpy", punish, n_lanes)


@needs_c
@pytest.mark.parametrize("n_lanes", CALL_WIDTHS)
@pytest.mark.parametrize("widths", [[2], [1], [4], [2, 3, 1, 4, 2],
                                    [VOCAB], [2, VOCAB + 3]],
                         ids=["w2", "w1", "w4", "mixed", "vocab", "over"])
def test_rollouts_bit_identity_at_call_width(n_lanes: int,
                                             widths: list[int]) -> None:
    _check_rollouts("numpy", n_lanes, widths)


@needs_c
@pytest.mark.parametrize("n_lanes", CALL_WIDTHS)
def test_the_lane_loops_at_call_width(n_lanes: int) -> None:
    """The four cases above against networks on the scalar kernels, at
    every width."""
    for punish in (True, False):
        _check_lockstep("c", punish, n_lanes)
        _check_train_pairs("c", punish, n_lanes)
    _check_subset_steps("c", n_lanes)
    _check_rollouts("c", n_lanes, [2, 3, 1, VOCAB, 2, VOCAB + 5])


_ROW_KINDS = ("uniform", "duplicated", "random")


@settings(max_examples=200, deadline=None)
@given(vocab=st.integers(3, 192), width=st.integers(1, 4),
       kinds=st.lists(st.sampled_from(_ROW_KINDS), min_size=1, max_size=12),
       seed=st.integers(0, 2**32 - 1))
def test_row_topk_equals_select_topk_per_row(vocab: int, width: int,
                                             kinds: list[str],
                                             seed: int) -> None:
    """The row-wise selection is ``select_topk`` on every row: the same
    classes in the same order with the same values, ties included."""
    width = min(width, vocab - 1)
    rng = np.random.default_rng(seed)
    rows = []
    for kind in kinds:
        if kind == "uniform":
            row = np.full(vocab, 1.0 / vocab)
        elif kind == "duplicated":
            levels = rng.random(int(rng.integers(1, 4)))
            row = levels[rng.integers(0, levels.size, size=vocab)]
        else:
            row = rng.random(vocab)
        rows.append(row / row.sum())
    probs = np.array(rows)
    top, vals = hebbian_fleet._select_topk_rows(probs, width)
    for r in range(len(kinds)):
        assert list(zip(top[r].tolist(), vals[r].tolist())) == \
            select_topk(probs[r], width), (kinds[r], r)


# ----------------------------------------------------------------------
# Lane-list validation
# ----------------------------------------------------------------------
def _fleet_state(fleet: HebbianFleet) -> list[bytes]:
    return [arr.tobytes() for arr in (
        fleet._w_vals, fleet._prev_code, fleet._prev_pred,
        fleet._probs_rows, fleet.train_steps)]


@needs_c
@pytest.mark.parametrize("n_lanes", [3, 11, 12, 32])
def test_kernels_reject_free_duplicate_and_foreign_lanes(
        n_lanes: int) -> None:
    """A free slot, a lane named twice or an id outside the fleet raises
    before any state moves."""
    proto = _prototype("c")
    fleet = HebbianFleet(proto, n_lanes + 1, reserve=True)
    slots = [fleet.acquire_lane(proto.clone()) for _ in range(n_lanes)]
    (free,) = set(range(n_lanes + 1)) - set(slots)
    streams = _streams(8, n_lanes)
    for step in range(4):
        fleet.step_lanes(slots, streams[step].tolist(), [True] * n_lanes)
    before = _fleet_state(fleet)
    classes = streams[4].tolist()
    pairs = [[(1, 2)]] * n_lanes
    for bad, message in ((slots[:-1] + [free], "free slot"),
                         (slots[:-1] + [slots[0]], "more than once"),
                         (slots[:-1] + [-1], "outside"),
                         (slots[:-1] + [n_lanes + 1], "outside")):
        with pytest.raises(ValueError, match=message):
            fleet.step_lanes(bad, classes, [True] * n_lanes)
        with pytest.raises(ValueError, match=message):
            fleet.train_pairs_lanes(bad, pairs, [1.0] * n_lanes)
        with pytest.raises(ValueError, match=message):
            fleet.rollout_lanes(bad, [2] * n_lanes, [2] * n_lanes)
    with pytest.raises(ValueError, match="outside vocab"):
        fleet.step_lanes(slots, classes[:-1] + [VOCAB], [True] * n_lanes)
    with pytest.raises(ValueError, match="outside vocab"):
        fleet.train_pairs_lanes(slots, [[(1, 2)]] * (n_lanes - 1)
                                + [[(0, 1), (-1, 2)]], [1.0] * n_lanes)
    with pytest.raises(ValueError, match="one class and one train"):
        fleet.step_lanes(slots, classes[:-1], [True] * n_lanes)
    assert _fleet_state(fleet) == before
    # A released slot is free again.
    fleet.release_lane(slots[0], proto.clone())
    with pytest.raises(ValueError, match="free slot"):
        fleet.step_lanes(slots, classes, [True] * n_lanes)


@needs_c
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("warm", [True, False],
                         ids=["warm-book", "cold-book"])
def test_the_array_kernels_check_their_columns(backend: str,
                                               warm: bool) -> None:
    """``train_pairs_columns`` and ``rollout_arrays`` take one entry per
    pair or lane in every column, a round of at least 0 and widths of at
    least 1; anything else raises before any state moves, on a book that
    has met the codes (where a short column used to be broadcast) and on
    one that has not (where it used to fail part way).  The valid call
    then trains as ``train_pairs`` does on networks on ``backend``."""
    proto = _prototype("c")
    fleet = HebbianFleet(proto, 3, reserve=True)
    slots = [fleet.acquire_lane(proto.clone()) for _ in range(2)]
    twins = _twins(backend, 2)
    warmup = [[(1, 3)], [(1, 4)]]
    if warm:
        fleet.train_pairs_lanes(slots, warmup, [1.0, 1.0])
        for twin, pairs in zip(twins, warmup):
            twin.train_pairs(pairs)
    fleet.step_lanes(slots, [2, 5], [True, True])
    for twin, input_class in zip(twins, (2, 5)):
        twin.step(input_class)
    before = _fleet_state(fleet)
    lanes = np.array(slots)
    columns = [lanes, np.array([1, 1]), np.array([3, 4]), np.array([0, 0]),
               np.ones(2)]
    for short in range(len(columns)):
        bad = list(columns)
        bad[short] = bad[short][:1]
        with pytest.raises(ValueError, match="one length"):
            fleet.train_pairs_columns(*bad)
    with pytest.raises(ValueError, match="at least 0"):
        fleet.train_pairs_columns(lanes, np.array([1, 1]), np.array([3, 4]),
                                  np.array([0, -1]), np.ones(2))
    for widths, lengths in (([2, 2], [2]), ([2], [2, 2]), ([2, 0], [2, 2])):
        with pytest.raises(ValueError,
                           match="one width and one length|at least 1"):
            fleet.rollout_arrays(slots, widths, lengths)
    assert _fleet_state(fleet) == before
    fleet.train_pairs_columns(*columns)
    assert _fleet_state(fleet) != before
    for slot, twin, pairs in zip(slots, twins, warmup):
        twin.train_pairs(pairs)
        assert np.array_equal(fleet.lane_weights(slot), twin.w_out)


@needs_c
def test_a_call_on_no_lane_is_a_no_op() -> None:
    """Width 0: every kernel accepts an empty lane list, returns an empty
    result of its usual shape and moves no state."""
    proto = _prototype("c")
    fleet = HebbianFleet(proto, 3, reserve=True)
    slots = [fleet.acquire_lane(proto.clone()) for _ in range(2)]
    for step in range(3):
        fleet.step_lanes(slots, [step, step + 1], [True, True])
    before = _fleet_state(fleet)
    assert fleet.step_lanes([], [], []).shape == (0, VOCAB)
    fleet.train_pairs_lanes([], [], [])
    empty = np.empty(0, dtype=np.int64)
    fleet.train_pairs_columns(empty, empty, empty, empty, np.empty(0))
    assert fleet.rollout_lanes([], [], []) == []
    classes, probs, depth = fleet.rollout_arrays([], [], [])
    assert classes.shape == probs.shape == (0, 0, 0) and depth.shape == (0,)
    assert fleet.lane_index([]).shape == (0,)
    assert _fleet_state(fleet) == before


@needs_c
def test_a_rollout_of_width_zero_is_refused_by_every_model() -> None:
    """A rollout picks at least one class a step: the scalar network,
    the LSTM and the fleet all raise ``ValueError`` below width 1."""
    net = _prototype("c").clone()
    lstm = OnlineLSTM(LSTMConfig(vocab_size=VOCAB, embed_dim=8,
                                 hidden_dim=8, seed=0))
    fleet = HebbianFleet(net, 1, reserve=True)
    slot = fleet.acquire_lane(net.clone())
    for model in (net, lstm):
        model.step(3)
    fleet.step_lanes([slot], [3], [True])
    for width in (0, -1):
        for model in (net, lstm):
            with pytest.raises(ValueError, match="at least 1"):
                model.predict_rollout(width=width, length=2)
        with pytest.raises(ValueError, match="at least 1"):
            fleet.rollout_lanes([slot], [width], [2])
    assert len(net.predict_rollout(width=1, length=2)) == 2
    assert len(lstm.predict_rollout(width=1, length=2)) == 2


@needs_c
def test_a_slot_without_a_step_rolls_out_nothing() -> None:
    """A slot's code id doubles as its "has stepped" flag: right after
    ``redeploy_lane``, and after acquiring a ``reset_state()`` network,
    the slot rolls out ``[]`` as the scalar network does; one step later
    it rolls out what the scalar network does."""
    proto = _prototype("c")
    streams = _streams(9)
    warm = proto.clone()
    for step in range(12):
        warm.step(int(streams[step, 0]))
    reset = warm.clone()
    reset.reset_state()
    fleet = HebbianFleet(proto, 2, reserve=True)
    redeployed = fleet.acquire_lane(warm)
    fresh = fleet.acquire_lane(reset)
    assert fleet.rollout_lanes([redeployed], [2], [3]) == [
        warm.predict_rollout(2, 3)] != [[]]
    shadow = warm.clone()
    shadow.reset_state()
    fleet.redeploy_lane(redeployed, shadow, None)
    assert reset.predict_rollout(2, 3) == []
    assert fleet.rollout_lanes([redeployed, fresh], [2, 2], [3, 3]) == [
        [], []]
    assert fleet.lane_network(redeployed).predict_rollout(2, 3) == []
    for slot, twin in ((redeployed, shadow), (fresh, reset)):
        input_class = int(streams[12, 1])
        fleet.step_lanes([slot], [input_class], [True])
        twin.step(input_class)
        assert fleet.rollout_lanes([slot], [2], [3]) == [
            twin.predict_rollout(2, 3)]


# ----------------------------------------------------------------------
# The code book
# ----------------------------------------------------------------------
BOOK_LANES = 16


@needs_c
@pytest.mark.parametrize("squeeze", ["book-cap-8", "book-cap-64",
                                     "memo-cap-8"])
def test_small_caps_stay_bit_identical(monkeypatch: pytest.MonkeyPatch,
                                       squeeze: str) -> None:
    """200 random steps, replays and rollouts on 16 lanes against 16
    scalar networks, while the book overflows (and is rebuilt from what
    the lanes still reference) or the prototype's memo clears under it."""
    cap = hebbian_fleet._BOOK_CAP
    if squeeze.startswith("book"):
        cap = int(squeeze.rsplit("-", 1)[1])
        monkeypatch.setattr(hebbian_fleet, "_BOOK_CAP", cap)
    else:
        monkeypatch.setattr(hebbian, "_CODE_CACHE_CAP", 8)
    proto = _prototype("c")
    fleet = HebbianFleet(proto, 2, reserve=True)
    twins = [proto.clone() for _ in range(BOOK_LANES)]
    slots = [fleet.acquire_lane(twin.clone()) for twin in twins]
    book = fleet._book
    rebuilds = []
    rebuild = book.rebuild
    monkeypatch.setattr(book, "rebuild",
                        lambda keep: rebuilds.append(len(keep))
                        or rebuild(keep))
    # The cap, or what the lanes pin when that is more: a rebuild keeps
    # at most two codes a lane plus one a lane in flight, and the call
    # that triggered it adds at most one a lane.
    bound = max(cap, 4 * BOOK_LANES)
    rng = child_rng(30484, 0)
    for _ in range(200):
        k = int(rng.integers(1, BOOK_LANES + 1))
        picked = rng.choice(BOOK_LANES, size=k, replace=False).tolist()
        lanes = [slots[i] for i in picked]
        op = int(rng.integers(0, 3))
        if op == 0:
            classes = rng.integers(0, VOCAB, size=k).tolist()
            trains = (rng.integers(0, 4, size=k) > 0).tolist()
            probs = fleet.step_lanes(lanes, classes, trains)
            for row, i in enumerate(picked):
                want = twins[i].step(classes[row], train=trains[row])
                assert np.array_equal(probs[row], want)
        elif op == 1:
            batches = [[(int(a), int(b)) for a, b in
                        rng.integers(0, VOCAB, size=(rng.integers(1, 4), 2))]
                       for _ in picked]
            scales = rng.choice([0.25, 1.0], size=k).tolist()
            fleet.train_pairs_lanes(lanes, batches, scales)
            for i, pairs, scale in zip(picked, batches, scales):
                twins[i].train_pairs(pairs, lr_scale=scale)
        else:
            rollouts = fleet.rollout_lanes(lanes, [2] * k, [3] * k)
            for i, rollout in zip(picked, rollouts):
                assert rollout == twins[i].predict_rollout(2, 3)
        assert len(book) <= bound
    assert bool(rebuilds) == squeeze.startswith("book")
    for slot, twin in zip(slots, twins):
        assert np.array_equal(fleet.lane_weights(slot), twin.w_out)
        lane = fleet.lane_network(slot)
        for input_class in (3, 7, 3):
            assert np.array_equal(lane.step(input_class),
                                  twin.step(input_class))


@needs_c
def test_equal_config_prototypes_share_code_ids() -> None:
    """Lanes adopted from two different equal-config networks (equal
    fixed structures, separate memo dicts, so element-equal codes in
    distinct arrays) get the same code ids and stay bit-identical."""
    ours = _prototype("c")
    theirs = _prototype("c")
    assert ours._code_cache is not theirs._code_cache
    nets = [ours.clone(), theirs.clone(), ours.clone(), theirs.clone()]
    warmup = [5, 9, 5, 9, 14]
    for net in nets:
        for input_class in warmup:
            net.step(input_class)
    assert nets[0]._prev_active is not nets[1]._prev_active
    twins = [net.clone() for net in nets]
    fleet = HebbianFleet(ours, 4, reserve=True)
    slots = [fleet.acquire_lane(net) for net in nets]
    assert len(set(fleet._prev_code[slots].tolist())) == 1
    assert len(fleet._book) == 1
    streams = _streams(9)
    for step in range(40):
        classes = [int(streams[step, 0])] * 2 + \
            [int(c) for c in streams[step, 1:3]]
        probs = fleet.step_lanes(slots, classes, [True] * 4)
        assert fleet._prev_code[slots[0]] == fleet._prev_code[slots[1]]
        for row, twin in enumerate(twins):
            assert np.array_equal(probs[row], twin.step(classes[row]))
    for slot, net, twin in zip(slots, nets, twins):
        fleet.release_lane(slot, net)
        assert np.array_equal(net.w_out, twin.w_out)
        assert np.array_equal(net.step(2), twin.step(2))


#: A book-fill call: 64 lanes in three groups, each warmed on its own
#: class and then stepped on the next one — three transitions the book
#: has not met, shared by every lane of a group.  The call lists the
#: groups last to first, so the order rows first name the transitions in
#: is not the order of their keys.
FILL_LANES = 64
WARM = (5, 9, 14)
NEXT = (7, 7, 30)
FILL_ROWS = np.concatenate([np.arange(group, FILL_LANES, 3)
                            for group in (2, 1, 0)])


def _fill_fleet(extra_codes: int) -> HebbianFleet:
    """The lanes of a book-fill call, in a book also holding
    ``extra_codes`` codes no lane references."""
    proto = _prototype("c")
    fleet = HebbianFleet(proto, FILL_LANES, reserve=True)
    for lane in range(FILL_LANES):
        net = proto.clone()
        net.step(WARM[lane % 3])
        fleet.acquire_lane(net)
    for input_class in range(extra_codes):
        fleet._book.intern(proto.hidden_code(input_class, None))
    return fleet


def _resolve_row_by_row(fleet: HebbianFleet, prev: np.ndarray,
                        cls: np.ndarray) -> list[int]:
    """The ids of resolving one row at a time: a row whose transition is
    still unmet when its turn comes fills it (after the same rebuild
    decision as ``_codes``)."""
    book = fleet._book
    unmet = book.next[prev + 1, cls] < 0
    new = set(zip(prev[unmet].tolist(), cls[unmet].tolist()))
    if len(book) + len(new) > book.limit:
        prev = fleet._shrink_book(prev)
    ids = []
    for p, c in zip(prev.tolist(), cls.tolist()):
        cid = int(book.next[p + 1, c])
        ids.append(cid if cid >= 0 else book.fill(p, c))
    return ids


@needs_c
@pytest.mark.parametrize("cap", [None, 8], ids=["book", "book-cap-8"])
def test_a_call_fills_each_new_transition_once(
        monkeypatch: pytest.MonkeyPatch, cap: int | None) -> None:
    """One ``_codes`` call over 64 lanes sharing three unmet transitions
    computes three scalar hidden codes and returns the ids of resolving
    row by row — also when the book is squeezed to eight codes, so that
    it is rebuilt inside the call."""
    if cap is not None:
        monkeypatch.setattr(hebbian_fleet, "_BOOK_CAP", cap)
    extra = 0 if cap is None else 3
    fleet, twin = _fill_fleet(extra), _fill_fleet(extra)
    prev = fleet._prev_code[FILL_ROWS]
    cls = np.array(NEXT)[FILL_ROWS % 3]
    assert (fleet._book.next[prev + 1, cls] < 0).all()
    assert len(set(zip(prev.tolist(), cls.tolist()))) == 3
    proto = fleet.prototype
    computed = []
    hidden_code = proto.hidden_code
    monkeypatch.setattr(proto, "hidden_code", lambda *args: (
        computed.append(args) or hidden_code(*args)))
    rebuilds = []
    rebuild = fleet._book.rebuild
    monkeypatch.setattr(fleet._book, "rebuild",
                        lambda keep: rebuilds.append(keep) or rebuild(keep))
    ids = fleet._codes(prev, cls)
    assert len(computed) == 3
    assert len(rebuilds) == (cap is not None)
    assert ids.tolist() == _resolve_row_by_row(
        twin, twin._prev_code[FILL_ROWS], cls)
    assert len(fleet._book) == len(twin._book)
    for ours, theirs in zip(fleet._book.codes, twin._book.codes):
        assert np.array_equal(ours, theirs)


# ----------------------------------------------------------------------
# Capacity
# ----------------------------------------------------------------------
@needs_c
def test_reserve_grows_once_and_keeps_lane_state() -> None:
    proto = _prototype("c")
    fleet = HebbianFleet(proto, 2, reserve=True)
    twin = proto.clone()
    slot = fleet.acquire_lane(proto.clone())
    for input_class in (4, 8, 4):
        fleet.step_lanes([slot], [input_class], [True])
        twin.step(input_class)
    fleet.reserve(100)
    assert fleet.n_lanes == 101
    slots = [fleet.acquire_lane(proto.clone()) for _ in range(100)]
    assert fleet.n_lanes == 101 and slot not in slots
    fleet.reserve(0)
    assert fleet.n_lanes == 101
    assert np.array_equal(fleet.step_lanes([slot], [8], [True])[0],
                          twin.step(8))
    assert fleet.rollout_lanes([slot], [2], [3]) == [
        twin.predict_rollout(2, 3)]
    fleet.reset_state()
    assert fleet.rollout_lanes(slots[:20], [2] * 20, [2] * 20) == [[]] * 20
    assert fleet.rollout_lanes([slot], [2], [2]) == [[]]
