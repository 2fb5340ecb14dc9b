"""Bit-exactness of the sparse Hebbian kernels against the dense reference.

The CSR-style kernels in ``repro.nn.hebbian`` — numpy's, and the
compiled ones backend ``c`` runs — must reproduce the dense masked-array
implementation (``tests/nn/hebbian_reference.py``) exactly: same
``step()`` probabilities, same learned weights, same recurrent
trajectory — over long random sequences, in both input modes, with and
without the punish term, at Fig. 5's vocabulary of 192 (where numpy's
pairwise sum splits), and across ``clone()`` round-trips.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.nn.backends import available_backends
from repro.nn.hebbian import HebbianConfig, SparseHebbianNetwork
from tests.nn.hebbian_reference import DenseHebbianReference

N_STEPS = 1000

#: The dense-reference equivalence must hold under every legal network
#: backend name ("int8" is excluded by design — it is accuracy-bounded,
#: not bit-identical; see tests/nn/test_backends).  "c" is the compiled
#: kernels, so it is a second implementation under test; the list is
#: derived from the registry and collapses to numpy without a compiler.
BACKENDS = ["numpy"] + [b for b in available_backends("nn")
                        if b not in ("numpy", "int8")]


def _configs() -> dict[str, HebbianConfig]:
    return {
        "onehot": HebbianConfig(vocab_size=64, hidden_dim=300,
                                input_mode="onehot", seed=11),
        "signature": HebbianConfig(vocab_size=64, hidden_dim=300,
                                   input_mode="signature",
                                   recurrent_strength=0.1, seed=11),
        "onehot-unpunished": HebbianConfig(vocab_size=64, hidden_dim=300,
                                           punish_wrong=False, seed=11),
        # Fig. 5's scale (harness.models.experiment_hebbian_config(192)),
        # and the same with the punish term.
        "vocab192": HebbianConfig(vocab_size=192, hidden_dim=500,
                                  weight_max=16.0, negative_scale=0.25,
                                  punish_wrong=False, seed=11),
        "vocab192-punished": HebbianConfig(vocab_size=192, hidden_dim=500,
                                           weight_max=16.0,
                                           negative_scale=0.25, seed=11),
    }


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("mode", ["onehot", "signature", "onehot-unpunished",
                                  "vocab192", "vocab192-punished"])
def test_step_probs_bit_identical(mode, backend):
    config = dataclasses.replace(_configs()[mode], backend=backend)
    fast = SparseHebbianNetwork(config)
    ref = DenseHebbianReference(config)
    rng = np.random.default_rng(99)
    sequence = rng.integers(0, config.vocab_size, size=N_STEPS)
    for i, class_id in enumerate(sequence):
        p_fast = fast.step(int(class_id))
        p_ref = ref.step(int(class_id))
        assert np.array_equal(p_fast, p_ref), f"probs diverged at step {i}"
    np.testing.assert_array_equal(fast.w_out, ref.w_out)
    assert fast.train_steps == ref.train_steps


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("mode", ["onehot", "signature"])
def test_clone_round_trip(mode, backend):
    """A clone taken mid-stream matches both its source and the reference."""
    config = dataclasses.replace(_configs()[mode], backend=backend)
    fast = SparseHebbianNetwork(config)
    ref = DenseHebbianReference(config)
    rng = np.random.default_rng(7)
    warmup = rng.integers(0, config.vocab_size, size=200)
    for class_id in warmup:
        fast.step(int(class_id))
        ref.step(int(class_id))

    twin = fast.clone()
    assert twin is not fast
    np.testing.assert_array_equal(twin.w_out, fast.w_out)
    assert twin.w_out is not fast.w_out

    tail = rng.integers(0, config.vocab_size, size=200)
    for class_id in tail:
        p_twin = twin.step(int(class_id))
        p_fast = fast.step(int(class_id))
        p_ref = ref.step(int(class_id))
        assert np.array_equal(p_twin, p_fast)
        assert np.array_equal(p_fast, p_ref)

    # Training the twin further must not leak back into the source.
    before = fast.w_out.copy()
    for class_id in warmup[:50]:
        twin.step(int(class_id))
    np.testing.assert_array_equal(fast.w_out, before)


@pytest.mark.parametrize("backend", BACKENDS)
def test_train_pair_bit_identical(backend):
    config = dataclasses.replace(_configs()["onehot"], backend=backend)
    fast = SparseHebbianNetwork(config)
    ref = DenseHebbianReference(config)
    rng = np.random.default_rng(3)
    pairs = rng.integers(0, config.vocab_size, size=(300, 2))
    for a, b in pairs:
        conf_fast = fast.train_pair(int(a), int(b), lr_scale=0.1)
        conf_ref = ref.train_pair(int(a), int(b), lr_scale=0.1)
        assert conf_fast == conf_ref
    np.testing.assert_array_equal(fast.w_out, ref.w_out)


def test_rollout_matches_reference_on_learned_cycle():
    """Rollout follows the same greedy path once transitions are learned
    (top-k selection is shared; only tie handling on untrained scores may
    legitimately differ between argsort and argpartition)."""
    config = _configs()["onehot"]
    fast = SparseHebbianNetwork(config)
    ref = DenseHebbianReference(config)
    cycle = [1, 9, 4, 17, 30, 2]
    for _ in range(80):
        for c in cycle:
            fast.step(c)
            ref.step(c)
    for width, length in ((3, 4), (2, 3), (1, 2)):
        assert (fast.predict_rollout(width=width, length=length)
                == ref.predict_rollout(width=width, length=length))


def test_rollout_fused_first_step_matches_recompute():
    """The fused path (reusing step()'s softmax) equals recomputing it.

    ``predict_rollout`` starts from the probabilities ``step()`` just
    produced; recomputing them from the step's code and the same weights
    must agree bit for bit.  Training in between does not move the
    rollout's first step: it is defined over the step's scores, not the
    live weights.
    """
    config = _configs()["onehot"]
    net = SparseHebbianNetwork(config)
    rng = np.random.default_rng(21)
    for class_id in rng.integers(0, config.vocab_size, size=300):
        net.step(int(class_id))
    fused = net.predict_rollout(width=2, length=3)
    recomputed = net.probabilities(net.readout(net._prev_active))
    assert np.array_equal(recomputed, net._last_probs)
    net._last_probs = recomputed
    assert net.predict_rollout(width=2, length=3) == fused

    # Only the first step is frozen; later steps read the live weights,
    # so compare length=1 across a weight mutation.
    net.step(5)
    fused = net.predict_rollout(width=2, length=1)
    net.train_pairs([(9, 30), (4, 17)], lr_scale=0.1)  # mutate weights
    assert net.predict_rollout(width=2, length=1) == fused


def test_rollout_width2_matches_general_topk():
    """The scalar width-2 branch equals the general argpartition branch,
    including on exact ties (both reduce to the same stable insertion
    sort of two elements)."""
    config = _configs()["onehot"]
    net = SparseHebbianNetwork(config)

    def general_topk(probs, width):
        part = probs.argpartition(-width)[-width:]
        vals = probs[part]
        order = vals.argsort()[::-1]
        return list(zip(part[order].tolist(), vals[order].tolist()))

    # Untrained: every score is 0, probabilities are uniform — all ties.
    probs = net.step(0, train=False)
    assert net.predict_rollout(width=2, length=1) == [general_topk(probs, 2)]

    rng = np.random.default_rng(5)
    for class_id in rng.integers(0, config.vocab_size, size=400):
        net.step(int(class_id))
    probs = net.step(3)
    assert net.predict_rollout(width=2, length=1) == [general_topk(probs, 2)]


def test_sparse_readout_matches_dense_row_sum():
    """bincount-over-connected-entries == dense row sum, bit for bit,
    for both cache-resident codes and foreign (caller-supplied) codes."""
    config = _configs()["onehot"]
    net = SparseHebbianNetwork(config)
    rng = np.random.default_rng(13)
    for class_id in rng.integers(0, config.vocab_size, size=500):
        net.step(int(class_id))
    for class_id in range(0, config.vocab_size, 7):
        active = net.hidden_code(class_id)
        dense = np.add.reduce(net.w_out.take(active, axis=0), axis=0)
        np.testing.assert_array_equal(net.readout(active), dense)
    # A code the cache has never seen takes the dense fallback.
    foreign = rng.choice(config.hidden_dim, size=30, replace=False)
    dense = np.add.reduce(net.w_out.take(foreign, axis=0), axis=0)
    np.testing.assert_array_equal(net.readout(foreign), dense)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("punish_wrong", [False, True])
@pytest.mark.parametrize("batch", [
    [(3, 9)],                                  # single pair
    [(3, 9), (9, 4), (4, 17), (17, 30)],       # distinct targets: vectorized
    [(3, 9), (9, 4), (4, 9), (17, 30)],        # duplicate target: fallback
])
def test_train_pairs_matches_per_pair_loop(punish_wrong, batch, backend):
    config = HebbianConfig(vocab_size=64, hidden_dim=300, seed=11,
                           punish_wrong=punish_wrong, backend=backend)
    batched = SparseHebbianNetwork(config)
    looped = SparseHebbianNetwork(config)
    ref = DenseHebbianReference(config)
    rng = np.random.default_rng(41)
    warmup = rng.integers(0, config.vocab_size, size=200)
    for class_id in warmup:
        batched.step(int(class_id))
        looped.step(int(class_id))
        ref.step(int(class_id))

    for _ in range(3):  # repeat: the second round hits the delta cache
        batched.train_pairs(batch, lr_scale=0.1)
        for input_class, target_class in batch:
            looped.train_pair(input_class, target_class, lr_scale=0.1)
            ref.train_pair(input_class, target_class, lr_scale=0.1)
    np.testing.assert_array_equal(batched.w_out, looped.w_out)
    np.testing.assert_array_equal(batched.w_out, ref.w_out)
