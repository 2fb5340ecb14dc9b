"""Backend registry, fallback, and serving-mode contracts (PR 6, PR 16).

Three families of claims:

- **registry behavior** — name validation, ``auto`` resolution, the
  explicit-request-raises / auto-falls-back asymmetry, the one-time
  fallback warning, and the C library cache (a corrupt cached ``.so`` is
  rebuilt, the cache key covers the compile flags);
- **cross-backend bit-identity** — ``c`` runs the Hebbian network on
  its own kernels (``rk_heb_learn`` / ``rk_heb_scores`` /
  ``rk_heb_finish``), which must leave it exactly the numpy one: over
  long randomized streams, with and without the punish term, on
  tie-heavy vectors (where the selection hands back to numpy's), at
  vocabularies where numpy's pairwise sum splits, across every way
  state moves between networks, and when ``c`` goes away mid-session
  (the simulator-side twin lives in ``tests/memsim/test_engine_auto.py``);
- **int8 serving contract** — the one deliberate exception to
  bit-identity: training weights stay float64 (identical to numpy when
  learning does not read the served scores), the serving mirror sits on
  the quantization grid, and its error is bounded by ``scale / 2``.

Plus the harness plumbing: the resolved backend lands in the telemetry
manifest's ``env`` (provenance), and never in a ``run_grid`` cache key
(identity).
"""

from __future__ import annotations

import dataclasses
import shutil
import warnings

import numpy as np
import pytest

from repro.harness.runner import run_grid
from repro.memsim import NullPrefetcher, SimConfig, simulate
from repro.nn import backends
from repro.nn.backends import (
    BackendUnavailableError,
    available_backends,
    backend_available,
    c_backend,
    resolve_backend,
)
from repro.nn.hebbian import HebbianConfig, SparseHebbianNetwork, select_topk
from repro.nn.quantization import snap_to_grid
from repro.patterns.applications import AppSpec, pagerank_graphchi
from repro.seeding import spawn_seeds
from repro.telemetry import Telemetry

COMPILED = [b for b in available_backends("sim") if b != "numpy"]


def _require_compiled(backend: str) -> None:
    if backend == "__none__":
        pytest.skip("no compiled backend available in this environment")


# ----------------------------------------------------------------------
# Registry behavior
# ----------------------------------------------------------------------
def test_numpy_and_int8_always_available():
    assert backend_available("numpy")
    assert backend_available("int8")
    assert "numpy" in available_backends("sim")
    assert "int8" in available_backends("nn")
    assert "int8" not in backends.SIM_BACKENDS


def test_unknown_backend_name_rejected():
    for name in ("cuda", "numba"):  # numba was a backend until PR 16
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend(name)
    with pytest.raises(ValueError, match="unknown backend"):
        resolve_backend("int8", domain="sim")  # int8 is nn-only
    with pytest.raises(ValueError, match="backend"):
        HebbianConfig(vocab_size=16, backend="cuda")


def test_auto_never_resolves_to_int8():
    assert resolve_backend("auto", domain="nn") != "int8"


def test_explicit_unavailable_backend_raises(monkeypatch):
    monkeypatch.setattr(backends, "_disabled", {"c"})
    with pytest.raises(BackendUnavailableError):
        resolve_backend("c")
    # The same hard-request contract through the two public surfaces.
    with pytest.raises(BackendUnavailableError):
        SparseHebbianNetwork(HebbianConfig(vocab_size=16, backend="c"))
    trace = pagerank_graphchi(AppSpec(n=2000, seed=1))
    with pytest.raises(BackendUnavailableError):
        simulate(trace, NullPrefetcher(), SimConfig(memory_fraction=0.5),
                 backend="c")


def test_auto_fallback_warns_once(monkeypatch):
    monkeypatch.setattr(backends, "_disabled", {"c"})
    monkeypatch.setattr(backends, "_warned_fallback", False)
    with pytest.warns(RuntimeWarning, match="falling back"):
        assert resolve_backend("auto") == "numpy"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert resolve_backend("auto") == "numpy"  # silent the second time


def test_set_default_backend_validates(monkeypatch):
    monkeypatch.setattr(backends, "_disabled", {"c"})
    monkeypatch.setattr(backends, "_default_backend", "auto")
    with pytest.raises(BackendUnavailableError):
        backends.set_default_backend("c")
    with pytest.raises(ValueError):
        backends.set_default_backend("int8")  # nn-only: no sim meaning
    backends.set_default_backend("numpy")
    assert resolve_backend("auto") == "numpy"
    backends.set_default_backend("auto")
    assert backends.get_default_backend() == "auto"


def test_corrupt_cached_library_is_rebuilt(monkeypatch, tmp_path):
    """A cached ``.so`` that exists but cannot be loaded is recompiled
    over once instead of latching this (and every later) process onto
    numpy; and the cache key covers the compile flags."""
    pytest.importorskip("cffi")
    if not (shutil.which("cc") or shutil.which("gcc")):
        pytest.skip("no C compiler on PATH")
    monkeypatch.setattr(c_backend, "_build_dir", lambda: tmp_path)
    for attr, value in (("_ffi", None), ("_lib", None),
                        ("_load_failed", False)):
        monkeypatch.setattr(c_backend, attr, value)
    path = c_backend._so_path()
    path.write_bytes(b"not an ELF file")
    assert c_backend.available()
    rebuilt, _ = c_backend._load()
    rebuilt.dlopen(str(path))  # the file on disk is a loadable library now
    monkeypatch.setattr(c_backend, "_CFLAGS", c_backend._CFLAGS + ("-g",))
    assert c_backend._so_path() != path


# ----------------------------------------------------------------------
# Cross-backend Hebbian bit-identity
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", COMPILED or ["__none__"])
@pytest.mark.parametrize("mode", ["onehot", "signature", "onehot-unpunished",
                                  "signature-unpunished"])
def test_compiled_hebbian_matches_numpy_bit_identical(backend, mode):
    _require_compiled(backend)
    input_mode, _, unpunished = mode.partition("-")
    config = HebbianConfig(vocab_size=64, hidden_dim=300,
                           input_mode=input_mode, recurrent_strength=0.1,
                           punish_wrong=not unpunished, seed=11)
    ref = SparseHebbianNetwork(dataclasses.replace(config, backend="numpy"))
    fast = SparseHebbianNetwork(dataclasses.replace(config, backend=backend))
    rng = np.random.default_rng(99)
    sequence = rng.integers(0, config.vocab_size, size=600)
    for i, class_id in enumerate(sequence):
        p_ref = ref.step(int(class_id))
        p_fast = fast.step(int(class_id))
        assert np.array_equal(p_ref, p_fast), f"probs diverged at step {i}"
        if i % 37 == 0:
            assert (ref.predict_rollout(width=2, length=3)
                    == fast.predict_rollout(width=2, length=3))
    pairs = [(int(a), int(b)) for a, b in
             rng.integers(0, config.vocab_size, size=(50, 2))]
    ref.train_pairs(pairs, lr_scale=0.1)
    fast.train_pairs(pairs, lr_scale=0.1)
    np.testing.assert_array_equal(ref.w_out, fast.w_out)


@pytest.mark.parametrize("backend", COMPILED or ["__none__"])
@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
def test_compiled_hebbian_fuzz(backend, seed):
    """Randomized interleavings of step / train_pair / learn_pair /
    train_pairs / rollout / readout stay bit-identical to numpy; seeds 3
    and up without the punish term."""
    _require_compiled(backend)
    net_seed, stream_seed = spawn_seeds(seed, 2)
    config = HebbianConfig(vocab_size=48, hidden_dim=200, seed=net_seed,
                           punish_wrong=seed < 3)
    ref = SparseHebbianNetwork(dataclasses.replace(config, backend="numpy"))
    fast = SparseHebbianNetwork(dataclasses.replace(config, backend=backend))
    rng = np.random.default_rng(stream_seed)
    for _ in range(300):
        op = rng.integers(0, 6)
        if op == 0:
            c = int(rng.integers(0, config.vocab_size))
            train = bool(rng.integers(0, 4))
            assert np.array_equal(ref.step(c, train=train),
                                  fast.step(c, train=train))
        elif op == 1:
            a, b = rng.integers(0, config.vocab_size, size=2)
            assert (ref.train_pair(int(a), int(b), lr_scale=0.2)
                    == fast.train_pair(int(a), int(b), lr_scale=0.2))
        elif op == 2:
            pairs = [(int(a), int(b)) for a, b in
                     rng.integers(0, config.vocab_size, size=(5, 2))]
            ref.train_pairs(pairs, lr_scale=0.1)
            fast.train_pairs(pairs, lr_scale=0.1)
        elif op == 3:
            a, b = rng.integers(0, config.vocab_size, size=2)
            ref.learn_pair(int(a), int(b), lr_scale=0.5)
            fast.learn_pair(int(a), int(b), lr_scale=0.5)
        elif op == 4:
            width, length = (int(v) for v in rng.integers(1, 4, size=2))
            assert (ref.predict_rollout(width, length)
                    == fast.predict_rollout(width, length))
        else:
            c = int(rng.integers(0, config.vocab_size))
            np.testing.assert_array_equal(ref.readout(ref.hidden_code(c)),
                                          fast.readout(fast.hidden_code(c)))
    np.testing.assert_array_equal(ref.w_out, fast.w_out)


@pytest.mark.parametrize("backend", COMPILED or ["__none__"])
def test_compiled_hebbian_on_tie_heavy_vectors(backend):
    """Untrained and barely trained networks score many classes alike, so
    their probabilities tie inside and across the top-width boundary:
    there the kernel must hand the choice back to numpy's selection, and
    every width — past the vocabulary too — picks what numpy picks.  Run
    fresh, then after ``reset_state`` (a context-free step on learned
    weights)."""
    _require_compiled(backend)
    config = HebbianConfig(vocab_size=24, hidden_dim=120, seed=5)
    ref = SparseHebbianNetwork(dataclasses.replace(config, backend="numpy"))
    fast = SparseHebbianNetwork(dataclasses.replace(config, backend=backend))
    rng = np.random.default_rng(8)
    for block in range(12):
        for net in (ref, fast):
            net.reset_state()
        for class_id in rng.integers(0, config.vocab_size, size=6 * block):
            assert np.array_equal(ref.step(int(class_id)),
                                  fast.step(int(class_id)))
            for width in (1, 2, 3, 23, 24, 30):
                assert (ref.predict_rollout(width, 2)
                        == fast.predict_rollout(width, 2))
    np.testing.assert_array_equal(ref.readout_values, fast.readout_values)


@pytest.mark.parametrize("backend", COMPILED or ["__none__"])
def test_kernel_selection_is_select_topk_or_hands_back(backend):
    """``rk_heb_finish``'s selection on vectors drawn from a few values:
    wherever it picks it equals ``select_topk`` — order and values — and
    it hands back (-1) exactly when a value among the top width + 1 is
    shared, or a NaN is present."""
    _require_compiled(backend)
    vocab = 40
    net = SparseHebbianNetwork(HebbianConfig(vocab_size=vocab, hidden_dim=40,
                                             backend=backend))
    heb = net._kernels()
    rng = np.random.default_rng(2)
    picked_some = handed_back = 0
    for trial in range(3000):
        vec = rng.integers(0, int(rng.integers(2, 400)), size=vocab) / 64.0
        if trial % 500 == 0:
            vec[rng.integers(0, vocab)] = np.nan
        width = int(rng.integers(1, vocab + 4))
        np.copyto(heb.x, vec)
        picked = heb.finish(width, 0)
        ranked = np.sort(vec)[::-1][:min(width + 1, vocab)]
        tied = bool(np.isnan(vec).any() or (ranked[1:] == ranked[:-1]).any())
        assert (picked < 0) == tied
        if picked < 0:
            handed_back += 1
            continue
        picked_some += 1
        assert net._selected(heb, picked, width) == select_topk(vec, width)
    assert picked_some > 500 and handed_back > 500


@pytest.mark.parametrize("backend", COMPILED or ["__none__"])
@pytest.mark.parametrize("vocab", [1, 7, 8, 9, 24, 127, 128, 129, 192, 255,
                                   256, 257, 500])
def test_kernel_softmax_is_numpys(backend, vocab):
    """Normalisation replays numpy's pairwise ``sum`` (eight accumulators
    to 128 values, halved above): ``x / x.sum()`` bit for bit at every
    length around the block edges, and at vocabulary 192 (Fig. 5's),
    where the sum splits once."""
    _require_compiled(backend)
    heb = SparseHebbianNetwork(HebbianConfig(
        vocab_size=vocab, hidden_dim=16, backend=backend))._kernels()
    rng = np.random.default_rng(vocab)
    for _ in range(200):
        x = np.exp(rng.standard_normal(vocab) * rng.uniform(0.1, 12.0))
        np.copyto(heb.x, x)
        heb.finish(0, 1)
        np.testing.assert_array_equal(heb.x, x / x.sum())


@pytest.mark.parametrize("backend", COMPILED or ["__none__"])
def test_compiled_hebbian_keeps_its_own_vector(backend):
    """Every way state moves between networks — ``clone``, ``fork`` +
    ``sync_from``, the ``w_out`` setter, ``restore_state`` — leaves each
    network's kernels on its own value vector: the compiled twin of a
    numpy sequence of such moves matches it step for step, and the
    forked pair's ``sync_from`` reports the same offsets."""
    _require_compiled(backend)
    # Few classes and mild depression: confident wrong predictions, so
    # the punish term writes (and logs) from the first steps on.
    config = HebbianConfig(vocab_size=32, hidden_dim=160, negative_scale=0.25,
                           seed=4)
    rng = np.random.default_rng(12)
    stream = [int(c) for c in rng.integers(0, 8, size=900)]

    def run(name: str) -> list:
        seen: list = []
        live = SparseHebbianNetwork(dataclasses.replace(config, backend=name))
        for c in stream[:100]:
            live.step(c)
        shadow = live.fork()
        for c in stream[100:106]:
            seen.append(shadow.step(c))
            shadow.train_pair(c, (c + 1) % config.vocab_size)
        seen.append(live.readout_values.copy())     # live kept its own
        seen.append(live.sync_from(shadow))          # only what moved
        assert seen[-1] is not None
        for c in stream[200:300]:
            seen.append(live.step(c))
        seen.append(shadow.readout_values.copy())    # and shadow its own
        shadow.w_out = live.w_out                    # wholesale, a copy
        for c in stream[300:400]:
            seen.append(shadow.step(c))
        seen.append(live.readout_values.copy())
        seen.append(live.sync_from(shadow))          # None: log overflowed
        twin = live.clone()
        for c in stream[400:500]:
            seen.append(twin.step(c))
        seen.append(live.readout_values.copy())
        live.restore_state(values=twin.readout_values,
                           prev_active=twin._prev_active,
                           prev_pred=twin._prev_pred,
                           last_probs=twin._last_probs,
                           train_steps=twin.train_steps)
        for c in stream[500:900]:
            seen.append(live.step(c))
            seen.append(live.predict_rollout(2, 2))
        seen.append(twin.readout_values.copy())
        seen.append(live.readout_values.copy())
        return seen

    ref, fast = run("numpy"), run(backend)
    assert len(ref) == len(fast)
    for i, (a, b) in enumerate(zip(ref, fast)):
        if a is None or b is None:
            assert a is b, i
        elif isinstance(a, list):
            assert a == b, i
        else:
            np.testing.assert_array_equal(a, b, err_msg=str(i))


def test_compiled_backend_lost_mid_session(monkeypatch):
    """``c`` goes away mid-session (a compile that fails, say): networks
    built before keep their kernels, ``auto`` networks built after are
    numpy — and both run the same stream bit-identically."""
    if "c" not in COMPILED:
        pytest.skip("no compiled backend available in this environment")
    monkeypatch.setattr(backends, "_default_backend", "auto")
    config = HebbianConfig(vocab_size=48, hidden_dim=200, seed=9)
    before = SparseHebbianNetwork(config)
    assert before._kernels() is not None
    monkeypatch.setattr(backends, "_disabled", {"c"})
    monkeypatch.setattr(backends, "_warned_fallback", True)
    after = SparseHebbianNetwork(config)
    assert after._kernels() is None and after._backend == "numpy"
    clone = before.clone()  # the loaded library still serves clones
    assert clone._kernels() is not None
    rng = np.random.default_rng(6)
    for class_id in rng.integers(0, config.vocab_size, size=400):
        probs = after.step(int(class_id))
        assert np.array_equal(before.step(int(class_id)), probs)
        assert np.array_equal(clone.step(int(class_id)), probs)
        assert (before.predict_rollout(2, 2) == after.predict_rollout(2, 2)
                == clone.predict_rollout(2, 2))
    np.testing.assert_array_equal(before.readout_values, after.readout_values)


# ----------------------------------------------------------------------
# int8 serving contract (the documented bit-identity exception)
# ----------------------------------------------------------------------
def _int8_pair() -> tuple[SparseHebbianNetwork, SparseHebbianNetwork]:
    """Same seed, punish_wrong off: learning never reads the served
    scores, so the float64 training weights must match exactly and only
    serving differs."""
    config = HebbianConfig(vocab_size=64, hidden_dim=300, seed=11,
                           punish_wrong=False)
    return (SparseHebbianNetwork(dataclasses.replace(config,
                                                     backend="numpy")),
            SparseHebbianNetwork(dataclasses.replace(config,
                                                     backend="int8")))


def test_int8_training_weights_identical_serving_on_grid():
    ref, quant = _int8_pair()
    rng = np.random.default_rng(17)
    for class_id in rng.integers(0, 64, size=500):
        ref.step(int(class_id))
        quant.step(int(class_id))
    np.testing.assert_array_equal(ref.w_out, quant.w_out)
    scale = quant._q_scale
    # The mirror is exactly the grid snap of the live weights...
    np.testing.assert_array_equal(
        quant._serve_vals, snap_to_grid(quant.readout_values, scale))
    # ...every mirror value is an integer multiple of the scale...
    steps = quant._serve_vals / scale
    np.testing.assert_allclose(steps, np.round(steps), atol=1e-9)
    assert float(np.abs(steps).max()) <= 127.0
    # ...and the elementwise serving error is bounded by scale / 2.
    assert float(np.abs(quant._serve_vals - quant.readout_values).max()) \
        <= scale / 2 + 1e-12


def test_int8_readout_error_bounded():
    """Score error is at most (active rows) * scale / 2 — the documented
    accuracy-delta bound for the serving backend."""
    ref, quant = _int8_pair()
    rng = np.random.default_rng(23)
    for class_id in rng.integers(0, 64, size=500):
        ref.step(int(class_id))
        quant.step(int(class_id))
    scale = quant._q_scale
    for class_id in range(0, 64, 5):
        active = quant.hidden_code(class_id)
        bound = len(active) * scale / 2 + 1e-9
        delta = np.abs(quant.readout(active) - ref.readout(active))
        assert float(delta.max()) <= bound


# ----------------------------------------------------------------------
# Harness plumbing: manifest provenance, cache-key identity
# ----------------------------------------------------------------------
def test_backend_recorded_in_telemetry_manifest():
    trace = pagerank_graphchi(AppSpec(n=3000, seed=2))
    sink = Telemetry(interval=1000)
    result = simulate(trace, NullPrefetcher(), SimConfig(memory_fraction=0.5),
                      backend="numpy", telemetry=sink)
    assert result.backend_used == "numpy"
    assert sink.manifest()["env"]["backend"] == "numpy"


def _cell(spec: dict) -> dict:
    return {"value": spec["x"] * 2}


def _poisoned_cell(spec: dict) -> dict:
    raise AssertionError("cell recomputed: backend leaked into the "
                         f"cache key for {spec!r}")


def test_run_grid_cache_key_excludes_backend(tmp_path):
    specs = [{"x": 3}, {"x": 4}]
    first = run_grid(specs, _cell, jobs=1, cache_dir=tmp_path,
                     backend="numpy")
    assert first == [{"value": 6}, {"value": 8}]
    other = COMPILED[0] if COMPILED else "numpy"
    # Same specs under a different backend: every cell must be served
    # from the cache (the poisoned fn raises if any cell recomputes).
    second = run_grid(specs, _poisoned_cell, jobs=1, cache_dir=tmp_path,
                      backend=other)
    assert second == first


def test_run_grid_rejects_unavailable_backend(monkeypatch, tmp_path):
    monkeypatch.setattr(backends, "_disabled", {"c"})
    with pytest.raises(BackendUnavailableError):
        run_grid([{"x": 1}], _cell, jobs=1, cache_dir=tmp_path, backend="c")
