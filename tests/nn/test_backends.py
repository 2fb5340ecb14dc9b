"""Backend registry, fallback, and serving-mode contracts (PR 6, PR 16).

Three families of claims:

- **registry behavior** — name validation, ``auto`` resolution, the
  explicit-request-raises / auto-falls-back asymmetry, the one-time
  fallback warning, and the C extension's build and cache (a corrupt
  cached ``.so`` is rebuilt, the cache key covers everything that shapes
  the file, numpy's version included, missing Python headers and an
  ``exp`` loop that is not ``np.exp``'s fall back to numpy, ``_compile``
  builds under any file name);
- **cross-backend bit-identity** — ``c`` runs the Hebbian network on
  its own kernels (``rk_heb_step`` / ``rk_heb_rollout`` /
  ``rk_heb_learn_class`` / ``rk_heb_finite``), which must leave it
  exactly the numpy one: over
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
import os
import shutil
import subprocess
import sys
import sysconfig
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.availability import weights_finite
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
from repro.nn import hebbian
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


def test_the_environment_switch_is_read_at_import():
    """``REPRO_DISABLE_COMPILED=1`` reaches every entry point through
    the package: a fresh interpreter resolves ``auto`` to numpy."""
    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "REPRO_DISABLE_COMPILED": "1", "PYTHONPATH": src,
           "PYTHONDONTWRITEBYTECODE": "1"}
    out = subprocess.run(
        [sys.executable, "-W", "ignore", "-c",
         "from repro.nn.backends import resolve_backend, backend_available;"
         "print(resolve_backend(), backend_available('c'))"],
        env=env, capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.split() == ["numpy", "False"]


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


def _require_toolchain() -> None:
    pytest.importorskip("cffi")
    if not (shutil.which("cc") or shutil.which("gcc")):
        pytest.skip("no C compiler on PATH")


def _fresh_load_state(monkeypatch) -> None:
    for attr, value in (("_ffi", None), ("_lib", None),
                        ("_load_failed", False), ("_loops", None)):
        monkeypatch.setattr(c_backend, attr, value)


def test_corrupt_cached_library_is_rebuilt(monkeypatch, tmp_path):
    """A cached ``.so`` that exists but cannot be loaded is recompiled
    over once instead of latching this (and every later) process onto
    numpy; and the cache key covers the compile flags, the cffi
    declarations, the interpreter's extension suffix and the cffi
    version."""
    _require_toolchain()
    monkeypatch.setattr(c_backend, "_build_dir", lambda: tmp_path)
    _fresh_load_state(monkeypatch)
    path = c_backend._so_path()
    path.write_bytes(b"not an ELF file")
    assert c_backend.available()
    rebuilt, _ = c_backend._load()
    rebuilt.dlopen(str(path))  # the file on disk is a loadable library now
    monkeypatch.setattr(c_backend, "_CFLAGS", c_backend._CFLAGS + ("-g",))
    assert c_backend._so_path() != path
    seen = {path, c_backend._so_path()}
    monkeypatch.setattr(c_backend, "_CDEF", c_backend._CDEF + "\n")
    seen.add(c_backend._so_path())
    get_config_var = sysconfig.get_config_var
    monkeypatch.setattr(sysconfig, "get_config_var", lambda name: (
        ".cpython-0-other.so" if name == "EXT_SUFFIX"
        else get_config_var(name)))
    seen.add(c_backend._so_path())
    import _cffi_backend
    monkeypatch.setattr(_cffi_backend, "__version__", "0.0.0")
    seen.add(c_backend._so_path())
    assert len(seen) == 5


def test_missing_python_headers_fall_back_to_numpy(monkeypatch, tmp_path):
    """The extension is compiled against the Python headers: without
    them the compile fails, ``c`` reports unavailable and ``auto`` falls
    back to numpy with its one-time warning — and nothing is left in the
    build directory."""
    _require_toolchain()
    empty = tmp_path / "include"
    empty.mkdir()
    build = tmp_path / "build"
    monkeypatch.setattr(c_backend, "_include_dirs", lambda: [str(empty)])
    monkeypatch.setattr(c_backend, "_build_dir", lambda: build)
    _fresh_load_state(monkeypatch)
    assert c_backend._compile(build / "reprokernels-cold.so") is False
    assert not c_backend.available()
    assert list(build.iterdir()) == []
    monkeypatch.setattr(backends, "_default_backend", "auto")
    monkeypatch.setattr(backends, "_warned_fallback", False)
    with pytest.warns(RuntimeWarning, match="falling back"):
        assert resolve_backend("auto") == "numpy"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert resolve_backend("auto") == "numpy"


def test_the_cache_key_covers_numpys_version(monkeypatch):
    """The extension compiles numpy's ``PyUFuncObject`` layout in (the
    exp loop is read through it): another numpy is another file."""
    pytest.importorskip("cffi")
    path = c_backend._so_path()
    monkeypatch.setattr(np, "__version__", "0.0.0")
    assert c_backend._so_path() != path


def test_a_failed_exp_probe_falls_back_to_numpy(monkeypatch, tmp_path):
    """The kernels call numpy's own float64 ``exp`` loop, checked against
    ``np.exp`` when the extension loads: a loop that is not ``np.exp``'s
    bit for bit (here ``np.sin``'s) makes ``c`` unavailable, and ``auto``
    falls back to numpy with its one-time warning."""
    _require_toolchain()
    monkeypatch.setattr(c_backend, "_build_dir", lambda: tmp_path)
    _fresh_load_state(monkeypatch)
    loaded = c_backend._load()
    assert loaded is not None and c_backend._bind_loops(*loaded) is not None
    _fresh_load_state(monkeypatch)
    monkeypatch.setattr(c_backend, "_EXP_UFUNC", np.sin)
    assert not c_backend.available()
    monkeypatch.setattr(backends, "_default_backend", "auto")
    monkeypatch.setattr(backends, "_warned_fallback", False)
    with pytest.warns(RuntimeWarning, match="falling back"):
        assert resolve_backend("auto") == "numpy"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert resolve_backend("auto") == "numpy"


def test_compile_to_any_file_name_loads_and_runs(tmp_path):
    """``_compile(path) -> bool`` builds the extension under whatever
    name it is given (a cold-compile timing uses its own): the file loads
    as the extension, and a kernel runs."""
    _require_toolchain()
    out = tmp_path / "reprokernels-cold.so"
    assert c_backend._compile(out) is True
    assert list(tmp_path.iterdir()) == [out]
    loaded = c_backend._import(out)
    assert loaded is not None
    ffi, lib = loaded
    soc = np.array([0, -1, 1], dtype=np.int64)
    cids = np.array([0, 2, 1, 0], dtype=np.int64)
    assert lib.rk_first_nonresident(ffi.from_buffer("long long[]", soc),
                                    ffi.from_buffer("long long[]", cids),
                                    0, 4) == 2


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


@pytest.mark.parametrize("backend", ["numpy", "int8", *COMPILED])
def test_restore_state_rejects_an_outside_code_at_once(backend):
    """``restore_state``'s ``prev_active`` is the only code that enters
    from outside; a negative entry, one past the layer or a wrong shape
    raises there, on every backend, and leaves the network as it was."""
    config = HebbianConfig(vocab_size=16, hidden_dim=64, seed=3,
                           backend=backend)
    net = SparseHebbianNetwork(config)
    for class_id in (1, 2, 3):
        net.step(class_id)
    code = net._prev_active
    values = net.readout_values.copy()
    negative = code.copy()
    negative[0] = -1
    too_large = code.copy()
    too_large[-1] = config.hidden_dim
    for bad in (negative, too_large, code[:-1], np.concatenate([code, code]),
                code[None, :]):
        with pytest.raises(IndexError):
            net.restore_state(values=np.zeros_like(values), prev_active=bad,
                              prev_pred=None, last_probs=None, train_steps=0)
        assert net._prev_active is code
        np.testing.assert_array_equal(net.readout_values, values)
    net.restore_state(values=values, prev_active=code.copy(), prev_pred=None,
                      last_probs=None, train_steps=net.train_steps)
    twin = SparseHebbianNetwork(config)
    for class_id in (1, 2, 3):
        twin.step(class_id)
    assert np.array_equal(net.step(4), twin.step(4))


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
                and np.array_equal(a, b))
    return a == b


def _code_id_coherent(net: SparseHebbianNetwork) -> bool:
    """Whether the compiled network's code id describes its code: none
    without a code, and where the id is of the table's current epoch,
    that row is the code."""
    codes = net._codes
    assert codes is not None
    if net._prev_active is None:
        return net._prev_id == -1
    return (net._id_epoch != codes.epoch
            or np.array_equal(codes.codes[net._prev_id], net._prev_active))


@pytest.mark.parametrize("backend", COMPILED or ["__none__"])
@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 6, 7])
def test_compiled_hebbian_fuzz(backend, seed, monkeypatch):
    """Randomized interleavings of step / train_pair / learn_pair /
    train_pairs / rollout / readout stay bit-identical to numpy; seeds 3
    to 5 and 7 without the punish term.

    Each round is a step, one move, then one or two rollouts, so the
    compiled network's code id — which its step and rollout start from
    instead of the code itself — is checked after every move that could
    leave it stale: nothing, the training calls, an untrained step,
    ``reset_state``, ``sync_from`` / ``restore_state`` from a partner
    network that runs its own stream, ``clone`` / ``fork`` and the
    ``w_out`` setter.  Seeds 2, 5 and 7 cap the memo at 24 codes, so the
    code table is cleared (and every id held goes stale) mid-run.
    Widths are 1, 2, 3, the vocabulary and one past it (half the time
    the last width again), lengths 0 to 3.  Seeds 6 and 7 zero the
    weights every few rounds, so ties send the selection back to
    ``select_topk``."""
    _require_compiled(backend)
    if seed in (2, 5, 7):
        monkeypatch.setattr(hebbian, "_CODE_CACHE_CAP", 24)
    net_seed, stream_seed = spawn_seeds(seed, 2)
    config = HebbianConfig(vocab_size=48, hidden_dim=200, seed=net_seed,
                           punish_wrong=seed in (0, 1, 2, 6))
    vocab = config.vocab_size
    # Per backend: the network under test and its partner.
    nets = {name: [SparseHebbianNetwork(dataclasses.replace(config,
                                                            backend=name))
                   for _ in range(2)]
            for name in ("numpy", backend)}
    rng = np.random.default_rng(stream_seed)
    fast_net = nets[backend]
    epochs = {fast_net[0]._codes.epoch}

    def each(move) -> None:
        """``move(pair)`` on both backends' pairs: the same result, and
        the compiled pair's code ids still describe their codes."""
        ref, fast = (move(pair) for pair in nets.values())
        assert _same(ref, fast)
        assert all(_code_id_coherent(net) for net in fast_net)
        epochs.add(fast_net[0]._codes.epoch)

    def classes(n: int) -> list[int]:
        return [int(c) for c in rng.integers(0, vocab, size=n)]

    def restore(pair: list) -> None:
        net, partner = pair
        net.restore_state(values=partner.readout_values,
                          prev_active=partner._prev_active,
                          prev_pred=partner._prev_pred,
                          last_probs=partner._last_probs,
                          train_steps=partner.train_steps)

    def replace(pair: list, index: int, net: SparseHebbianNetwork) -> None:
        pair[index] = net

    held = stale = 0
    width = 2
    for _ in range(250):
        if seed >= 6 and rng.integers(0, 6) == 0:
            zeros = np.zeros((config.hidden_dim, vocab))
            each(lambda pair: setattr(pair[0], "w_out", zeros))
        (c, p), train = classes(2), bool(rng.integers(0, 4))
        each(lambda pair: pair[0].step(c, train=train))
        each(lambda pair: pair[1].step(p))
        a, b = classes(2)
        pairs = [tuple(classes(2)) for _ in range(5)]
        move = int(rng.integers(0, 12))
        each([
            lambda pair: None,
            lambda pair: pair[0].learn_pair(a, b, lr_scale=0.5),
            lambda pair: pair[0].train_pair(a, b, lr_scale=0.2),
            lambda pair: pair[0].train_pairs(pairs, lr_scale=0.1),
            lambda pair: pair[0].step(a, train=False),
            lambda pair: pair[0].reset_state(),
            lambda pair: pair[0].sync_from(pair[1]),
            restore,
            lambda pair: replace(pair, 0, pair[0].clone()),
            lambda pair: replace(pair, 1, pair[0].fork()),
            lambda pair: setattr(pair[0], "w_out", pair[1].w_out),
            lambda pair: pair[0].readout(pair[0].hidden_code(a)),
        ][move])
        for _ in range(int(rng.integers(1, 3))):
            if rng.integers(0, 2):  # else the last width again
                width = int(rng.choice([1, 2, 3, vocab, vocab + 1]))
            length = int(rng.integers(0, 4))
            net = fast_net[0]
            if net._prev_active is not None:
                current = net._id_epoch == net._codes.epoch
                held += current
                stale += not current
            each(lambda pair: pair[0].predict_rollout(width, length))
    each(lambda pair: pair[0].w_out)
    each(lambda pair: pair[1].w_out)
    assert held > 40 and stale > 5
    if seed in (2, 5, 7):
        assert len(epochs) > 3


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
@pytest.mark.parametrize("room", [0, 1, 2])
def test_a_rollout_scratch_smaller_than_one_step(backend, room):
    """A context whose rollout scratch holds fewer entries than one step
    (``min(width, vocab)``, three here): ``rk_heb_rollout`` writes
    nothing past the scratch — it leaves each step's selection to
    ``select_topk``, the first step's too — and ``predict_rollout`` is
    the numpy network's, bit for bit, at every length."""
    _require_compiled(backend)
    config = HebbianConfig(vocab_size=12, hidden_dim=60, seed=3)
    ref = SparseHebbianNetwork(dataclasses.replace(config, backend="numpy"))
    fast = SparseHebbianNetwork(dataclasses.replace(config, backend=backend))
    heb = fast._kernels()
    assert heb is not None
    heb.ctx.roll_cap = room
    top, p = np.asarray(heb.roll_top), np.asarray(heb.roll_p)
    top[:] = -7
    p[:] = 0.5
    rng = np.random.default_rng(4)
    for class_id in rng.choice([1, 2, 3, 1, 2, 5, 7], size=80).tolist():
        assert np.array_equal(ref.step(class_id), fast.step(class_id))
        for length in (1, 2, 4):
            assert (ref.predict_rollout(3, length)
                    == fast.predict_rollout(3, length))
    assert (top[room:] == -7).all() and (p[room:] == 0.5).all()


@pytest.mark.parametrize("backend", COMPILED or ["__none__"])
def test_kernel_selection_is_select_topk_or_hands_back(backend):
    """``rk_heb_rollout``'s selection of a given row (one step) on
    vectors drawn from a few values: wherever it picks it equals
    ``select_topk`` — order and values — and it hands back (stops at
    the row, -1 as its class) exactly when a value among the top width
    + 1 is shared, or a NaN is present."""
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
        done = heb.rollout(heb.row(vec), -1, -1, width, 1)
        ranked = np.sort(vec)[::-1][:min(width + 1, vocab)]
        tied = bool(np.isnan(vec).any() or (ranked[1:] == ranked[:-1]).any())
        assert (done == 0) == tied
        if tied:
            assert heb.state[2:].tolist() == [-1, -1]
            handed_back += 1
            continue
        picked_some += 1
        picked = min(width, vocab)
        assert (list(zip(heb.roll_top[:picked].tolist(),
                         heb.roll_p[:picked].tolist()))
                == select_topk(vec, width))
    assert picked_some > 500 and handed_back > 500


@pytest.mark.parametrize("backend", COMPILED or ["__none__"])
@pytest.mark.parametrize("vocab", [1, 7, 8, 9, 24, 127, 128, 129, 192, 255,
                                   256, 257, 500])
def test_kernel_softmax_is_numpys(backend, vocab):
    """Normalisation replays numpy's pairwise ``sum`` (eight accumulators
    to 128 values, halved above): ``x / x.sum()`` bit for bit at every
    length around the block edges, and at vocabulary 192 (Fig. 5's),
    where the sum splits once — through ``rk_heb_finish_rows``, the
    normalisation the network's softmax shares."""
    _require_compiled(backend)
    net = SparseHebbianNetwork(HebbianConfig(
        vocab_size=vocab, hidden_dim=16, backend=backend))
    lanes = c_backend.bind_hebbian_lanes(net._heb_tables,
                                         **net._kernel_settings())
    rng = np.random.default_rng(vocab)
    for _ in range(200):
        x = np.exp(rng.standard_normal(vocab) * rng.uniform(0.1, 12.0))
        rows = x[None].copy()
        lanes.finish_rows(rows)
        np.testing.assert_array_equal(rows[0], x / x.sum())


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
# Serve's kernels: swap admission and the class-keyed learn
# ----------------------------------------------------------------------
#: Value vectors of 7 998, 15 and 7 values: the scan's eight-wide body
#: and its remainder loop, one body turn and a tail, the tail alone.
_ADMISSION_SHAPES = [
    dict(vocab_size=64),
    *(dict(vocab_size=3, hidden_dim=hidden, connectivity_out=density,
           connectivity_in=0.5, connectivity_rec=0.2)
      for hidden, density in ((16, 0.25), (12, 0.1)))]


@pytest.mark.parametrize("backend", COMPILED or ["__none__"])
@pytest.mark.parametrize("shape", range(len(_ADMISSION_SHAPES)))
def test_the_admission_kernel_is_numpys_isfinite(backend, shape):
    """``rk_heb_finite`` over the bound value vector answers
    ``np.isfinite(readout_values).all()``: a NaN, +inf or -inf at the
    first offset, a middle one, the last one and each of the last eight
    (the remainder loop) is caught; -0.0, subnormals, the largest finite
    magnitude and an all-finite trained vector pass."""
    _require_compiled(backend)
    config = HebbianConfig(seed=7, backend=backend,
                           **_ADMISSION_SHAPES[shape])
    net = SparseHebbianNetwork(config)
    values = net._w_vals
    n = values.size
    assert 0 < n < 8 or n % 8
    for a, b in [(0, 1), (1, 2), (2, 0)]:
        net.learn_pair(a, b)
    assert net._heb is not None  # bound: the kernel reads ``values``

    def agrees() -> bool:
        want = bool(np.isfinite(net.readout_values).all())
        assert bool(net._heb.finite()) == want
        assert net.values_finite() == want
        assert weights_finite(net) == want
        return want

    assert agrees()
    trained = values.copy()
    offsets = sorted({0, n // 2, n - 1, *range(max(0, n - 8), n)})
    for offset in offsets:
        for bad in (np.nan, np.inf, -np.inf, -np.nan):
            values[offset] = bad
            assert not agrees(), (offset, bad)
            values[offset] = trained[offset]
    tiny = np.finfo(np.float64).smallest_subnormal
    for good in (-0.0, tiny, -tiny, np.finfo(np.float64).max,
                 -np.finfo(np.float64).max, 2.0 ** -1022):
        values[:] = good
        assert agrees(), good
    values[:] = trained
    values[::3] = -0.0
    assert agrees()


def test_the_kernel_flags_keep_ieee_semantics():
    """The Hebbian kernels keep a NaN through their clip and argmax as
    numpy does and sum in numpy's order; ``-ffast-math`` or
    ``-ffinite-math-only`` would let the compiler assume no NaN or inf
    (and fold a finiteness test to true), and reassociate sums."""
    flags = c_backend._CFLAGS
    assert "-fno-fast-math" in flags
    assert "-ffp-contract=off" in flags
    for forbidden in ("-ffast-math", "-ffinite-math-only", "-Ofast",
                      "-fassociative-math", "-funsafe-math-optimizations"):
        assert forbidden not in flags


_PAIR_VOCAB = 10
_pair_class = st.integers(-2, _PAIR_VOCAB + 1)


@pytest.mark.skipif(not COMPILED, reason="needs a compiled backend")
@settings(max_examples=80, deadline=None)
@given(punish=st.booleans(),
       moves=st.lists(st.tuples(
           st.sampled_from(["learn", "train", "pairs", "sync", "fork",
                            "step"]),
           _pair_class, _pair_class, st.sampled_from([1.0, 0.5, 0.1])),
           max_size=40))
@example(punish=True, moves=[("learn", 3, 4, 1.0), ("learn", 3, 5, 1.0),
                             ("sync", 0, 0, 1.0), ("learn", 11, 2, 1.0),
                             ("learn", 3, 10, 1.0), ("learn", 3, -1, 1.0),
                             ("learn", 10, 3, 1.0), ("learn", -2, 3, 1.0),
                             ("sync", 0, 0, 1.0)])
def test_the_class_keyed_learn_is_numpys_learn_pair(punish, moves):
    """``learn_pair`` / ``train_pair`` / ``train_pairs`` on the kernels
    (``rk_heb_learn_class`` on the replay's code table) against numpy's:
    a class learnt for the first time makes its code, a class outside the
    vocabulary raises ``ValueError`` before any weight moves (or the
    fork partner's log does), and every weight, confidence and
    ``sync_from`` offset list is numpy's, with and without the punish
    term."""
    config = HebbianConfig(vocab_size=_PAIR_VOCAB, hidden_dim=80,
                           connectivity_rec=0.05, punish_wrong=punish,
                           seed=9)
    pairs = {name: [None, None] for name in ("numpy", "c")}
    for name, pair in pairs.items():
        pair[0] = SparseHebbianNetwork(dataclasses.replace(config,
                                                           backend=name))
        pair[1] = pair[0].fork()

    def each(move) -> object:
        results = []
        for pair in pairs.values():
            live, shadow = pair
            before = (shadow.readout_values.copy(), shadow._written.count)
            try:
                results.append(move(pair, live, shadow))
            except ValueError:
                results.append(ValueError)
                assert np.array_equal(shadow.readout_values, before[0])
                assert shadow._written.count == before[1]
        ref, fast = results
        assert _same(ref, fast), (ref, fast)
        return ref

    for kind, a, b, lr in moves:
        inside = [(a % _PAIR_VOCAB, b % _PAIR_VOCAB),
                  (b % _PAIR_VOCAB, a % _PAIR_VOCAB)]
        each([
            lambda pair, live, shadow: shadow.learn_pair(a, b, lr_scale=lr),
            lambda pair, live, shadow: shadow.train_pair(a, b, lr_scale=lr),
            lambda pair, live, shadow: shadow.train_pairs(inside,
                                                          lr_scale=lr),
            lambda pair, live, shadow: live.sync_from(shadow),
            lambda pair, live, shadow: pair.__setitem__(1, live.fork()),
            lambda pair, live, shadow: shadow.step(a % _PAIR_VOCAB),
        ][["learn", "train", "pairs", "sync", "fork", "step"].index(kind)])
        assert np.array_equal(pairs["numpy"][1].readout_values,
                              pairs["c"][1].readout_values)
    each(lambda pair, live, shadow: live.sync_from(shadow))
    for index in (0, 1):
        np.testing.assert_array_equal(pairs["numpy"][index].w_out,
                                      pairs["c"][index].w_out)


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
