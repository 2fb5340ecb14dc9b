"""The shared trace-materialization cache and runner cache integrity.

Covers the PR 4 trace cache (cold/warm parity, keying, corrupt-file
regeneration, the configure bracket) and the runner's stored-spec
verification (a cached result whose recorded spec does not match the
requested one is recomputed, not served).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.harness import trace_cache
from repro.harness.runner import run_grid, spec_key
from repro.harness.trace_cache import configure, materialize, trace_spec
from repro.patterns.applications import AppSpec, generate_application
from repro.patterns.generators import PatternSpec, generate
from repro.patterns.trace import interleave
from repro.seeding import spawn_seeds

_SPEC = AppSpec(n=2_000, seed=3)
_ALT_SEED = spawn_seeds(_SPEC.seed, 1)[0]


def _assert_traces_equal(a, b) -> None:
    assert a.name == b.name
    np.testing.assert_array_equal(a.addresses, b.addresses)
    np.testing.assert_array_equal(a.kinds, b.kinds)
    np.testing.assert_array_equal(a.stream_ids, b.stream_ids)
    np.testing.assert_array_equal(a.timestamps, b.timestamps)


class TestMaterialize:
    def test_unconfigured_is_generate_application(self):
        assert trace_cache.configured_dir() is None
        _assert_traces_equal(materialize("mcf", _SPEC),
                             generate_application("mcf", _SPEC))

    def test_cold_and_warm_hits_match_uncached(self, tmp_path):
        uncached = generate_application("mcf", _SPEC)
        previous = configure(tmp_path / "traces")
        try:
            cold = materialize("mcf", _SPEC)
            assert len(list((tmp_path / "traces").glob("*.npz"))) == 1
            warm = materialize("mcf", _SPEC)
        finally:
            configure(previous)
        _assert_traces_equal(cold, uncached)
        _assert_traces_equal(warm, uncached)

    def test_warm_hit_is_served_from_disk(self, tmp_path, monkeypatch):
        previous = configure(tmp_path)
        try:
            materialize("mcf", _SPEC)

            def boom(*args, **kwargs):  # pragma: no cover - must not run
                raise AssertionError("warm hit regenerated the trace")

            monkeypatch.setattr(trace_cache, "generate_application", boom)
            warm = materialize("mcf", _SPEC)
        finally:
            configure(previous)
        _assert_traces_equal(warm, generate_application("mcf", _SPEC))

    def test_distinct_specs_get_distinct_files(self, tmp_path):
        previous = configure(tmp_path)
        try:
            materialize("mcf", _SPEC)
            materialize("mcf", AppSpec(n=_SPEC.n, seed=_ALT_SEED))
            materialize("mcf", AppSpec(n=_SPEC.n + 1, seed=_SPEC.seed))
            materialize("pagerank", _SPEC)
        finally:
            configure(previous)
        assert len(list(tmp_path.glob("*.npz"))) == 4

    def test_corrupt_archive_is_regenerated_and_overwritten(self, tmp_path):
        previous = configure(tmp_path)
        try:
            materialize("mcf", _SPEC)
            [archive] = tmp_path.glob("*.npz")
            archive.write_bytes(b"not a zip archive")
            trace = materialize("mcf", _SPEC)
            assert archive.read_bytes() != b"not a zip archive"
        finally:
            configure(previous)
        _assert_traces_equal(trace, generate_application("mcf", _SPEC))

    def test_foreign_trace_under_right_key_is_not_served(self, tmp_path):
        # A file that loads cleanly but holds a different app's trace
        # (e.g. copied between cache directories) fails the integrity
        # check and is regenerated.
        previous = configure(tmp_path)
        try:
            path = tmp_path / f"{spec_key(trace_spec('mcf', _SPEC))}.npz"
            generate_application("pagerank", _SPEC).save(path)
            trace = materialize("mcf", _SPEC)
        finally:
            configure(previous)
        _assert_traces_equal(trace, generate_application("mcf", _SPEC))

    def test_configure_returns_previous_setting(self, tmp_path):
        first = configure(tmp_path / "a")
        assert first is None
        second = configure(tmp_path / "b")
        assert second == tmp_path / "a"
        assert configure(None) == tmp_path / "b"
        assert trace_cache.configured_dir() is None


_STRIDE = {"pattern": "stride", "n": 400, "working_set": 50,
           "element_size": 4096, "seed": 1}
_OFFSET = {"pattern": "pointer_offset", "n": 300, "seed": 2,
           "kwargs": {"offsets": [0, 8]}}


class TestRecipes:
    def test_every_source_builds_its_generator_trace(self):
        stride = generate("stride", PatternSpec(n=400, working_set=50,
                                                element_size=4096, seed=1))
        offset = generate("pointer_offset", PatternSpec(n=300, seed=2),
                          offsets=[0, 8])
        _assert_traces_equal(materialize(_STRIDE), stride)
        _assert_traces_equal(materialize(_OFFSET), offset)
        _assert_traces_equal(
            materialize({"interleave": [_STRIDE, _OFFSET], "seed": 5,
                         "name": "mix"}),
            interleave([stride, offset], seed=5, name="mix"))
        _assert_traces_equal(materialize({"concat": [_STRIDE, _OFFSET]}),
                             stride.concat(offset))
        _assert_traces_equal(
            materialize({"app": "mcf", "n": _SPEC.n, "seed": _SPEC.seed}),
            generate_application("mcf", _SPEC))

    def test_composites_are_cached_whole(self, tmp_path):
        recipe = {"concat": [_STRIDE, {"interleave": [_STRIDE, _OFFSET],
                                       "seed": 3}]}
        previous = configure(tmp_path)
        try:
            cold = materialize(recipe)
            assert len(list(tmp_path.glob("*.npz"))) == 1
            warm = materialize(recipe)
        finally:
            configure(previous)
        assert cold.name == "stride+interleaved"
        _assert_traces_equal(warm, cold)

    def test_bad_recipes_raise(self):
        for recipe in ({"pattern": "stride", "n": 10, "working_sets": 4},
                       {"app": "mcf", "pattern": "stride"},
                       {"interleave": [_STRIDE, _STRIDE]},
                       {"concat": [_STRIDE], "seed": 1},
                       {"n": 10}):
            with pytest.raises((TypeError, ValueError)):
                materialize(recipe)


def _trace_summary_cell(spec: dict) -> dict:
    trace = materialize(spec["app"], AppSpec(n=spec["n"], seed=spec["seed"]))
    return {"n": len(trace), "first": int(trace.addresses[0])}


class TestRunGridTraceCache:
    def test_parity_and_population_serial_and_parallel(self, tmp_path):
        specs = [{"kind": "t", "app": "mcf", "n": 1_500, "seed": s}
                 for s in (0, 1)]
        bare = run_grid(specs, _trace_summary_cell)
        cached = run_grid(specs, _trace_summary_cell,
                          trace_cache_dir=tmp_path / "serial")
        parallel = run_grid(specs, _trace_summary_cell, jobs=2,
                            trace_cache_dir=tmp_path / "parallel")
        assert bare == cached == parallel
        assert len(list((tmp_path / "serial").glob("*.npz"))) == 2
        assert len(list((tmp_path / "parallel").glob("*.npz"))) == 2

    def test_serial_run_restores_prior_configuration(self, tmp_path):
        previous = configure(tmp_path / "outer")
        try:
            run_grid([{"kind": "t", "app": "mcf", "n": 1_000, "seed": 0}],
                     _trace_summary_cell, trace_cache_dir=tmp_path / "inner")
            assert trace_cache.configured_dir() == tmp_path / "outer"
        finally:
            configure(previous)


class TestResultCacheSpecVerification:
    def test_mismatched_stored_spec_is_recomputed(self, tmp_path):
        spec = {"kind": "t", "app": "mcf", "n": 1_200, "seed": 0}
        cache = tmp_path / "cells"
        [honest] = run_grid([spec], _trace_summary_cell, cache_dir=cache)

        # Tamper: right filename, wrong recorded spec (as a hash collision
        # or a foreign file dropped into the directory would produce).
        path = cache / f"{spec_key(spec)}.json"
        payload = json.loads(path.read_text())
        payload["spec"]["seed"] = 99
        payload["result"] = {"n": -1, "first": -1}
        path.write_text(json.dumps(payload))

        [served] = run_grid([spec], _trace_summary_cell, cache_dir=cache)
        assert served == honest
        assert json.loads(path.read_text())["spec"]["seed"] == 0

    def test_matching_stored_spec_is_served(self, tmp_path):
        spec = {"kind": "t", "app": "mcf", "n": 1_200, "seed": 0}
        cache = tmp_path / "cells"
        run_grid([spec], _trace_summary_cell, cache_dir=cache)

        # Keep the spec honest but change the result: a hit must serve
        # the stored result without recomputing.
        path = cache / f"{spec_key(spec)}.json"
        payload = json.loads(path.read_text())
        payload["result"] = {"n": 42, "first": 7}
        path.write_text(json.dumps(payload))
        assert run_grid([spec], _trace_summary_cell,
                        cache_dir=cache) == [{"n": 42, "first": 7}]

    def test_unreadable_cache_file_is_recomputed(self, tmp_path):
        spec = {"kind": "t", "app": "mcf", "n": 1_200, "seed": 0}
        cache = tmp_path / "cells"
        [honest] = run_grid([spec], _trace_summary_cell, cache_dir=cache)
        path = cache / f"{spec_key(spec)}.json"
        path.write_text("{torn write")
        assert run_grid([spec], _trace_summary_cell,
                        cache_dir=cache) == [honest]
