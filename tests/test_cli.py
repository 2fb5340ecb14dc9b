"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import _fleet_jobs, build_parser, main
from repro.harness.fleet import materialize_lane_spec


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_requires_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate", "-o", "x.npz"])

    def test_generate_sources_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate", "--pattern", "stride",
                                       "--app", "mcf", "-o", "x.npz"])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate", "--pattern", "stride"])
        assert args.model == "hebbian"
        assert args.length == 2
        assert args.replay == "full"

    def test_unknown_pattern_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate", "--pattern", "zigzag",
                                       "-o", "x.npz"])

    def test_fleet_jobs_defaults_to_autodetect(self):
        args = build_parser().parse_args(["fleet"])
        assert args.jobs is None
        args = build_parser().parse_args(["fleet", "--jobs", "3"])
        assert args.jobs == 3

    @pytest.mark.parametrize("flag, value", [
        ("--n", "0"), ("--tenants", "-2"), ("--working-set", "0"),
        ("--memory-fraction", "0"), ("--memory-fraction", "1.5"),
        ("--delay", "-1"), ("--width", "0"), ("--vocab", "1")])
    def test_fleet_rejects_an_out_of_range_flag(self, flag, value, capsys):
        """Refused at the parser — exit 2 and a usage line naming the
        flag — not by a traceback from inside the run (or its pool)."""
        with pytest.raises(SystemExit) as excinfo:
            main(["fleet", "--tenants", "2", "--n", "50", flag, value])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert f"argument {flag}: must be" in err

    @pytest.mark.parametrize("flag, value", [
        ("--vocab", "1"), ("--vocab", "0"), ("--length", "0"),
        ("--width", "0"), ("--n", "0"), ("--n", "-5")])
    def test_simulate_rejects_an_out_of_range_flag(self, flag, value,
                                                   capsys):
        """Refused at the parser, as ``serve run``'s flags are — not by a
        ``ValueError`` traceback from inside the run."""
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--pattern", "stride", "--n", "300", flag,
                  value])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert f"argument {flag}: must be" in err

    @pytest.mark.parametrize("flag, value", [
        ("--n", "0"), ("--working-set", "0"), ("--width", "0"),
        ("--length", "0"), ("--ring-capacity", "0"), ("--max-batch", "0"),
        ("--vocab", "1"), ("--max-staleness", "0"), ("--tenants", "0"),
        ("--tenants", "-1")])
    def test_serve_run_rejects_an_out_of_range_flag(self, flag, value,
                                                    capsys):
        """Refused at the parser, as ``fleet``'s flags are — not by a
        traceback from inside the service, nor by a run of no tenant."""
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "run", "--tenants", "2", "--n", "50", flag, value])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert f"argument {flag}: must be" in err


class TestCommands:
    def test_generate_and_simulate_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "trace.npz"
        assert main(["generate", "--pattern", "pointer_chase", "--n", "800",
                     "--working-set", "60", "-o", str(out)]) == 0
        assert out.exists()
        assert main(["simulate", "--trace", str(out), "--model", "hebbian",
                     "--vocab", "128", "--n", "800"]) == 0
        output = capsys.readouterr().out
        assert "misses removed %" in output
        assert "cls-hebbian" in output

    def test_simulate_inline_app_with_baseline_model(self, capsys):
        assert main(["simulate", "--app", "mcf", "--n", "3000",
                     "--model", "stride"]) == 0
        assert "stride" in capsys.readouterr().out

    def test_simulate_direct_mode_page_encoder(self, capsys):
        assert main(["simulate", "--pattern", "pointer_chase", "--n", "1500",
                     "--working-set", "80", "--model", "hebbian",
                     "--encoder", "page", "--mode", "direct",
                     "--length", "3"]) == 0
        assert "cls-hebbian" in capsys.readouterr().out

    def test_simulate_none_model(self, capsys):
        assert main(["simulate", "--pattern", "stride", "--n", "500",
                     "--model", "none"]) == 0
        assert "none" in capsys.readouterr().out

    def test_experiment_table1(self, capsys):
        assert main(["experiment", "table1"]) == 0
        assert "pointer_chase" in capsys.readouterr().out

    def test_experiment_table2(self, capsys):
        assert main(["experiment", "table2"]) == 0
        output = capsys.readouterr().out
        assert "hebbian" in output and "49,000" in output

    def test_experiment_fig2(self, capsys):
        assert main(["experiment", "fig2"]) == 0
        assert "lstm-fp32-1t" in capsys.readouterr().out

    def test_fleet_learned_lanes(self, capsys):
        assert main(["fleet", "--tenants", "3", "--n", "400",
                     "--working-set", "60", "--model", "hebbian",
                     "--vocab", "32", "--backend", "numpy"]) == 0
        output = capsys.readouterr().out
        assert "3 tenants" in output
        assert "hebbian" in output

    def test_fleet_jobs_sharded_with_manifest(self, tmp_path, capsys):
        assert main(["fleet", "--tenants", "4", "--n", "400",
                     "--working-set", "60", "--model", "hebbian",
                     "--vocab", "32", "--backend", "numpy",
                     "--jobs", "2",
                     "--manifest-dir", str(tmp_path)]) == 0
        output = capsys.readouterr().out
        assert "2 jobs" in output
        manifests = list(tmp_path.glob("fleet-4x-2j-*.jsonl"))
        assert len(manifests) == 1

    def test_fleet_prints_same_metric_rows_for_any_jobs(self, capsys):
        rows = []
        for jobs in ("1", "2"):
            assert main(["fleet", "--tenants", "4", "--n", "300",
                         "--model", "stride", "--backend", "numpy",
                         "--jobs", jobs]) == 0
            title, _, _, *table = capsys.readouterr().out.strip().splitlines()
            assert f"{jobs} jobs" in title
            rows.append([line.split()[0] for line in table])
        assert rows[0] == rows[1]
        assert {"n_cohorts", "n_shards", "jobs"} <= set(rows[0])

    def test_fleet_edges_of_the_checked_flags_run(self, capsys):
        """The smallest delay and the largest memory fraction are valid."""
        assert main(["fleet", "--tenants", "2", "--n", "200", "--jobs", "1",
                     "--model", "stride", "--delay", "0",
                     "--memory-fraction", "1", "--width", "1"]) == 0
        assert "2 tenants" in capsys.readouterr().out

    def test_fleet_lanes_are_page_granular(self, tmp_path):
        """At the CLI defaults (working set 200, memory fraction 0.5) a
        lane holds 100 pages, for every Table 1 pattern."""
        assert main(["fleet", "--tenants", "5", "--jobs", "1",
                     "--backend", "numpy",
                     "--manifest-dir", str(tmp_path)]) == 0
        manifest = tmp_path / "fleet-5x-numpy.jsonl"
        lanes = [json.loads(line)
                 for line in manifest.read_text().splitlines()[1:]]
        assert len({lane["trace"] for lane in lanes}) == 5
        assert [lane["capacity_pages"] for lane in lanes] == [100] * 5

    def test_fleet_roots_share_no_tenant_trace(self):
        """Tenant trace seeds derive from ``--seed`` through spawn_seeds,
        so ``--seed 0`` and ``--seed 1`` share no tenant trace (under
        ``seed + tenant``, tenant k+1 of one is tenant k of the other)."""
        traces = []
        for seed in ("0", "1"):
            args = build_parser().parse_args(
                ["fleet", "--tenants", "6", "--n", "200", "--pattern",
                 "pointer_chase", "--seed", seed])
            traces.append({materialize_lane_spec(job).trace.addresses.tobytes()
                           for job in _fleet_jobs(args)})
        assert len(traces[0]) == len(traces[1]) == 6
        assert not traces[0] & traces[1]

    def test_serve_run_lockstep_with_manifest(self, tmp_path, capsys):
        assert main(["serve", "run", "--tenants", "2", "--n", "150",
                     "--vocab", "32", "--seed", "3",
                     "--manifest-dir", str(tmp_path)]) == 0
        output = capsys.readouterr().out
        assert "2 tenants" in output
        assert "lockstep" in output
        assert "queries_answered" in output
        manifests = list(tmp_path.glob("serve-2x.jsonl"))
        assert len(manifests) == 1

    def test_serve_run_threaded(self, capsys):
        assert main(["serve", "run", "--tenants", "2", "--n", "80",
                     "--vocab", "32", "--threaded"]) == 0
        output = capsys.readouterr().out
        assert "threaded" in output

    def test_serve_run_scalar_matches_shape(self, capsys):
        assert main(["serve", "run", "--tenants", "2", "--n", "80",
                     "--vocab", "32", "--scalar"]) == 0
        output = capsys.readouterr().out
        assert "events_processed" in output

    def test_serve_run_edges_of_the_checked_flags_run(self, capsys):
        """One tenant, one event, the smallest vocabulary and every
        capacity at 1 are valid."""
        assert main(["serve", "run", "--tenants", "1", "--n", "1",
                     "--vocab", "2", "--width", "1", "--length", "1",
                     "--max-staleness", "1", "--ring-capacity", "1",
                     "--max-batch", "1"]) == 0
        assert "1 tenants x 1 events" in capsys.readouterr().out

    def test_profile_wraps_any_subcommand(self, capsys):
        assert main(["--profile", "simulate", "--pattern", "stride",
                     "--n", "500", "--model", "stride"]) == 0
        output = capsys.readouterr().out
        assert "misses removed %" in output  # the run itself still prints
        assert "cProfile: top 25 by cumulative time" in output
        assert "cumtime" in output  # pstats table made it to stdout
