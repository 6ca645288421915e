"""Command-line interface."""

from __future__ import annotations

import re

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.target == "cpu"
        assert args.kernel == "copy"

    def test_axis_syntax(self):
        args = build_parser().parse_args(
            ["sweep", "--axis", "vector_width=1,2,4", "--axis", "unroll=1,2"]
        )
        assert len(args.axis) == 2


class TestCommands:
    def test_devices(self, capsys):
        assert main(["devices"]) == 0
        out = capsys.readouterr().out
        for tag in ("cpu", "gpu", "aocl", "sdaccel"):
            assert tag in out

    def test_run_single(self, capsys):
        code = main(["run", "--target", "aocl", "--size", "64KiB", "--ntimes", "1"])
        assert code == 0
        assert "GB/s" in capsys.readouterr().out

    def test_run_all_kernels(self, capsys):
        code = main(
            ["run", "--target", "cpu", "--size", "64KiB", "--all-kernels", "--ntimes", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        for k in ("copy", "scale", "add", "triad"):
            assert k in out

    def test_run_failure_exit_code(self, capsys):
        # ADD with int16 overflows the Virtex-7 resources -> exit 1
        code = main(
            [
                "run",
                "--target",
                "sdaccel",
                "--size",
                "64KiB",
                "--kernel",
                "add",
                "--vec",
                "16",
                "--ntimes",
                "1",
            ]
        )
        assert code == 1

    def test_run_csv_output(self, tmp_path, capsys):
        out_csv = tmp_path / "r.csv"
        code = main(
            ["run", "--target", "gpu", "--size", "64KiB", "--ntimes", "1", "--csv", str(out_csv)]
        )
        assert code == 0
        assert out_csv.exists()
        assert "bandwidth_gbs" in out_csv.read_text()

    def test_sweep(self, capsys):
        code = main(
            [
                "sweep",
                "--target",
                "aocl",
                "--size",
                "64KiB",
                "--loop",
                "flat",
                "--axis",
                "vector_width=1,4",
                "--ntimes",
                "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "best:" in out

    def test_sweep_parallel_reports_cache_and_skips(self, capsys):
        code = main(
            [
                "sweep",
                "--target",
                "cpu",
                "--axis",
                "array_bytes=32KiB,64KiB,128KiB",
                "--ntimes",
                "1",
                "--jobs",
                "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        # the campaign summary: point/job/skip counts and cache counters
        assert (
            "3 point(s) on 2 job(s) (process backend), "
            "0 invalid point(s) skipped" in out
        )
        # NDRange sizes share one front-end pass per worker (each of the
        # two warms its own cache); repeats are tagged
        assert "front-end 1 hit/2 miss" in out
        assert "plans 1 hit/2 miss" in out
        assert "[cached front-end]" in out
        assert "stage wall time:" in out

    def test_sweep_no_cache(self, capsys):
        code = main(
            [
                "sweep",
                "--target",
                "cpu",
                "--axis",
                "array_bytes=32KiB,64KiB",
                "--ntimes",
                "1",
                "--no-cache",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "front-end 0 hit/0 miss" in out
        assert "[cached front-end]" not in out

    def test_source(self, capsys):
        code = main(["source", "--kernel", "triad", "--loop", "nested", "--vec", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "mpstream_triad" in out and "int4" in out

    def test_host_stream(self, capsys):
        code = main(["host-stream", "--size", "1MiB", "--ntimes", "1"])
        assert code == 0
        assert "copy" in capsys.readouterr().out

    def test_figure_targets(self, capsys):
        code = main(["figure", "targets"])
        assert code == 0
        assert "peak=336.0" in capsys.readouterr().out

    def test_bad_size_reports_error(self, capsys):
        code = main(["run", "--size", "lots"])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestExtendedCommands:
    def test_autotune(self, capsys):
        code = main(
            [
                "autotune",
                "--target",
                "aocl",
                "--size",
                "128KiB",
                "--budget",
                "8",
                "--ntimes",
                "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "best:" in out and "evaluated" in out

    def test_autotune_custom_axis(self, capsys):
        code = main(
            [
                "autotune",
                "--target",
                "cpu",
                "--size",
                "64KiB",
                "--axis",
                "vector_width=1,4",
                "--budget",
                "4",
                "--ntimes",
                "1",
            ]
        )
        assert code == 0

    def test_autotune_multifidelity_strategy(self, capsys):
        code = main(
            [
                "autotune",
                "--target",
                "cpu",
                "--size",
                "64KiB",
                "--budget",
                "6",
                "--ntimes",
                "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "best:" in out
        # the search report leads with pool accounting and the
        # trajectory hash, then one line per rung
        assert "pool points" in out and "trajectory" in out
        assert "rung 0 [model]" in out and "rung 1 [measured]" in out

    def test_autotune_default_budget(self, capsys):
        # the default axes give a 35-point pool; the search's own
        # default budget measures 6 of it
        code = main(
            ["autotune", "--target", "aocl", "--size", "64KiB", "--ntimes", "1"]
        )
        assert code == 0
        assert "evaluated 6/35" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "knob",
        [["--strategy", "multifidelity"], ["--eta", "2"], ["--no-refine"]],
    )
    def test_autotune_search_knobs_are_gone(self, knob, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["autotune", "--target", "cpu", "--size", "64KiB", *knob])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_autotune_host_streams_points_at_sweep(self, capsys):
        code = main(
            ["autotune", "--target", "cpu", "--size", "64KiB",
             "--host-streams"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "cannot be model-scored" in err
        assert "mp-stream sweep --host-streams" in err

    def test_autotune_rejects_zero_budget(self, capsys):
        code = main(
            ["autotune", "--target", "cpu", "--size", "64KiB", "--budget", "0"]
        )
        assert code == 2
        assert "budget must be >= 1" in capsys.readouterr().err

    def test_autotune_rejects_empty_axis(self, capsys):
        # `--axis vector_width=` must exit 2 with a message, not dump
        # a traceback from deep inside the sweep machinery
        code = main(
            ["autotune", "--target", "cpu", "--size", "64KiB",
             "--axis", "vector_width="]
        )
        assert code == 2
        assert "has no values" in capsys.readouterr().err

    def test_autotune_rejects_unparseable_axis_value(self, capsys):
        code = main(
            ["autotune", "--target", "cpu", "--size", "64KiB",
             "--axis", "vector_width=banana"]
        )
        assert code == 2
        assert "cannot parse" in capsys.readouterr().err

    def test_energy(self, capsys):
        code = main(
            ["energy", "--target", "aocl", "--size", "256KiB", "--vec", "8",
             "--loop", "flat", "--ntimes", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "GB/J" in out

    def test_energy_failure(self, capsys):
        code = main(
            ["energy", "--target", "sdaccel", "--size", "64KiB",
             "--kernel", "add", "--vec", "16", "--loop", "nested", "--ntimes", "1"]
        )
        assert code == 1

    def test_save_and_compare(self, tmp_path, capsys):
        before = tmp_path / "before.jsonl"
        after = tmp_path / "after.jsonl"
        assert main(["run", "--target", "aocl", "--size", "64KiB", "--ntimes", "1",
                     "--save", str(before)]) == 0
        assert main(["run", "--target", "aocl", "--size", "64KiB", "--vec", "8",
                     "--loop", "flat", "--ntimes", "1", "--save", str(after)]) == 0
        code = main(["compare", str(before), str(after)])
        assert code == 0
        out = capsys.readouterr().out
        assert "new" in out or "removed" in out

    def test_gpustream(self, capsys):
        code = main(
            ["gpustream", "--target", "cpu", "--size", "1MiB", "--ntimes", "2", "--dot"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "GPU-STREAM" in out and "dot" in out and "triad" in out

    def test_selfcheck(self, capsys):
        code = main(["selfcheck"])
        assert code == 0
        out = capsys.readouterr().out
        assert "self-check passed" in out

    def test_figure_dtype_listed(self):
        args = build_parser().parse_args(["figure", "dtype"])
        assert args.name == "dtype"

    def test_figure_csv_export(self, tmp_path, capsys, monkeypatch):
        import repro.cli as cli

        monkeypatch.setitem(
            cli._FIGURES, "fig1b", lambda: {"cpu": [(1.0, 25.0), (2.0, 26.0)]}
        )
        out_csv = tmp_path / "fig.csv"
        code = main(["figure", "fig1b", "--csv", str(out_csv)])
        assert code == 0
        text = out_csv.read_text()
        assert text.splitlines()[0] == "x,cpu"
        assert "25.0" in text


class TestResilienceFlags:
    SWEEP = ["sweep", "--target", "cpu", "--size", "64KiB",
             "--axis", "vector_width=1,2", "--ntimes", "1"]

    def test_parser_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.journal is None
        assert args.resume is False
        assert args.inject_faults is None
        assert args.retries == 2

    def test_bad_fault_spec_exits_cleanly(self, capsys):
        code = main(self.SWEEP + ["--inject-faults", "bitflip=0.5"])
        assert code == 2
        assert "unknown fault site" in capsys.readouterr().err

    def test_inject_faults_reports_taxonomy(self, capsys):
        code = main(self.SWEEP + ["--inject-faults", "launch=1.0", "--retries", "0"])
        assert code == 0  # per-point failures are data, not crashes
        out = capsys.readouterr().out
        assert "failure kind" in out
        assert "launch" in out

    def test_point_timeout_flag(self, capsys):
        code = main(self.SWEEP + ["--inject-faults", "stall=1.0,stall_s=30",
                                  "--retries", "0", "--point-timeout", "0.2"])
        assert code == 0
        assert "timeout" in capsys.readouterr().out

    def test_point_timeout_reaches_process_workers(self, capsys):
        # the engine's watchdog is the only budget; pool workers get it
        # through their WorkerSpec, so a stalled point still times out
        code = main(self.SWEEP + ["--jobs", "2", "--backend", "process",
                                  "--inject-faults", "stall=1.0,stall_s=30",
                                  "--retries", "0", "--point-timeout", "0.2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "(process backend)" in out
        assert out.count("FAILED (PointTimeoutError") == 2
        assert re.search(r"^timeout +2 ", out, re.MULTILINE), out

    def test_journal_then_resume(self, tmp_path, capsys):
        journal = tmp_path / "campaign.jsonl"
        assert main(self.SWEEP + ["--journal", str(journal)]) == 0
        first = capsys.readouterr().out
        assert "0 restored, 2 executed" in first
        assert main(self.SWEEP + ["--journal", str(journal), "--resume"]) == 0
        second = capsys.readouterr().out
        assert "2 restored, 0 executed" in second

    def test_resume_without_journal_rejected(self, capsys):
        code = main(self.SWEEP + ["--resume"])
        assert code == 2
        assert "journal" in capsys.readouterr().err


class TestSchedulerFlags:
    SWEEP = ["sweep", "--target", "cpu", "--size", "64KiB",
             "--axis", "vector_width=1,2", "--ntimes", "1"]

    def test_parser_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.backend is None
        assert args.max_worker_restarts == 2
        assert args.durable_journal is False

    def test_zero_jobs_rejected(self, capsys):
        code = main(self.SWEEP + ["--jobs", "0"])
        assert code == 2
        assert "jobs must be >= 1" in capsys.readouterr().err

    def test_negative_jobs_rejected(self, capsys):
        code = main(self.SWEEP + ["--jobs", "-3"])
        assert code == 2
        assert "jobs must be >= 1" in capsys.readouterr().err

    def test_unknown_backend_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--backend", "mpi"])

    def test_thread_backend_refused(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(self.SWEEP + ["--jobs", "2", "--backend", "thread"])
        assert exc.value.code == 2
        assert "invalid choice: 'thread'" in capsys.readouterr().err

    def test_process_backend_smoke(self, capsys):
        code = main(self.SWEEP + ["--jobs", "2", "--backend", "process"])
        assert code == 0
        assert "(process backend)" in capsys.readouterr().out

    def test_serial_backend_overrides_jobs(self, capsys):
        code = main(self.SWEEP + ["--jobs", "4", "--backend", "serial"])
        assert code == 0
        assert "(serial backend)" in capsys.readouterr().out

    def test_crash_faults_reported_in_summary(self, tmp_path, capsys):
        journal = tmp_path / "crash.jsonl"
        code = main(self.SWEEP + [
            "--inject-faults", "worker_crash=1.0,seed=7",
            "--max-worker-restarts", "1",
            "--journal", str(journal), "--durable-journal",
        ])
        assert code == 0  # crash failures are data, not harness errors
        out = capsys.readouterr().out
        assert "scheduler:" in out
        assert "worker crash(es)" in out
        assert "worker_crash" in out  # failure-kind table row
        # resume restores the crash-failure points instead of re-running
        assert main(self.SWEEP + [
            "--inject-faults", "worker_crash=1.0,seed=7",
            "--max-worker-restarts", "1",
            "--journal", str(journal), "--resume",
        ]) == 0
        assert "2 restored, 0 executed" in capsys.readouterr().out

    def test_autotune_scheduler_flags(self, tmp_path, capsys):
        journal = tmp_path / "tune.jsonl"
        tune = ["autotune", "--target", "aocl", "--size", "64KiB",
                "--ntimes", "1", "--budget", "10",
                "--axis", "vector_width=1,2,4"]
        assert main(tune + ["--jobs", "2", "--journal", str(journal)]) == 0
        first = capsys.readouterr().out
        assert "journal:" in first and "0 restored" in first
        assert main(tune + ["--journal", str(journal), "--resume"]) == 0
        second = capsys.readouterr().out
        assert "0 executed" in second


class TestVerifyCommand:
    SWEEP = ["sweep", "--target", "cpu", "--size", "4KiB",
             "--axis", "vector_width=1,2", "--ntimes", "1"]

    def test_parser_defaults(self):
        args = build_parser().parse_args(["verify"])
        assert args.grid == "small"
        assert args.golden is None
        assert not args.update_golden and not args.skip_golden

    @pytest.mark.slow
    def test_verify_small_grid_passes_clean(self, capsys):
        code = main(["verify", "--grid", "small", "--target", "cpu"])
        assert code == 0
        out = capsys.readouterr().out
        for pillar in ("conformance", "metamorphic", "engine", "golden"):
            assert pillar in out
        assert "FAIL" not in out
        assert "clean (no drift)" in out

    def test_sweep_verify_flag_runs_clean(self, capsys):
        code = main(self.SWEEP + ["--verify"])
        assert code == 0
        out = capsys.readouterr().out
        assert "best:" in out
        assert "verify_mismatch" not in out

    def test_injected_miscompile_reported_as_verify_mismatch(self, capsys):
        code = main(self.SWEEP + ["--verify", "--inject-faults",
                                  "verify=1.0,seed=7"])
        assert code == 0  # mismatches are data points, not crashes
        out = capsys.readouterr().out
        assert "verify_mismatch" in out
        assert "failure kind" in out

    def test_verify_negative_path_classifies_faults(self, capsys):
        code = main(["verify", "--grid", "small", "--target", "cpu",
                     "--skip-golden", "--inject-faults", "verify=1.0,seed=7"])
        assert code == 0
        out = capsys.readouterr().out
        assert "verify_mismatch" in out
        assert "FAIL" not in out

    @pytest.mark.slow
    def test_update_golden_writes_corpus(self, tmp_path, capsys):
        golden = tmp_path / "corpus.json"
        code = main(["verify", "--grid", "small", "--target", "cpu",
                     "--golden", str(golden), "--update-golden"])
        assert code == 0
        assert golden.exists()
        assert "re-pinned" in capsys.readouterr().out
        # a second run against the fresh pin is clean
        code = main(["verify", "--grid", "small", "--target", "cpu",
                     "--golden", str(golden)])
        assert code == 0
        assert "clean (no drift)" in capsys.readouterr().out

    @pytest.mark.slow
    def test_drift_fails_with_diff_report(self, tmp_path, capsys):
        import json

        golden = tmp_path / "corpus.json"
        assert main(["verify", "--grid", "small", "--target", "cpu",
                     "--golden", str(golden), "--update-golden"]) == 0
        capsys.readouterr()
        doc = json.loads(golden.read_text())
        key = next(iter(doc["entries"]))
        doc["entries"][key]["result_sha"] = "0" * 16
        golden.write_text(json.dumps(doc))
        code = main(["verify", "--grid", "small", "--target", "cpu",
                     "--golden", str(golden)])
        assert code == 1
        out = capsys.readouterr().out
        assert "drift" in out and "result_sha" in out
        assert "-   result_sha = 0000000000000000" in out

    @pytest.mark.slow
    def test_missing_golden_exits_with_guidance(self, tmp_path, capsys):
        code = main(["verify", "--grid", "small", "--target", "cpu",
                     "--golden", str(tmp_path / "absent.json")])
        assert code == 2
        assert "update-golden" in capsys.readouterr().err


class TestBenchCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["bench"])
        assert not args.quick and not args.no_compare
        assert args.out == "BENCH_PERF.json"
        assert args.baseline is None and args.threshold == 25.0

    def test_bench_writes_schema_versioned_report(self, tmp_path, capsys):
        import json

        out = tmp_path / "BENCH_PERF.json"
        code = main(["bench", "--quick", "--only", "engine_stages",
                     "--out", str(out), "--no-compare"])
        assert code == 0
        assert "wrote" in capsys.readouterr().out
        report = json.loads(out.read_text())
        assert report["schema"] == 1 and report["quick"] is True
        assert "engine_stages" in report["benchmarks"]
        assert "python" in report["env"] and "numpy" in report["env"]

    def test_bench_defaults_baseline_to_previous_out(self, tmp_path, capsys):
        out = tmp_path / "BENCH_PERF.json"
        argv = ["bench", "--quick", "--only", "engine_stages",
                "--out", str(out)]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0  # second run gates against the first
        assert f"compared against {out}" in capsys.readouterr().out

    def test_bench_fails_on_regression_against_baseline(
        self, tmp_path, capsys
    ):
        import json

        out = tmp_path / "BENCH_PERF.json"
        assert main(["bench", "--quick", "--only", "sweep_throughput",
                     "--out", str(out), "--no-compare"]) == 0
        capsys.readouterr()
        doc = json.loads(out.read_text())
        # forge a baseline whose throughput the current run can never
        # reach on the same machine; throughput only gates when machine
        # fingerprints match, which they do here by construction
        doc["benchmarks"]["sweep_throughput"]["throughput"]["value"] = 1e18
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(doc))
        code = main(["bench", "--quick", "--only", "sweep_throughput",
                     "--out", str(out), "--baseline", str(baseline)])
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_every_speedup_floor_names_a_benchmark(self):
        # compare() skips a floor whose benchmark is missing from the
        # report, so renaming a benchmark would silently drop its gate
        from repro.perf.bench import BENCHMARKS
        from repro.perf.report import MIN_SPEEDUP

        assert set(MIN_SPEEDUP) <= set(BENCHMARKS)

    def test_bench_rejects_unknown_benchmark(self, capsys):
        code = main(["bench", "--quick", "--only", "nope"])
        assert code == 2
        err = capsys.readouterr().err
        # the error must name the offender *and* list the valid menu,
        # or a typo'd CI invocation is undebuggable from the log alone
        assert "nope" in err
        assert "engine_stages" in err and "search_efficiency" in err

    def test_bench_rejects_empty_only(self, capsys):
        # `--only ""` (and all-comma variants) must error, not silently
        # fall back to running the full suite
        code = main(["bench", "--quick", "--only", ""])
        assert code == 2
        assert "expected a comma-separated list" in capsys.readouterr().err
        code = main(["bench", "--quick", "--only", ",,"])
        assert code == 2
