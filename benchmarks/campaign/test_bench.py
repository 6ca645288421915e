"""Self-test of the campaign benchmark, on a reduced grid.

    PYTHONPATH=src python -m pytest benchmarks/campaign -q

``--smoke`` runs a subset of every workload's points through the same
code path, one campaign each (one traced and one untraced with
``--trace``); the smoke points are a subset of the full workloads', so
the pins in ``expected/`` apply unchanged.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402

#: per-layer metrics that must be non-zero on the workload that
#: exercises the wrapped layer
PRIMARY = {
    "paper_figures": (
        "oclc.exec.launches",
        "oclc.exec.kernel_builds",
        "oclc.exec.computed_bytes",
        "ocl.launch.calls",
        "core.validate.calls",
        "core.kernels.reference_s",
        "core.kernels.init_s",
        "ocl.buffers.calls",
        "ocl.transfer.calls",
        "ocl.transfer.bytes",
    ),
    "aocl_sweep": (
        "core.engine.points",
        "core.scheduler.self_s",
        "core.scheduler.wait_s",
        "devices.build.failed",
    ),
    "aocl_sweep_process": (
        "core.history.records",
        "core.history.bytes",
        "core.scheduler.wait_s",
        "core.scheduler.worker_busy_frac",
        # the parent runs no point itself: these come from worker spans
        "core.engine.points",
        "oclc.exec.launches",
        "trace.worker_coverage",
    ),
    "search_small": (
        "oclc.frontend.calls",
        "core.generator.calls",
        "devices.build.calls",
        "devices.plan.hit_ratio",
        "devices.timing.calls",
        "core.search.lowfi_calls",
        "core.search.evals",
    ),
}


def bench(out: Path, *args: str, cwd: Path = ROOT) -> tuple[subprocess.CompletedProcess, dict | None]:
    cmd = [
        sys.executable,
        str(cwd / "benchmarks" / "campaign" / "run.py"),
        "--smoke",
        "--out", str(out),
        *args,
    ]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)
    report_path = out / "report.json"
    report = json.loads(report_path.read_text()) if report_path.exists() else None
    return proc, report


def checkout(root: Path, with_source: bool) -> Path:
    """A copy of the benchmark at ``root``, optionally linked to ``src/``."""
    shutil.copy(ROOT / "BENCHMARK.json", root)
    shutil.copytree(
        HERE, root / "benchmarks" / "campaign",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    if with_source:
        (root / "src").symlink_to(ROOT / "src")
    return root


@pytest.fixture(scope="module")
def plain(tmp_path_factory):
    out = tmp_path_factory.mktemp("plain")
    proc, report = bench(out)
    assert proc.returncode == 0, proc.stderr
    return out, proc, report


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("traced")
    proc, report = bench(out, "--trace")
    assert proc.returncode == 0, proc.stderr
    return out, proc, report


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def workloads() -> list[str]:
    return [w["name"] for w in spec()["workloads"]]


def test_report_names_every_metric_with_its_unit(plain, traced):
    for (_, proc, report), kind in ((plain, "end_to_end"), (traced, "per_layer")):
        units = {m["name"]: m["unit"] for m in spec()[kind]}
        assert list(report["workloads"]) == workloads()
        summary = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(summary) == {"correct", "attempted", "failed", "metrics"}
        assert summary["correct"] and summary["failed"] == 0
        assert summary["attempted"] >= 1
        assert {
            key: entry["unit"] for key, entry in summary["metrics"].items()
        } == {f"{w}/{m}": u for w in workloads() for m, u in units.items()}


def test_end_to_end_metrics_are_positive(plain):
    for workload in workloads():
        res = plain[2]["workloads"][workload]
        assert res["error_frac"] == 0
        for name, entry in res["metrics"].items():
            assert entry["value"] > 0, (workload, name)


def test_one_flipped_pin_is_one_wrong_output(plain, tmp_path):
    outputs = json.loads((plain[0] / "aocl_sweep" / "rep-0.json").read_text())["outputs"]
    root = checkout(tmp_path, with_source=True)
    pins_path = root / "benchmarks" / "campaign" / "expected" / "aocl_grid.json"
    pins = json.loads(pins_path.read_text())
    victim = sorted(outputs)[0]
    pins["exact"][victim] = pins["exact"][victim][::-1]
    pins_path.write_text(json.dumps(pins))

    proc, report = bench(tmp_path / "out", "--workload", "aocl_sweep", cwd=root)
    assert proc.returncode == 1
    res = report["workloads"]["aocl_sweep"]
    assert res["attempted"] == len(outputs)
    assert res["error_frac"] == pytest.approx(1 / len(outputs))
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["correct"] is False and summary["failed"] == 1


def test_every_wrapper_fires_on_its_primary_workload(traced):
    report = traced[2]
    assert sorted(PRIMARY) == sorted(workloads())
    for workload, names in PRIMARY.items():
        res = report["workloads"][workload]
        assert res["missing_targets"] == []
        for name in names:
            assert res["metrics"][name]["value"] > 0, (workload, name)
        assert res["metrics"]["trace.coverage"]["value"] >= 0.9, workload


def test_traced_run_writes_a_trace_with_worker_tracks(traced):
    trace = json.loads(
        (traced[0] / "aocl_sweep_process" / "rep-0" / "trace.json").read_text()
    )
    names = {
        e["pid"]: e["args"]["name"] for e in trace["traceEvents"] if e["ph"] == "M"
    }
    assert sorted(names.values()) == ["campaign", "worker", "worker"]
    worker_spans = [
        e for e in trace["traceEvents"]
        if e["ph"] == "X" and names[e["pid"]] == "worker"
    ]
    assert {e["cat"] for e in worker_spans} >= {"core.engine", "oclc.exec"}
    assert "layer core.scheduler.wait" in traced[1].stdout
    metrics = traced[2]["workloads"]["aocl_sweep_process"]["metrics"]
    assert 0 < metrics["trace.worker_coverage"]["value"] <= 1


def test_missing_wrapper_target_degrades_to_zero_calls(tmp_path):
    recorder = layers.Recorder(tmp_path)
    missing = layers.install(
        recorder,
        targets=(
            ("core.engine", "repro.core.engine:ExecutionEngine.deleted_lane", True, None),
            ("oclc.exec", "repro.oclc.deleted_module:run", False, None),
        ),
        sessions=("repro.core.scheduler.executors:DeletedExecutor.session",),
    )
    assert len(missing) == 3
    root = recorder.open(layers.ROOT_LAYER, "campaign", True)
    recorder.close(root)
    metrics = layers.analyze(recorder.all_spans(), recorder.main_pid, 1)["metrics"]
    assert metrics["core.engine.points"] == 0
    assert metrics["oclc.exec.launches"] == 0
    assert metrics["oclc.exec.useful_ratio"] == 0


def test_traced_and_untraced_runs_give_the_same_digest(plain, traced):
    for workload in workloads():
        untraced = plain[2]["workloads"][workload]["digests"]
        assert len(untraced) == 1
        assert traced[2]["workloads"][workload]["digests"] == untraced, workload


def test_seed_changes_order_not_outputs(plain, tmp_path):
    proc, report = bench(
        tmp_path, "--seed", "5",
        "--workload", "paper_figures", "--workload", "aocl_sweep",
    )
    assert proc.returncode == 0, proc.stderr
    for workload in ("paper_figures", "aocl_sweep"):
        assert (
            report["workloads"][workload]["digests"]
            == plain[2]["workloads"][workload]["digests"]
        )


def test_fails_without_the_program_source(tmp_path):
    root = checkout(tmp_path, with_source=False)
    proc, _ = bench(tmp_path / "out", "--workload", "aocl_sweep", cwd=root)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
