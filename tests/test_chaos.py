"""Chaos tests: kill real campaign processes, prove resume is lossless.

These drive :mod:`tools.chaos` — the harness that runs ``mp-stream
sweep``/``autotune`` as a **real subprocess**, interrupts it mid-sweep
(``kill -9``, SIGTERM, or an injected torn journal append), checks
that no process of the interrupted campaign outlives it (pool workers
must exit once their parent is gone), fscks the survivor journal,
resumes in-process and compares ordered result fingerprints against an
uninterrupted run. One scenario per backend runs in tier 1; more live
behind ``--runslow``.

The invariant under test is docs/SCHEDULING.md's crash-consistency
contract: a campaign killed at *any* instant resumes from its journal
to a byte-identical final ResultSet.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

from chaos import (  # noqa: E402
    run_chaos,
    run_search_chaos,
    run_uninterrupted,
)


@pytest.fixture(scope="module")
def baseline() -> list[str]:
    """Fingerprints of the uninterrupted fault-free campaign.

    Fingerprints are backend-independent, so one serial in-process run
    serves every fault-free scenario over the default grid.
    """
    return run_uninterrupted()


class TestKillNine:
    def test_process_backend_kill9_resumes_identically(self, baseline):
        out = run_chaos(
            mode="kill", backend="process", jobs=2, baseline=baseline
        )
        assert out.ok, out.describe()
        assert out.interrupted and out.returncode == -9
        assert out.restored > 0
        assert out.fsck is not None and out.fsck.corrupt == 0
        assert out.resumed == baseline

    @pytest.mark.slow
    def test_serial_backend_kill9_resumes_identically(self, baseline):
        out = run_chaos(mode="kill", backend="serial", baseline=baseline)
        assert out.ok, out.describe()

    @pytest.mark.slow
    def test_thread_backend_kill9_with_worker_crashes(self):
        # engine faults ride along: a worker_crash failure is a data
        # point, and the resumed campaign must reproduce it exactly
        out = run_chaos(
            mode="kill",
            backend="process",
            jobs=2,
            faults_spec="worker_crash=0.4,seed=11",
        )
        assert out.ok, out.describe()


class TestTornWrite:
    def test_torn_append_resumes_identically(self, baseline):
        # the child dies *mid-journal-append* (injected journal_write
        # tear + hard exit 5): the worst crash a power loss produces
        out = run_chaos(mode="torn", backend="serial", baseline=baseline)
        assert out.ok, out.describe()
        assert out.returncode == 5
        # the tear leaves exactly one unterminated prefix, never a
        # corrupt or stale record
        assert out.fsck is not None
        assert out.fsck.torn_tail == 1
        assert out.fsck.corrupt == 0 and out.fsck.stale == 0
        assert out.resumed == baseline


class TestGracefulShutdown:
    def test_sigterm_drains_and_exits_130(self, baseline):
        out = run_chaos(
            mode="term", backend="process", jobs=2, baseline=baseline
        )
        assert out.ok, out.describe()
        assert out.returncode == 130
        # a graceful drain checkpoints cleanly: no torn tail at all
        assert out.fsck is not None and out.fsck.clean
        assert out.resumed == baseline


class TestSearchChaos:
    @pytest.mark.slow
    def test_search_kill9_replays_identical_trajectory(self):
        """An ``mp-stream autotune`` search killed mid-batch resumes to
        the same rung fingerprints, trajectory hash, and winning point."""
        out = run_search_chaos(backend="process", jobs=2)
        assert out.ok, out.describe()
        assert out.interrupted and out.returncode == -9
        assert out.restored > 0
        assert out.resumed == out.baseline
