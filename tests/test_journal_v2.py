"""Crash-consistent journal WAL v2 (repro.core.history.SweepJournal).

The contract under test: every record carries CRC32 + length framing
over its canonical serialization; a crash mid-append leaves at most
one torn final line, which ``load()`` truncates *exactly*; mid-file
damage is quarantined to a sidecar and reported — never silently
dropped; ``fsck`` detects every injected corruption with zero false
positives on clean journals; a record of any other schema (v1
included) is unreadable and quarantined, so its point re-runs;
``compact`` folds a rotated family back into one deduplicated all-v2
live file; and journal failure mid-campaign is *degradation, not
death*. The end-to-end kill -9 proof lives in
``tests/test_chaos.py``.
"""

from __future__ import annotations

import json

import pytest

import repro.core.history as history
from repro.cli import main as cli_main
from repro.core import (
    CampaignScheduler,
    ExecutionEngine,
    ParameterSweep,
    SweepJournal,
    TuningParameters,
    compact_journal,
    explore,
    fsck_journal,
    point_fingerprint,
)
from repro.errors import DiskFullError, JournalError, SweepError, failure_kind
from repro.faults import FaultPlan
from repro.obs import events as obs_events
from repro.units import KIB

AXES = {"vector_width": [1, 2, 4], "array_bytes": [32 * KIB, 64 * KIB]}


def _sweep() -> ParameterSweep:
    return ParameterSweep(base=TuningParameters(array_bytes=32 * KIB), axes=AXES)


def _engine(faults: str | None = None, **kw) -> ExecutionEngine:
    kw.setdefault("ntimes", 1)
    if faults is not None:
        kw["faults"] = FaultPlan.parse(faults)
    return ExecutionEngine("gpu", **kw)


@pytest.fixture(scope="module")
def sample():
    """(key, result) pairs of one clean campaign, in grid order."""
    engine = _engine()
    results = explore(engine, _sweep())
    keys = [point_fingerprint(engine.target, p) for p in _sweep().points()]
    return list(zip(keys, results))


def _write_journal(path, sample, **kw) -> SweepJournal:
    journal = SweepJournal(path, **kw)
    for key, result in sample:
        journal.record(key, result)
    return journal


def _fps(pairs_or_results) -> set:
    return {r.fingerprint() for r in pairs_or_results}


class TestV2Format:
    def test_records_are_flat_json_with_framing(self, tmp_path, sample):
        path = tmp_path / "j.jsonl"
        _write_journal(path, sample)
        lines = path.read_text().splitlines()
        assert len(lines) == len(sample)
        for line, (key, result) in zip(lines, sample):
            record = json.loads(line)  # one flat object: jq-friendly
            assert record["schema"] == 2
            assert record["point"] == key
            assert record["fingerprint"] == result.fingerprint()
            assert len(record["crc32"]) == 8
            assert record["nbytes"] == len(history._journal_payload(record))

    def test_roundtrip_restores_identical_fingerprints(self, tmp_path, sample):
        path = tmp_path / "j.jsonl"
        _write_journal(path, sample)
        restored = SweepJournal(path).load()
        assert {k: r.fingerprint() for k, r in restored.items()} == {
            k: r.fingerprint() for k, r in sample
        }

    def test_schema1_record_quarantined_and_point_reruns(self, tmp_path, sample):
        # a pre-WAL (schema 1) record is unreadable, not read-compatible:
        # it goes to the sidecar like corruption and its point re-runs
        path = tmp_path / "j.jsonl"
        _write_journal(path, sample[1:])
        key, result = sample[0]
        record = history.result_to_record(result, detail=True)
        record.update(schema=1, point=key, fingerprint=result.fingerprint())
        v1_line = json.dumps(record, sort_keys=True)
        with path.open("a") as fh:
            fh.write(v1_line + "\n")
        report = fsck_journal(path)
        assert report.corrupt == 1 and report.valid == len(sample) - 1
        assert any("unsupported schema 1" in note for note in report.notes)
        journal = SweepJournal(path)
        resumed = explore(_engine(), _sweep(), journal=journal, resume=True)
        assert journal.discarded == 1
        assert journal.reused == len(sample) - 1
        assert journal.executed == 1  # only the schema-1 point re-ran
        assert [r.fingerprint() for r in resumed] == [
            r.fingerprint() for _, r in sample
        ]
        side = [
            json.loads(line)
            for line in (tmp_path / "j.jsonl.quarantine").read_text().splitlines()
        ]
        assert [q["line"] for q in side] == [v1_line]
        assert side[0]["reason"] == "unsupported schema 1"
        assert fsck_journal(path).clean


class TestTornTail:
    def test_torn_final_record_truncated_exactly(self, tmp_path, sample):
        path = tmp_path / "j.jsonl"
        _write_journal(path, sample)
        intact = path.read_bytes()
        key, result = sample[0]
        path.write_bytes(intact + history._journal_line(key, result)[:37])
        journal = SweepJournal(path)
        restored = journal.load()
        assert len(restored) == len(sample)
        assert journal.discarded == 1 and journal.repaired == 1
        assert path.read_bytes() == intact  # exact truncation, nothing else
        assert journal.load_report.torn_tail == 1

    def test_unterminated_but_intact_tail_repaired_without_loss(
        self, tmp_path, sample
    ):
        path = tmp_path / "j.jsonl"
        _write_journal(path, sample)
        intact = path.read_bytes()
        path.write_bytes(intact[:-1])  # the tear landed on the newline
        journal = SweepJournal(path)
        restored = journal.load()
        assert len(restored) == len(sample)  # no data loss
        assert journal.discarded == 0 and journal.repaired == 1
        assert path.read_bytes() == intact  # re-terminated in place

    def test_torn_write_fault_tears_and_hard_exits(
        self, tmp_path, sample, monkeypatch
    ):
        exits: list[int] = []

        def fake_exit(code: int):
            exits.append(code)
            raise SystemExit(code)

        monkeypatch.setattr(history.os, "_exit", fake_exit)
        plan = FaultPlan.parse("journal_write=1.0,seed=3")
        journal = SweepJournal(tmp_path / "j.jsonl", faults=plan)
        key, result = sample[0]
        with pytest.raises(SystemExit):
            journal.record(key, result)
        assert exits == [history.TORN_WRITE_EXIT_CODE]
        data = (tmp_path / "j.jsonl").read_bytes()
        full = history._journal_line(key, result)
        assert 0 < len(data) < len(full)  # a strict prefix...
        assert not data.endswith(b"\n")  # ...never a terminated line


class TestQuarantine:
    def test_midfile_corruption_quarantined_not_dropped(self, tmp_path, sample):
        path = tmp_path / "j.jsonl"
        _write_journal(path, sample)
        lines = path.read_text().splitlines()
        lines[2] = lines[2].replace('"schema": 2', '"schema": 2, ')
        # re-frame nothing: the edit breaks the recorded nbytes/crc32
        path.write_text("\n".join(lines) + "\n")
        journal = SweepJournal(path)
        restored = journal.load()
        assert len(restored) == len(sample) - 1
        assert journal.discarded == 1
        sidecar = path.with_name(path.name + ".quarantine")
        assert sidecar.exists()
        entry = json.loads(sidecar.read_text().splitlines()[0])
        assert entry["file"] == path.name and entry["lineno"] == 3
        assert entry["reason"]
        # the damaged line is gone from the live file, and a second
        # load sees a clean journal
        assert len(path.read_text().splitlines()) == len(sample) - 1
        assert fsck_journal(path).clean

    def test_stale_fingerprint_quarantined(self, tmp_path, sample):
        path = tmp_path / "j.jsonl"
        _write_journal(path, sample)
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        record["fingerprint"] = "0" * 16
        # recompute the framing so only the fingerprint check can fail
        lines[1] = json.dumps(history._frame_record(record), sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        report = fsck_journal(path)
        assert report.stale == 1 and report.corrupt == 0
        journal = SweepJournal(path)
        restored = journal.load()
        assert len(restored) == len(sample) - 1
        assert journal.discarded == 1

    def test_load_emits_dropped_records_event(self, tmp_path, sample):
        path = tmp_path / "j.jsonl"
        _write_journal(path, sample)
        data = path.read_text().splitlines()
        data[0] = data[0][:-5] + "garbo"
        path.write_text("\n".join(data) + "\n")
        events_path = tmp_path / "events.jsonl"
        with obs_events.use_log(obs_events.EventLog(events_path)):
            SweepJournal(path).load()
        events = [json.loads(x) for x in events_path.read_text().splitlines()]
        dropped = [e for e in events if e["event"] == "journal_dropped_records"]
        assert len(dropped) == 1
        assert dropped[0]["dropped"] == 1 and dropped[0]["corrupt"] == 1


class TestFsck:
    def test_zero_false_positives_on_clean_journals(self, tmp_path, sample):
        path = tmp_path / "j.jsonl"
        _write_journal(path, sample)
        report = fsck_journal(path)
        assert report.clean
        assert report.valid == len(sample) and report.dropped == 0
        assert report.notes == ()
        assert "status: clean" in report.describe()

    def test_detects_flipped_bytes(self, tmp_path, sample):
        path = tmp_path / "j.jsonl"
        _write_journal(path, sample)
        intact = path.read_bytes()
        good = _fps(r for _, r in sample)
        lines = intact.splitlines(keepends=True)
        step = max(1, len(lines[1]) // 7)
        for offset in range(1, len(lines[1]) - 2, step):
            mutated = bytearray(lines[1])
            mutated[offset] ^= 0x20
            if bytes(mutated) == lines[1]:
                continue
            path.write_bytes(lines[0] + bytes(mutated) + b"".join(lines[2:]))
            report = fsck_journal(path)
            assert not report.clean, f"missed a flip at offset {offset}"
            # whatever survives the flip, load never restores wrong data
            restored = SweepJournal(path).load()
            assert _fps(restored.values()) <= good
        path.write_bytes(intact)
        assert fsck_journal(path).clean

    def test_truncated_mid_record_is_torn(self, tmp_path, sample):
        path = tmp_path / "j.jsonl"
        _write_journal(path, sample)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 20])
        report = fsck_journal(path)
        assert report.torn_tail == 1 and report.corrupt == 0
        assert not report.clean

    def test_cli_fsck_exit_codes(self, tmp_path, sample, capsys):
        path = tmp_path / "j.jsonl"
        assert cli_main(["journal", "fsck", str(path)]) == 2  # missing
        _write_journal(path, sample)
        assert cli_main(["journal", "fsck", str(path)]) == 0  # clean
        path.write_bytes(path.read_bytes()[:-9])
        assert cli_main(["journal", "fsck", str(path)]) == 1  # damaged
        out = capsys.readouterr().out
        assert "torn" in out


class TestRotationAndCompaction:
    def test_rotation_seals_segments_and_load_spans_them(self, tmp_path, sample):
        path = tmp_path / "j.jsonl"
        journal = _write_journal(path, sample, rotate_records=2)
        segments = sorted(tmp_path.glob("j.jsonl.seg-*"))
        assert len(segments) == len(sample) // 2
        assert journal.exists()
        restored = SweepJournal(path).load()
        assert len(restored) == len(sample)
        report = fsck_journal(path)
        assert report.clean and len(report.files) == len(segments)

    def test_compact_dedups_upgrades_and_removes_segments(self, tmp_path, sample):
        path = tmp_path / "j.jsonl"
        journal = _write_journal(path, sample, rotate_records=2)
        key0, result0 = sample[0]
        journal.record(key0, result0)  # duplicate key: latest must win
        record = history.result_to_record(result0, detail=True)
        record.update(schema=1, point="v1point", fingerprint=result0.fingerprint())
        with path.open("a") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
        kept = compact_journal(path)
        assert kept == len(sample)  # unique keys; the v1 line is not one
        assert sorted(tmp_path.glob("j.jsonl.seg-*")) == []
        report = fsck_journal(path)
        assert report.clean
        assert report.valid == kept
        # the schema-1 line was quarantined, not upgraded or dropped
        side = (tmp_path / "j.jsonl.quarantine").read_text().splitlines()
        assert len(side) == 1
        assert json.loads(side[0])["reason"] == "unsupported schema 1"

    def test_cli_compact(self, tmp_path, sample, capsys):
        path = tmp_path / "j.jsonl"
        assert cli_main(["journal", "compact", str(path)]) == 2  # missing
        _write_journal(path, sample, rotate_records=2)
        assert cli_main(["journal", "compact", str(path)]) == 0
        assert "compacted" in capsys.readouterr().out
        assert fsck_journal(path).clean


class TestFaultsAndDegradation:
    def test_disk_full_degrades_campaign_not_death(self, tmp_path):
        clean = explore(_engine(), _sweep())
        scheduler = CampaignScheduler(
            _engine("disk_full=1.0,seed=3"),
            journal=SweepJournal(tmp_path / "j.jsonl"),
        )
        results = scheduler.run(list(_sweep().points()))
        assert scheduler.journal_degraded
        assert "DiskFullError" in scheduler.journal_error
        assert [r.fingerprint() for r in results] == [
            r.fingerprint() for r in clean
        ]
        # the failed journal family was quarantined out of the way
        assert not (tmp_path / "j.jsonl").exists()

    def test_journal_fsync_fault_fires_only_when_durable(self, tmp_path, sample):
        key, result = sample[0]
        plan = FaultPlan.parse("journal_fsync=1.0,seed=3")
        relaxed = SweepJournal(tmp_path / "relaxed.jsonl", faults=plan)
        relaxed.record(key, result)  # non-durable: no fsync, no fault
        assert relaxed.executed == 1
        durable = SweepJournal(
            tmp_path / "durable.jsonl", durable=True, faults=plan
        )
        with pytest.raises(JournalError):
            durable.record(key, result)

    def test_journal_failure_taxonomy(self):
        assert failure_kind(DiskFullError("x")) == "disk_full"
        assert failure_kind(JournalError("x")) == "journal_io"


class TestStrictResume:
    def test_resume_missing_journal_is_an_error(self, tmp_path):
        with pytest.raises(SweepError, match="cannot resume"):
            explore(
                _engine(),
                _sweep(),
                journal=SweepJournal(tmp_path / "nope.jsonl"),
                resume=True,
            )

    def test_resume_or_start_falls_back_to_fresh(self, tmp_path):
        journal = SweepJournal(tmp_path / "nope.jsonl")
        results = explore(
            _engine(), _sweep(), journal=journal, resume_or_start=True
        )
        assert len(results) == len(_sweep())
        assert journal.executed == len(results)
