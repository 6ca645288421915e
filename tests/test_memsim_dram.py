"""DRAM timing, controller arbitration and the PCIe link."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidValueError
from repro.memsim.controller import MemoryController, StreamDemand
from repro.memsim.dram import DramSpec, row_locality_efficiency, simulate_dram
from repro.memsim.pcie import PcieLink

SPEC = DramSpec(
    name="test-ddr",
    channels=2,
    banks_per_channel=8,
    row_bytes=2048,
    peak_bandwidth=25.6e9,
    t_row_miss=30e-9,
    t_row_hit=6e-9,
)

#: one channel of two banks: too few banks to hide activates, so small
#: transactions are command-bound
NARROW = DramSpec(
    name="narrow",
    channels=1,
    banks_per_channel=2,
    row_bytes=2048,
    peak_bandwidth=25.6e9,
    t_row_miss=30e-9,
    t_row_hit=6e-9,
)


class TestSimulateDram:
    def test_empty_trace(self):
        t = simulate_dram(SPEC, np.array([], dtype=np.int64), 64)
        assert t.seconds == 0.0

    def test_sequential_bursts_near_peak(self):
        addrs = np.arange(0, 8 * 1024 * 1024, 1024, dtype=np.int64)
        t = simulate_dram(SPEC, addrs, 1024)
        assert t.achieved_bandwidth > 0.8 * SPEC.peak_bandwidth
        assert t.row_hit_ratio > 0.4

    def test_random_rows_all_miss(self):
        rng = np.random.default_rng(7)
        addrs = rng.integers(0, 2**30, 4096) * 64
        t = simulate_dram(SPEC, addrs, 64)
        # every transaction opens a fresh row...
        assert t.row_misses == 4096
        # ...but bank-level parallelism still hides most activates
        assert t.command_seconds > 0

    def test_random_rows_limited_parallelism_is_command_bound(self):
        # with few banks, random rows cannot hide activations
        rng = np.random.default_rng(7)
        addrs = rng.integers(0, 2**30, 4096) * 64
        t = simulate_dram(NARROW, addrs, 64)
        assert t.command_seconds >= t.data_seconds
        assert t.achieved_bandwidth < 0.5 * NARROW.peak_bandwidth

    def test_min_transaction_granularity(self):
        addrs = np.arange(0, 64 * 100, 64, dtype=np.int64)
        t = simulate_dram(SPEC, addrs, 4)  # tiny sizes round up to 64
        assert t.bytes_moved == 100 * SPEC.min_transaction_bytes

    def test_shape_mismatch(self):
        with pytest.raises(InvalidValueError):
            simulate_dram(SPEC, np.zeros(3, np.int64), np.zeros(2, np.int64))

    def test_row_transitions_counted(self):
        # two transactions in the same row of the same bank: 1 miss + 1 hit
        addrs = np.array([0, 64], dtype=np.int64)
        t = simulate_dram(SPEC, addrs, 64)
        assert t.row_misses == 1 and t.row_hits == 1


class TestAnalyticEfficiency:
    @pytest.mark.parametrize(
        "spec, tx",
        [
            # data-bound: both sides read 1.0, whatever the command terms
            (SPEC, 512),
            # command-bound: both read 0.7407, so the row-hit/row-miss
            # weighting and the bank parallelism both move the answer
            (NARROW, 64),
        ],
        ids=["data", "command"],
    )
    def test_matches_simulation_for_uniform_stream(self, spec, tx):
        addrs = np.arange(0, tx * 2048, tx, dtype=np.int64)
        sim = simulate_dram(spec, addrs, tx)
        model = row_locality_efficiency(
            spec,
            tx,
            row_hit_ratio=sim.row_hit_ratio,
            parallelism=spec.banks_per_channel * spec.channels,
        )
        assert model == pytest.approx(
            sim.achieved_bandwidth / spec.peak_bandwidth, rel=0.15
        )

    def test_efficiency_bounds(self):
        for tx in (64, 256, 4096):
            for hit in (0.0, 0.5, 1.0):
                e = row_locality_efficiency(SPEC, tx, row_hit_ratio=hit)
                assert 0.0 < e <= 1.0

    def test_larger_transactions_more_efficient(self):
        e_small = row_locality_efficiency(SPEC, 64, parallelism=1)
        e_big = row_locality_efficiency(SPEC, 2048, parallelism=1)
        assert e_big > e_small

    def test_invalid_args(self):
        with pytest.raises(InvalidValueError):
            row_locality_efficiency(SPEC, 0)
        with pytest.raises(InvalidValueError):
            row_locality_efficiency(SPEC, 64, row_hit_ratio=1.5)


class TestController:
    def test_single_sequential_stream(self):
        ctl = MemoryController(SPEC)
        res = ctl.service([StreamDemand(bytes_total=1 << 20, transaction_bytes=512)])
        assert 0.3 < res.efficiency <= 1.0

    def test_mixed_read_write_pays_turnaround(self):
        ctl = MemoryController(SPEC)
        ro = ctl.service(
            [
                StreamDemand(bytes_total=1 << 20, transaction_bytes=512),
                StreamDemand(bytes_total=1 << 20, transaction_bytes=512),
            ]
        )
        rw = ctl.service(
            [
                StreamDemand(bytes_total=1 << 20, transaction_bytes=512),
                StreamDemand(bytes_total=1 << 20, transaction_bytes=512, is_write=True),
            ]
        )
        assert rw.seconds > ro.seconds

    def test_many_streams_conflict(self):
        ctl = MemoryController(SPEC)
        few = ctl.service(
            [StreamDemand(bytes_total=1 << 18, transaction_bytes=64)] * 2
        )
        many = ctl.service(
            [StreamDemand(bytes_total=(1 << 19) // 32, transaction_bytes=64)] * 32
        )
        assert many.efficiency < few.efficiency

    def test_random_stream_worse_than_sequential(self):
        ctl = MemoryController(SPEC)
        seq = ctl.service(
            [StreamDemand(bytes_total=1 << 20, transaction_bytes=64)]
        )
        rand = ctl.service(
            [StreamDemand(bytes_total=1 << 20, transaction_bytes=64, sequential=False)]
        )
        assert rand.seconds > seq.seconds

    def test_empty_streams_rejected(self):
        with pytest.raises(InvalidValueError):
            MemoryController(SPEC).service([])

    def test_zero_bytes(self):
        res = MemoryController(SPEC).service(
            [StreamDemand(bytes_total=0, transaction_bytes=64)]
        )
        assert res.seconds == 0.0


class TestPcie:
    def test_peak_below_raw(self):
        link = PcieLink(generation=3, lanes=8)
        assert link.peak_bandwidth < link.raw_bandwidth
        assert link.peak_bandwidth == pytest.approx(
            link.raw_bandwidth * link.protocol_efficiency
        )

    def test_small_transfers_latency_bound(self):
        link = PcieLink(generation=3, lanes=8, latency=10e-6)
        assert link.effective_bandwidth(1024) < 0.05 * link.peak_bandwidth

    def test_large_transfers_approach_peak(self):
        link = PcieLink(generation=3, lanes=8, latency=10e-6)
        assert link.effective_bandwidth(256 * 1024 * 1024) > 0.95 * link.peak_bandwidth

    def test_monotone_in_size(self):
        link = PcieLink()
        sizes = [2**k for k in range(10, 28, 2)]
        bws = [link.effective_bandwidth(s) for s in sizes]
        assert bws == sorted(bws)

    def test_gen_and_lane_scaling(self):
        assert (
            PcieLink(generation=3, lanes=16).peak_bandwidth
            > PcieLink(generation=3, lanes=8).peak_bandwidth
        )
        assert (
            PcieLink(generation=3, lanes=8).peak_bandwidth
            > PcieLink(generation=2, lanes=8).peak_bandwidth
        )

    def test_invalid_config(self):
        with pytest.raises(InvalidValueError):
            PcieLink(generation=9)
        with pytest.raises(InvalidValueError):
            PcieLink(lanes=3)
        with pytest.raises(InvalidValueError):
            PcieLink().transfer_time(-1)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(16, 512),
    stride=st.sampled_from([64, 128, 1024, 4096]),
)
def test_dram_time_components_consistent(n, stride):
    """Property: total = max(data, command); hits+misses = transactions."""
    addrs = np.arange(n, dtype=np.int64) * stride
    t = simulate_dram(SPEC, addrs, 64)
    assert t.seconds == pytest.approx(max(t.data_seconds, t.command_seconds))
    assert t.row_hits + t.row_misses == n


@settings(max_examples=30, deadline=None)
@given(n=st.integers(256, 2048))
def test_contiguous_never_slower_than_scattered(n):
    # large enough that the sequential stream spreads across banks
    contig = np.arange(n, dtype=np.int64) * 64
    rng = np.random.default_rng(n)
    scattered = rng.integers(0, 2**28, n) * 64
    t_c = simulate_dram(SPEC, contig, 64)
    t_s = simulate_dram(SPEC, scattered, 64)
    assert t_c.seconds <= t_s.seconds * 1.01
    assert t_c.row_hit_ratio >= t_s.row_hit_ratio
