"""DRAM channel/bank/row-buffer timing.

The model captures the two effects MP-STREAM exposes:

* **data-limited** transfers: moving ``bytes`` over the channels' pins
  takes ``bytes / peak_bandwidth`` at best;
* **command-limited** transfers: every transaction that lands in a
  different row of a busy bank pays an activate/precharge penalty
  (``tRP + tRCD``), partially hidden by bank-level parallelism.

Streams of long bursts are data-limited (near-peak efficiency); streams
of isolated small transactions are command-limited, which is what makes
strided access collapse — on every target, but hardest on the FPGAs
whose LSUs emit one transaction per element.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidValueError
from ..obs import metrics as obs_metrics

__all__ = ["DramSpec", "DramTiming", "simulate_dram", "row_locality_efficiency"]


@dataclass(frozen=True)
class DramSpec:
    """One memory subsystem (all channels of a device)."""

    name: str
    channels: int
    banks_per_channel: int
    row_bytes: int
    #: peak bandwidth of ALL channels together, bytes/second
    peak_bandwidth: float
    #: activate-to-read plus precharge latency, seconds
    t_row_miss: float = 26e-9
    #: column access time between bursts to an open row, seconds
    t_row_hit: float = 5e-9
    #: smallest transfer DRAM performs (burst length x bus width)
    min_transaction_bytes: int = 64
    #: address interleave granularity across channels
    interleave_bytes: int = 256
    #: bus turnaround cost when switching between reads and writes
    t_rw_turnaround: float = 6e-9
    #: transactions the controller batches per direction before switching
    rw_batch: int = 16

    def __post_init__(self) -> None:
        if self.channels <= 0 or self.banks_per_channel <= 0:
            raise InvalidValueError("channels and banks must be positive")
        if self.peak_bandwidth <= 0:
            raise InvalidValueError("peak bandwidth must be positive")


@dataclass(frozen=True)
class DramTiming:
    """Result of timing a transaction trace."""

    seconds: float
    data_seconds: float
    command_seconds: float
    row_hits: int
    row_misses: int
    bytes_moved: int

    @property
    def achieved_bandwidth(self) -> float:
        return self.bytes_moved / self.seconds if self.seconds > 0 else 0.0

    @property
    def row_hit_ratio(self) -> float:
        total = self.row_hits + self.row_misses
        return self.row_hits / total if total else 0.0


def simulate_dram(
    spec: DramSpec,
    addresses: np.ndarray,
    sizes: np.ndarray | int,
) -> DramTiming:
    """Time a trace of transactions (byte ``addresses`` and ``sizes``).

    Transactions are assumed issued back-to-back (a saturating memory
    controller); the result is the *service* time, i.e. the inverse of
    sustained bandwidth.
    """
    addrs = np.asarray(addresses, dtype=np.int64)
    if np.isscalar(sizes):
        sizes_arr = np.full(addrs.shape, int(sizes), dtype=np.int64)
    else:
        sizes_arr = np.asarray(sizes, dtype=np.int64)
        if sizes_arr.shape != addrs.shape:
            raise InvalidValueError("addresses and sizes must have the same shape")
    if addrs.size == 0:
        return DramTiming(0.0, 0.0, 0.0, 0, 0, 0)
    sizes_arr = np.maximum(sizes_arr, spec.min_transaction_bytes)

    channel = (addrs // spec.interleave_bytes) % spec.channels
    bank = (addrs // spec.row_bytes) % spec.banks_per_channel
    row = addrs // (spec.row_bytes * spec.banks_per_channel)

    # Row transitions per (channel, bank): sort by bank stream, count row
    # changes in original access order within each bank.
    key = channel * spec.banks_per_channel + bank
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    sorted_row = row[order]
    boundary = np.empty(addrs.size, dtype=bool)
    boundary[0] = True
    np.not_equal(sorted_key[1:], sorted_key[:-1], out=boundary[1:])
    row_change = np.empty(addrs.size, dtype=bool)
    row_change[0] = True
    np.not_equal(sorted_row[1:], sorted_row[:-1], out=row_change[1:])
    misses_mask = boundary | row_change
    row_misses = int(np.count_nonzero(misses_mask))
    row_hits = int(addrs.size - row_misses)

    total_bytes = int(sizes_arr.sum())
    data_seconds = total_bytes / spec.peak_bandwidth

    # Bank-level parallelism hides activation latency: overlapping across
    # however many distinct banks the trace actually touches.
    distinct_banks = max(1, int(np.unique(key).size))
    overlap = min(distinct_banks, spec.banks_per_channel * spec.channels)
    command_seconds = (
        row_misses * spec.t_row_miss + row_hits * spec.t_row_hit
    ) / overlap

    seconds = max(data_seconds, command_seconds)
    if obs_metrics.active_registry() is not None:
        obs_metrics.count("memsim.dram.transactions", int(addrs.size))
        obs_metrics.count("memsim.dram.bytes", total_bytes)
        obs_metrics.count("memsim.dram.row_hits", row_hits)
        obs_metrics.count("memsim.dram.row_misses", row_misses)
        obs_metrics.count("memsim.dram.seconds", seconds)
    return DramTiming(
        seconds=seconds,
        data_seconds=data_seconds,
        command_seconds=command_seconds,
        row_hits=row_hits,
        row_misses=row_misses,
        bytes_moved=total_bytes,
    )


def row_locality_efficiency(
    spec: DramSpec,
    transaction_bytes: float,
    *,
    row_hit_ratio: float = 0.0,
    parallelism: int | None = None,
) -> float:
    """Analytic sustained/peak efficiency for uniform transactions.

    Each transaction moves ``transaction_bytes`` and pays a row miss
    with probability ``1 - row_hit_ratio``; ``parallelism`` is how many
    banks overlap their activates (defaults to all banks). This is the
    closed form of :func:`simulate_dram` for a homogeneous trace; the
    tests verify the two agree.
    """
    if transaction_bytes <= 0:
        raise InvalidValueError("transaction size must be positive")
    if not 0.0 <= row_hit_ratio <= 1.0:
        raise InvalidValueError("row_hit_ratio must be within [0, 1]")
    tx = max(float(transaction_bytes), float(spec.min_transaction_bytes))
    if parallelism is None:
        parallelism = spec.banks_per_channel * spec.channels
    parallelism = max(1, parallelism)
    t_data = tx / spec.peak_bandwidth
    t_cmd = (
        (1.0 - row_hit_ratio) * spec.t_row_miss + row_hit_ratio * spec.t_row_hit
    ) / parallelism
    return t_data / max(t_data, t_cmd)
