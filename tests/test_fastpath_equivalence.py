"""Differential property tests: memsim fast lanes vs their scalar oracles.

The vectorized memsim lanes (batch cache simulation, batched
coalescers) are only allowed to exist because the scalar paths remain
as oracles. These tests pin the contract **bit-for-bit**:

* ``Cache.access_batch`` must produce identical stats, identical
  per-access miss masks *and* identical final LRU state to the scalar
  per-access loop, over randomized geometries and trace styles —
  including state carried across mixed-lane call windows;
* the batched coalescers must equal the per-window scalar calls
  exactly, window by window.

The kernel-execution fast lane has its own gate against the
interpreter: ``tests/test_vectorize_equivalence.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import InvalidValueError
from repro.memsim import (
    Cache,
    CacheConfig,
    coalesce_fixed_groups,
    coalesce_fixed_groups_batch,
    coalesce_sequential,
    coalesce_sequential_batch,
)

# -- cache: batch lane == scalar lane -----------------------------------------

GEOMETRIES = [
    CacheConfig(capacity_bytes=32 * 1024, line_bytes=64, ways=1),
    CacheConfig(capacity_bytes=64 * 1024, line_bytes=64, ways=8),
    CacheConfig(capacity_bytes=256 * 1024, line_bytes=128, ways=16),
    CacheConfig(capacity_bytes=1024 * 1024, line_bytes=64, ways=4),
]


def _traces(rng: np.random.Generator, n: int):
    yield "unit_walk_2pass", np.tile(np.arange(n // 2, dtype=np.int64) * 4, 2)
    yield "unit_walk_4pass", np.tile(np.arange(n // 4, dtype=np.int64) * 8, 4)
    yield "strided", (np.arange(n, dtype=np.int64) * 256) % (1 << 22)
    yield "random", rng.integers(0, 1 << 24, n).astype(np.int64)
    third = n // 3
    a = np.arange(third, dtype=np.int64) * 8
    tri = np.empty(3 * third, dtype=np.int64)
    tri[0::3] = a
    tri[1::3] = a + (1 << 20)
    tri[2::3] = a + (1 << 21)
    yield "interleaved_triad", tri


@pytest.mark.parametrize("cfg", GEOMETRIES, ids=lambda c: f"{c.num_sets}x{c.ways}")
def test_cache_batch_matches_scalar_bit_for_bit(cfg, rng):
    for name, trace in _traces(rng, 9000):
        scalar_cache = Cache(cfg)
        batch_cache = Cache(cfg)
        scalar_stats = scalar_cache.access_scalar(trace)
        batch_stats = batch_cache.access_batch(trace)
        assert scalar_stats == batch_stats, name
        # the *state* must match too, or subsequent windows diverge
        assert scalar_cache._sets == batch_cache._sets, name


@pytest.mark.parametrize("cfg", GEOMETRIES[:2], ids=lambda c: f"{c.num_sets}x{c.ways}")
def test_cache_miss_masks_identical(cfg, rng):
    for name, trace in _traces(rng, 6000):
        scalar_cache = Cache(cfg)
        want = np.zeros(trace.size, dtype=bool)
        scalar_cache._access_scalar(*scalar_cache._split(trace), want)
        batch_cache = Cache(cfg)
        _, got = batch_cache._access_batch(*batch_cache._split(trace))
        assert np.array_equal(got, want), name
        # and access_masked agrees with whichever lane it picked
        masked_cache = Cache(cfg)
        _, picked = masked_cache.access_masked(trace)
        assert np.array_equal(picked, want), name


def test_cache_state_carries_across_mixed_lane_windows(rng):
    cfg = CacheConfig(capacity_bytes=64 * 1024, line_bytes=64, ways=8)
    scalar_cache = Cache(cfg)
    mixed_cache = Cache(cfg)
    for window, (name, trace) in enumerate(_traces(rng, 4800)):
        scalar_cache.access_scalar(trace)
        # alternate lanes so batch inherits scalar state and vice versa
        if window % 2:
            mixed_cache.access_scalar(trace)
        else:
            mixed_cache.access_batch(trace)
        assert scalar_cache.stats == mixed_cache.stats, name
        assert scalar_cache._sets == mixed_cache._sets, name


def test_cache_randomized_geometries_and_traces():
    rng = np.random.default_rng(77)
    for _ in range(12):
        ways = int(rng.choice([1, 2, 4, 8, 16]))
        line = int(rng.choice([32, 64, 128]))
        sets = int(rng.choice([8, 64, 512]))
        cfg = CacheConfig(capacity_bytes=sets * ways * line, line_bytes=line, ways=ways)
        n = int(rng.integers(500, 6000))
        style = rng.integers(0, 3)
        if style == 0:
            trace = np.arange(n, dtype=np.int64) * int(rng.choice([4, 8, 64]))
        elif style == 1:
            trace = rng.integers(0, 1 << 22, n).astype(np.int64)
        else:
            trace = np.tile(
                np.arange(n // 2, dtype=np.int64) * 4, 2
            )
        a, b = Cache(cfg), Cache(cfg)
        assert a.access_scalar(trace) == b.access_batch(trace)
        assert a._sets == b._sets


def test_cache_auto_dispatch_equals_oracle_either_way(rng):
    """Whatever lane access() picks, the result equals the oracle."""
    cfg = CacheConfig(capacity_bytes=64 * 1024, line_bytes=64, ways=8)
    big_walk = np.tile(np.arange(60_000, dtype=np.int64) * 4, 2)
    big_random = rng.integers(0, 1 << 24, 120_000).astype(np.int64)
    for trace in (big_walk, big_random):
        auto, oracle = Cache(cfg), Cache(cfg)
        assert auto.access(trace) == oracle.access_scalar(trace)
        assert auto._sets == oracle._sets


def test_cache_batch_rejects_negative_addresses():
    cfg = CacheConfig(capacity_bytes=64 * 1024, line_bytes=64, ways=8)
    with pytest.raises(InvalidValueError):
        Cache(cfg).access_batch(np.array([-64, 0, 64]))


# -- coalescers: batch == per-window ------------------------------------------


def test_coalesce_batch_matches_per_window(rng):
    stacks = {
        "unit": (np.arange(64, dtype=np.int64) * 4)[None, :]
        + (np.arange(50, dtype=np.int64) * 4096)[:, None],
        "random": rng.integers(0, 1 << 20, (50, 64)).astype(np.int64) * 4,
        "ragged_group": rng.integers(0, 1 << 20, (11, 100)).astype(np.int64) * 4,
    }
    for name, stack in stacks.items():
        for eb, fg_kw, sq_kw in [
            (4, {}, {}),
            (8, dict(group_size=16, segment_bytes=64), dict(max_burst_bytes=256)),
        ]:
            assert coalesce_fixed_groups_batch(stack, eb, **fg_kw) == [
                coalesce_fixed_groups(row, eb, **fg_kw) for row in stack
            ], name
            assert coalesce_sequential_batch(stack, eb, **sq_kw) == [
                coalesce_sequential(row, eb, **sq_kw) for row in stack
            ], name


def test_coalesce_batch_requires_2d():
    flat = np.arange(64, dtype=np.int64) * 4
    with pytest.raises(InvalidValueError):
        coalesce_fixed_groups_batch(flat, 4)
    with pytest.raises(InvalidValueError):
        coalesce_sequential_batch(flat, 4)
