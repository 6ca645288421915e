"""Cache geometry: spec validation and the effective capacity."""

from __future__ import annotations

import pytest

from repro.errors import InvalidValueError
from repro.memsim.cache import CacheConfig


class TestConfig:
    def test_geometry(self):
        cfg = CacheConfig(capacity_bytes=8192, line_bytes=64, ways=4)
        # half a way per set held back as conflict slack: 8192 * 7/8
        assert cfg.effective_bytes == 7168.0

    def test_line_must_be_pow2(self):
        with pytest.raises(InvalidValueError):
            CacheConfig(capacity_bytes=8192, line_bytes=48)

    def test_capacity_divisibility(self):
        with pytest.raises(InvalidValueError):
            CacheConfig(capacity_bytes=1000, line_bytes=64, ways=4)
