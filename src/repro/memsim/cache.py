"""Set-associative cache geometry.

:class:`CacheConfig` describes one cache level of a device spec. The
device models never simulate the cache line by line: they ask whether a
stream's reuse window fits :attr:`CacheConfig.effective_bytes`, and
price hits and misses in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import InvalidValueError

__all__ = ["CacheConfig"]


def _is_pow2(x: int) -> bool:
    return x > 0 and (x & (x - 1)) == 0


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one cache level."""

    capacity_bytes: int
    line_bytes: int = 64
    ways: int = 8

    def __post_init__(self) -> None:
        if not _is_pow2(self.line_bytes):
            raise InvalidValueError(f"line size must be a power of two: {self.line_bytes}")
        if self.ways <= 0:
            raise InvalidValueError(f"ways must be positive: {self.ways}")
        if self.capacity_bytes % (self.line_bytes * self.ways):
            raise InvalidValueError(
                f"capacity {self.capacity_bytes} is not divisible by "
                f"line*ways = {self.line_bytes * self.ways}"
            )

    @property
    def effective_bytes(self) -> float:
        """Capacity a cyclic LRU walk can reuse without conflict misses.

        Half a way per set is kept as slack, so a working set this size
        or smaller stays resident across passes.
        """
        return self.capacity_bytes * (1.0 - 1.0 / (2 * self.ways))
