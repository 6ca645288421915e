"""Contexts: own buffers and tie devices together."""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..errors import InvalidValueError
from .buffer import Buffer, MemFlags

if TYPE_CHECKING:  # pragma: no cover
    from .platform import Device

__all__ = ["Context"]


class Context:
    """An OpenCL-style context over one or more devices."""

    def __init__(self, devices: "Device | Sequence[Device]"):
        from .platform import Device as _Device

        if isinstance(devices, _Device):
            devices = [devices]
        devices = tuple(devices)
        if not devices:
            raise InvalidValueError("a context needs at least one device")
        self.devices = devices
        self._buffers: list[Buffer] = []

    def create_buffer(
        self,
        *,
        size: int | None = None,
        flags: MemFlags = MemFlags.READ_WRITE,
        hostbuf: np.ndarray | None = None,
        storage: np.ndarray | None = None,
    ) -> Buffer:
        """Allocate a buffer (clCreateBuffer analogue).

        ``storage`` adopts an existing ``uint8`` array as the buffer's
        device storage (see :class:`Buffer`).
        """
        total_mem = min(d.global_mem_size for d in self.devices)
        if size is not None:
            nbytes = size
        else:
            nbytes = int(np.asarray(hostbuf if storage is None else storage).nbytes)
        if nbytes > total_mem:
            raise InvalidValueError(
                f"buffer of {nbytes} bytes exceeds device global memory "
                f"({total_mem} bytes)"
            )
        return Buffer(
            self, size=size, flags=flags, hostbuf=hostbuf, storage=storage
        )

    def _register_buffer(self, buffer: Buffer) -> None:
        self._buffers.append(buffer)

    @property
    def buffers(self) -> tuple[Buffer, ...]:
        return tuple(b for b in self._buffers if not b.released)

    def release_all(self) -> None:
        """Release every buffer created in this context."""
        for b in self._buffers:
            if not b.released:
                b.release()

    def prune_released(self) -> None:
        """Forget released buffers so a long-lived context (one sweep
        campaign reuses a single context across thousands of points)
        does not accumulate dead allocations."""
        self._buffers = [b for b in self._buffers if not b.released]

    def __enter__(self) -> "Context":
        return self

    def __exit__(self, *exc: object) -> None:
        self.release_all()
