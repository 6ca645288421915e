"""Device memory objects.

A :class:`Buffer` is a linear allocation in a context, backed by a
numpy array that plays the role of both the host shadow copy and the
device storage (the functional simulation has a single address space).
What *is* modelled faithfully is **residency**: reads/writes through a
queue move the buffer across the simulated PCIe link and the event
timing reflects it, which is how MP-STREAM's host↔device stream mode
measures interconnect bandwidth.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING

import numpy as np

from ..errors import InvalidOperationError, InvalidValueError

if TYPE_CHECKING:  # pragma: no cover
    from .context import Context

__all__ = ["MemFlags", "Buffer"]


class MemFlags(enum.Flag):
    """Subset of cl_mem_flags that affects behaviour we model."""

    READ_WRITE = enum.auto()
    READ_ONLY = enum.auto()
    WRITE_ONLY = enum.auto()
    COPY_HOST_PTR = enum.auto()

    @staticmethod
    def default() -> "MemFlags":
        return MemFlags.READ_WRITE


class Buffer:
    """A linear memory object.

    Parameters
    ----------
    context:
        Owning context.
    size:
        Size in bytes; the buffer starts zeroed.
    flags:
        Access flags; kernels writing a READ_ONLY buffer raise.
    hostbuf:
        Initial contents (implies ``COPY_HOST_PTR``); copied, as in
        OpenCL, so later host-side mutation of the source array does
        not affect the device copy.
    storage:
        A 1-D ``uint8`` array the buffer adopts as its device storage,
        without copying or clearing it. The buffer is device-resident,
        exactly like one made by ``size`` of ``storage.size`` bytes.

    Exactly one of ``size``, ``hostbuf`` and ``storage`` is given.
    """

    def __init__(
        self,
        context: "Context",
        *,
        size: int | None = None,
        flags: MemFlags = MemFlags.READ_WRITE,
        hostbuf: np.ndarray | None = None,
        storage: np.ndarray | None = None,
    ):
        if sum(x is not None for x in (size, hostbuf, storage)) != 1:
            raise InvalidValueError(
                "specify exactly one of size=, hostbuf= or storage="
            )
        if hostbuf is not None:
            arr = np.ascontiguousarray(hostbuf).reshape(-1)
            self._storage = arr.copy()
            flags |= MemFlags.COPY_HOST_PTR
        elif storage is not None:
            if (
                storage.dtype != np.uint8
                or storage.ndim != 1
                or not storage.flags.c_contiguous
                or not storage.size
            ):
                raise InvalidValueError(
                    "storage= must be a non-empty contiguous 1-D uint8 array"
                )
            self._storage = storage
        else:
            if size is None or size <= 0:
                raise InvalidValueError(f"buffer size must be positive, got {size}")
            self._storage = np.zeros(int(size), dtype=np.uint8)
        self._size = int(self._storage.nbytes)
        self.context = context
        self.flags = flags
        self._released = False
        #: where the authoritative copy lives; queue transfers flip this
        self.residency: str = "device" if hostbuf is None else "host"
        context._register_buffer(self)

    # -- introspection ---------------------------------------------------------

    @property
    def size(self) -> int:
        """Size in bytes."""
        return self._size

    @property
    def released(self) -> bool:
        return self._released

    def view(self, dtype: np.dtype | str) -> np.ndarray:
        """A typed view of the buffer's storage (device-side pointer)."""
        self._check_alive()
        dt = np.dtype(dtype)
        if self._size % dt.itemsize:
            raise InvalidValueError(
                f"buffer of {self._size} bytes is not a whole number of {dt} items"
            )
        return self._storage.view(dt)

    def writable(self) -> bool:
        return not (self.flags & MemFlags.READ_ONLY)

    def readable(self) -> bool:
        return not (self.flags & MemFlags.WRITE_ONLY)

    # -- lifecycle ----------------------------------------------------------------

    def release(self) -> None:
        """Free the buffer; further use raises (mirrors clReleaseMemObject)."""
        self._released = True

    def _check_alive(self) -> None:
        if self._released:
            raise InvalidOperationError("use of a released buffer")

    def __repr__(self) -> str:  # pragma: no cover - cosmetics
        state = "released" if self._released else self.residency
        return f"<Buffer {self._size}B {state}>"
