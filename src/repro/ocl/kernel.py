"""Kernel objects: argument binding and launch validation."""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..errors import InvalidValueError, LaunchError
from .buffer import Buffer

if TYPE_CHECKING:  # pragma: no cover
    from .program import Program

__all__ = ["Kernel"]


class Kernel:
    """One kernel of a built program, with bound arguments.

    Arguments can be set positionally (``set_arg(0, buf)``) or by name
    (``set_args(a=buf_a, c=buf_c)``); both styles validate against the
    kernel's checked signature.
    """

    def __init__(self, program: "Program", name: str):
        assert program.checked is not None
        self.program = program
        self.name = name
        func = program.checked.kernel(name)  # raises KeyError for unknown names
        self.func = func
        self.param_types = program.checked.param_types[name]
        self.param_names = tuple(p.name for p in func.params)
        self._args: dict[str, object] = {}

    # -- argument binding ---------------------------------------------------------

    def set_arg(self, index: int, value: object) -> None:
        """Bind by position (clSetKernelArg analogue)."""
        if not 0 <= index < len(self.param_names):
            raise InvalidValueError(
                f"kernel {self.name!r} has {len(self.param_names)} arguments; "
                f"index {index} is out of range"
            )
        self._bind(self.param_names[index], value)

    def set_args(self, *positional: object, **named: object) -> "Kernel":
        """Bind several arguments at once; returns self for chaining."""
        if positional and len(positional) > len(self.param_names):
            raise InvalidValueError(
                f"too many positional arguments for kernel {self.name!r}"
            )
        for i, value in enumerate(positional):
            self._bind(self.param_names[i], value)
        for name, value in named.items():
            if name not in self.param_types:
                raise InvalidValueError(
                    f"kernel {self.name!r} has no parameter {name!r}"
                )
            self._bind(name, value)
        return self

    def _bind(self, name: str, value: object) -> None:
        from .types import PointerType

        ty = self.param_types[name]
        if isinstance(ty, PointerType):
            if not isinstance(value, Buffer):
                raise InvalidValueError(
                    f"parameter {name!r} is a buffer; got {type(value).__name__}"
                )
            value._check_alive()
            elem = ty.pointee
            if value.size % elem.size:
                raise InvalidValueError(
                    f"buffer of {value.size} bytes bound to {name!r} is not a "
                    f"whole number of {elem} elements ({elem.size} bytes)"
                )
        else:
            if isinstance(value, Buffer):
                raise InvalidValueError(f"parameter {name!r} is scalar; got a buffer")
            if not np.isscalar(value) and not isinstance(value, (int, float, np.generic)):
                raise InvalidValueError(
                    f"parameter {name!r}: cannot pass {type(value).__name__} by value"
                )
        self._args[name] = value

    # -- launch support --------------------------------------------------------------

    def bound_args(self) -> dict[str, object]:
        missing = [n for n in self.param_names if n not in self._args]
        if missing:
            raise LaunchError(
                f"kernel {self.name!r} launched with unbound arguments: {missing}"
            )
        return dict(self._args)

    def validate_launch(
        self,
        device: object,
        global_size: tuple[int, ...],
        local_size: tuple[int, ...] | None,
    ) -> None:
        if not 1 <= len(global_size) <= 3:
            raise LaunchError(f"NDRange must be 1-3D, got {global_size}")
        if any(int(g) <= 0 for g in global_size):
            raise LaunchError(f"NDRange sizes must be positive: {global_size}")
        reqd = next(
            (a for a in self.func.attributes if a.name == "reqd_work_group_size"),
            None,
        )
        if local_size is not None:
            if len(local_size) != len(global_size):
                raise LaunchError("local_size dimensionality must match global_size")
            for g, l in zip(global_size, local_size):
                if l <= 0 or g % l:
                    raise LaunchError(
                        f"local size {local_size} does not divide {global_size}"
                    )
            if reqd is not None:
                want = tuple(reqd.args)[: len(local_size)]
                if tuple(local_size) != want:
                    raise LaunchError(
                        f"kernel requires work-group size {want}, got {local_size}"
                    )

    def __repr__(self) -> str:  # pragma: no cover - cosmetics
        return f"<Kernel {self.name}({', '.join(self.param_names)})>"
