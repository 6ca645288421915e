"""Functional interpreter for checked OpenCL-C kernels.

Executes every work-item of an NDRange sequentially against numpy
buffers, with C/OpenCL evaluation semantics (wrap-around integer
arithmetic on fixed-width types, truncating division, elementwise
vector operations). This is the *semantic reference*: the fast
whole-NDRange array lane (:mod:`repro.oclc.vectorize`) is validated
against it, and the device performance models never touch data at all.

Floating-point association: binary operators evaluate as per-element
NumPy ufuncs in source association — one IEEE-754 rounding per
operation, no fused multiply-add — which makes the interpreter bitwise
comparable to the NumPy host-stream reference. The pinned ULP budgets
for those comparisons live in :mod:`repro.verify.tolerance` (see its
audit note).

Work-item execution order is a deterministic linear sweep of the global
range; STREAM-style kernels are embarrassingly parallel so order does
not matter, but a barrier inside a loop would — the interpreter rejects
``barrier`` calls to stay honest about that limitation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from ..errors import InterpError
from ..ocl import types as T
from . import cast
from .semantic import (
    BUILTIN_MATH_FUNCTIONS,
    BUILTIN_VOID_FUNCTIONS,
    BUILTIN_WORKITEM_FUNCTIONS,
    CheckedProgram,
    swizzle_indices,
    vector_memory_builtin,
)

__all__ = ["BufferArg", "run_kernel", "KernelInterpreter"]

#: Refuse single runs above this many (work-items x loop iterations) to
#: keep accidental full-size interpretation from hanging a test session.
MAX_INTERPRETED_OPS = 50_000_000


@dataclass
class BufferArg:
    """A global-memory kernel argument backed by a numpy array.

    ``array`` must be 1-D with the scalar dtype of the parameter's
    pointee element type; vector-typed parameters view the same flat
    array in lane-sized groups, exactly like OpenCL buffer aliasing.
    """

    array: np.ndarray

    def __post_init__(self) -> None:
        if self.array.ndim != 1:
            raise InterpError("buffer arguments must be 1-D arrays")


class _BreakSignal(Exception):
    pass


class _ContinueSignal(Exception):
    pass


class _ReturnSignal(Exception):
    def __init__(self, value: object = None):
        self.value = value


def run_kernel(
    program: CheckedProgram,
    kernel_name: str,
    global_size: tuple[int, ...],
    args: Mapping[str, object],
    local_size: tuple[int, ...] | None = None,
) -> None:
    """Execute ``kernel_name`` over ``global_size`` with ``args``.

    Buffer parameters take :class:`BufferArg` (mutated in place);
    scalar parameters take Python/numpy scalars.
    """
    KernelInterpreter(program, kernel_name).run(global_size, args, local_size)


class KernelInterpreter:
    """Interprets one kernel of a checked program."""

    def __init__(self, program: CheckedProgram, kernel_name: str | None = None):
        self.program = program
        self.kernel = program.kernel(kernel_name)
        self.param_types = program.param_types[self.kernel.name]

    # -- public API -----------------------------------------------------------

    def run(
        self,
        global_size: tuple[int, ...],
        args: Mapping[str, object],
        local_size: tuple[int, ...] | None = None,
    ) -> None:
        global_size = tuple(int(g) for g in global_size)
        if not 1 <= len(global_size) <= 3:
            raise InterpError(f"NDRange must be 1-3 dimensional, got {global_size}")
        if any(g <= 0 for g in global_size):
            raise InterpError(f"NDRange dimensions must be positive: {global_size}")
        if local_size is None:
            local_size = tuple(1 for _ in global_size)
        local_size = tuple(int(x) for x in local_size)
        if len(local_size) != len(global_size):
            raise InterpError("local_size dimensionality must match global_size")
        for g, l in zip(global_size, local_size):
            if l <= 0 or g % l != 0:
                raise InterpError(
                    f"local size {local_size} does not divide global size {global_size}"
                )
        total = int(np.prod(global_size))
        if total > MAX_INTERPRETED_OPS:
            raise InterpError(
                f"refusing to interpret {total} work-items "
                f"(cap {MAX_INTERPRETED_OPS}); use the specialized path"
            )
        base_env = self._bind_args(args)
        ndim = len(global_size)
        for flat in range(total):
            gid = []
            rem = flat
            for d in range(ndim):
                gid.append(rem % global_size[d])
                rem //= global_size[d]
            self._run_work_item(tuple(gid), global_size, local_size, base_env)

    # -- argument binding -------------------------------------------------------

    def _bind_args(self, args: Mapping[str, object]) -> dict[str, object]:
        env: dict[str, object] = {}
        missing = set(self.param_types) - set(args)
        extra = set(args) - set(self.param_types)
        if missing:
            raise InterpError(f"missing kernel arguments: {sorted(missing)}")
        if extra:
            raise InterpError(f"unknown kernel arguments: {sorted(extra)}")
        for name, ty in self.param_types.items():
            value = args[name]
            if isinstance(ty, T.PointerType):
                if not isinstance(value, BufferArg):
                    raise InterpError(
                        f"argument {name!r} must be a BufferArg, got {type(value).__name__}"
                    )
                pointee = ty.pointee
                if isinstance(pointee, (T.ScalarType, T.VectorType)):
                    want = pointee.dtype
                    if value.array.dtype != want:
                        raise InterpError(
                            f"argument {name!r}: buffer dtype {value.array.dtype} "
                            f"does not match element type {pointee} ({want})"
                        )
                env[name] = _Pointer(value.array, pointee)
            else:
                if isinstance(value, BufferArg):
                    raise InterpError(f"argument {name!r} is scalar, got a buffer")
                env[name] = _coerce(value, ty)
        return env

    # -- per-work-item execution -------------------------------------------------

    def _run_work_item(
        self,
        gid: tuple[int, ...],
        global_size: tuple[int, ...],
        local_size: tuple[int, ...],
        base_env: dict[str, object],
    ) -> None:
        env = _Env(dict(base_env))
        evaluator = _Evaluator(
            self.program, env, gid, global_size, local_size
        )
        try:
            evaluator.exec_stmt(self.kernel.body)
        except _ReturnSignal:
            pass


@dataclass
class _Pointer:
    """A typed view of a flat numpy buffer."""

    array: np.ndarray
    element: T.Type

    def load(self, index: int) -> object:
        el = self.element
        if isinstance(el, T.VectorType):
            start = index * el.width
            self._bounds(start, el.width)
            return self.array[start : start + el.width].copy()
        self._bounds(index, 1)
        return self.array[index]

    def store(self, index: int, value: object) -> None:
        el = self.element
        if isinstance(el, T.VectorType):
            start = index * el.width
            self._bounds(start, el.width)
            self.array[start : start + el.width] = value
        else:
            self._bounds(index, 1)
            self.array[index] = value

    def _bounds(self, start: int, count: int) -> None:
        if start < 0 or start + count > self.array.size:
            raise InterpError(
                f"out-of-bounds access: element {start} (+{count}) of "
                f"buffer with {self.array.size} elements"
            )


class _Env:
    def __init__(self, values: dict[str, object]):
        self._stack: list[dict[str, object]] = [values]

    def push(self) -> None:
        self._stack.append({})

    def pop(self) -> None:
        self._stack.pop()

    def declare(self, name: str, value: object) -> None:
        self._stack[-1][name] = value

    def get(self, name: str) -> object:
        for frame in reversed(self._stack):
            if name in frame:
                return frame[name]
        raise InterpError(f"unbound identifier {name!r}")

    def set(self, name: str, value: object) -> None:
        for frame in reversed(self._stack):
            if name in frame:
                frame[name] = value
                return
        raise InterpError(f"unbound identifier {name!r}")


def _coerce(value: object, ty: T.Type) -> object:
    """Convert a Python/numpy value to the numpy representation of ``ty``."""
    if isinstance(ty, T.VectorType):
        arr = np.asarray(value, dtype=ty.dtype)
        if arr.shape == ():
            arr = np.full(ty.width, arr)
        if arr.shape != (ty.width,):
            raise InterpError(f"cannot coerce shape {arr.shape} to {ty}")
        return arr
    if isinstance(ty, T.ScalarType):
        with np.errstate(over="ignore", invalid="ignore"):
            if isinstance(value, np.ndarray) and value.shape != ():
                raise InterpError(f"cannot coerce array to scalar {ty}")
            return ty.dtype.type(value)
    raise InterpError(f"cannot coerce to {ty}")


_MATH_IMPL: dict[str, Callable[..., object]] = {
    "min": np.minimum,
    "max": np.maximum,
    "clamp": lambda x, lo, hi: np.minimum(np.maximum(x, lo), hi),
    "fabs": np.abs,
    "abs": np.abs,
    "sqrt": np.sqrt,
    "exp": np.exp,
    "log": np.log,
    "floor": np.floor,
    "ceil": np.ceil,
    "fma": lambda a, b, c: a * b + c,
    "mad": lambda a, b, c: a * b + c,
    "mul24": lambda a, b: a * b,
    "mad24": lambda a, b, c: a * b + c,
}


class _Evaluator:
    """Statement/expression evaluation for one work-item."""

    def __init__(
        self,
        program: CheckedProgram,
        env: _Env,
        gid: tuple[int, ...],
        global_size: tuple[int, ...],
        local_size: tuple[int, ...],
    ):
        self.program = program
        self.env = env
        self.gid = gid
        self.global_size = global_size
        self.local_size = local_size
        self._ops = 0
        self._depth = 0

    # -- statements ----------------------------------------------------------

    def exec_stmt(self, stmt: cast.Stmt) -> None:
        if isinstance(stmt, cast.Block):
            self.env.push()
            try:
                for s in stmt.body:
                    self.exec_stmt(s)
            finally:
                self.env.pop()
        elif isinstance(stmt, cast.DeclStmt):
            ty = T.parse_type_name(stmt.type_name)
            if stmt.init is not None:
                value = _coerce(self.eval(stmt.init), ty)
            elif isinstance(ty, T.VectorType):
                value = np.zeros(ty.width, dtype=ty.dtype)
            else:
                value = _coerce(0, ty)
            self.env.declare(stmt.name, value)
        elif isinstance(stmt, cast.ExprStmt):
            self.eval(stmt.expr)
        elif isinstance(stmt, cast.If):
            if self._truthy(self.eval(stmt.cond)):
                self.exec_stmt(stmt.then)
            elif stmt.other is not None:
                self.exec_stmt(stmt.other)
        elif isinstance(stmt, cast.For):
            self.env.push()
            try:
                if stmt.init is not None:
                    self.exec_stmt(stmt.init)
                while stmt.cond is None or self._truthy(self.eval(stmt.cond)):
                    self._tick()
                    try:
                        self.exec_stmt(stmt.body)
                    except _BreakSignal:
                        break
                    except _ContinueSignal:
                        pass
                    if stmt.step is not None:
                        self.eval(stmt.step)
            finally:
                self.env.pop()
        elif isinstance(stmt, cast.While):
            while self._truthy(self.eval(stmt.cond)):
                self._tick()
                try:
                    self.exec_stmt(stmt.body)
                except _BreakSignal:
                    break
                except _ContinueSignal:
                    continue
        elif isinstance(stmt, cast.Return):
            raise _ReturnSignal(
                self.eval(stmt.value) if stmt.value is not None else None
            )
        elif isinstance(stmt, cast.Break):
            raise _BreakSignal()
        elif isinstance(stmt, cast.Continue):
            raise _ContinueSignal()
        elif isinstance(stmt, cast.Pragma):
            pass
        else:  # pragma: no cover
            raise InterpError(f"unhandled statement {type(stmt).__name__}")

    def _tick(self) -> None:
        self._ops += 1
        if self._ops > MAX_INTERPRETED_OPS:
            raise InterpError(
                f"work-item exceeded {MAX_INTERPRETED_OPS} loop iterations"
            )

    @staticmethod
    def _truthy(value: object) -> bool:
        return bool(value)

    # -- expressions ----------------------------------------------------------

    def eval(self, expr: cast.Expr) -> object:
        if isinstance(expr, cast.IntLiteral):
            return _coerce(expr.value, self.program.type_of(expr))
        if isinstance(expr, cast.FloatLiteral):
            return _coerce(expr.value, self.program.type_of(expr))
        if isinstance(expr, cast.Ident):
            return self.env.get(expr.name)
        if isinstance(expr, cast.Unary):
            return self._unary(expr)
        if isinstance(expr, cast.Binary):
            left = self.eval(expr.left)
            right = self.eval(expr.right)
            return self._binary(expr.op, left, right, self.program.type_of(expr))
        if isinstance(expr, cast.Assign):
            return self._assign(expr)
        if isinstance(expr, cast.Conditional):
            if self._truthy(self.eval(expr.cond)):
                value = self.eval(expr.then)
            else:
                value = self.eval(expr.other)
            return _coerce(value, self.program.type_of(expr))
        if isinstance(expr, cast.Call):
            return self._call(expr)
        if isinstance(expr, cast.Index):
            ptr = self.eval(expr.base)
            if not isinstance(ptr, _Pointer):
                raise InterpError("indexing a non-pointer value", line=expr.line)
            index = int(self.eval(expr.index))  # type: ignore[arg-type]
            return ptr.load(index)
        if isinstance(expr, cast.Swizzle):
            base = self.eval(expr.base)
            base_ty = self.program.type_of(expr.base)
            if not isinstance(base_ty, T.VectorType):
                raise InterpError("swizzle of non-vector", line=expr.line)
            indices = swizzle_indices(expr.components, base_ty.width, expr.line)
            arr = np.asarray(base)
            if len(indices) == 1:
                return arr[indices[0]]
            return arr[list(indices)].copy()
        if isinstance(expr, cast.Cast):
            return _coerce(self.eval(expr.operand), self.program.type_of(expr))
        if isinstance(expr, cast.VectorLiteral):
            ty = self.program.type_of(expr)
            assert isinstance(ty, T.VectorType)
            values = [self.eval(el) for el in expr.elements]
            if len(values) == 1:
                return np.full(ty.width, values[0], dtype=ty.dtype)
            return np.array(values, dtype=ty.dtype)
        raise InterpError(f"unhandled expression {type(expr).__name__}", line=expr.line)

    def _unary(self, expr: cast.Unary) -> object:
        if expr.op in ("++", "--", "p++", "p--"):
            old = self.eval(expr.operand)
            ty = self.program.type_of(expr.operand)
            delta = 1 if "+" in expr.op else -1
            with np.errstate(over="ignore"):
                new = _coerce(old + delta, ty)  # type: ignore[operator]
            self._store(expr.operand, new)
            return old if expr.op.startswith("p") else new
        value = self.eval(expr.operand)
        ty = self.program.type_of(expr)
        with np.errstate(over="ignore"):
            if expr.op == "-":
                return _coerce(-value, ty)  # type: ignore[operator]
            if expr.op == "+":
                return value
            if expr.op == "!":
                return _coerce(0 if self._truthy(value) else 1, T.INT)
            if expr.op == "~":
                return _coerce(~np.asarray(value), ty)
        raise InterpError(f"unhandled unary {expr.op}", line=expr.line)

    def _binary(self, op: str, left: object, right: object, result_ty: T.Type) -> object:
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            if op == "&&":
                return _coerce(1 if (self._truthy(left) and self._truthy(right)) else 0, T.INT)
            if op == "||":
                return _coerce(1 if (self._truthy(left) or self._truthy(right)) else 0, T.INT)
            if op in ("==", "!=", "<", ">", "<=", ">="):
                fn = {
                    "==": np.equal,
                    "!=": np.not_equal,
                    "<": np.less,
                    ">": np.greater,
                    "<=": np.less_equal,
                    ">=": np.greater_equal,
                }[op]
                raw = fn(left, right)
                if isinstance(result_ty, T.VectorType):
                    # OpenCL: true lanes are -1
                    return (-raw.astype(result_ty.dtype))  # type: ignore[union-attr]
                return _coerce(1 if raw else 0, T.INT)
            if op == "+":
                raw = np.add(left, right)
            elif op == "-":
                raw = np.subtract(left, right)
            elif op == "*":
                raw = np.multiply(left, right)
            elif op == "/":
                raw = self._divide(left, right, result_ty)
            elif op == "%":
                raw = self._modulo(left, right)
            elif op == "&":
                raw = np.bitwise_and(left, right)
            elif op == "|":
                raw = np.bitwise_or(left, right)
            elif op == "^":
                raw = np.bitwise_xor(left, right)
            elif op == "<<":
                raw = np.left_shift(left, right)
            elif op == ">>":
                raw = np.right_shift(left, right)
            else:
                raise InterpError(f"unhandled binary {op}")
            return _coerce(raw, result_ty)

    @staticmethod
    def _divide(left: object, right: object, result_ty: T.Type) -> object:
        if result_ty.is_float():
            return np.divide(left, right)
        la = np.asarray(left, dtype=np.int64)
        ra = np.asarray(right, dtype=np.int64)
        if np.any(ra == 0):
            raise InterpError("integer division by zero")
        # C semantics: truncate toward zero.
        return (np.sign(la) * np.sign(ra)) * (np.abs(la) // np.abs(ra))

    @staticmethod
    def _modulo(left: object, right: object) -> object:
        la = np.asarray(left, dtype=np.int64)
        ra = np.asarray(right, dtype=np.int64)
        if np.any(ra == 0):
            raise InterpError("integer modulo by zero")
        return la - (np.sign(la) * np.sign(ra)) * (np.abs(la) // np.abs(ra)) * ra

    def _assign(self, expr: cast.Assign) -> object:
        value = self.eval(expr.value)
        target_ty = self.program.type_of(expr.target)
        if expr.op != "=":
            current = self.eval(expr.target)
            value = self._binary(expr.op[:-1], current, value, target_ty)
        value = _coerce(value, target_ty)
        self._store(expr.target, value)
        return value

    def _store(self, target: cast.Expr, value: object) -> None:
        if isinstance(target, cast.Ident):
            self.env.set(target.name, value)
        elif isinstance(target, cast.Index):
            ptr = self.eval(target.base)
            if not isinstance(ptr, _Pointer):
                raise InterpError("store through non-pointer", line=target.line)
            index = int(self.eval(target.index))  # type: ignore[arg-type]
            ptr.store(index, value)
        elif isinstance(target, cast.Swizzle):
            base_ty = self.program.type_of(target.base)
            if not isinstance(base_ty, T.VectorType):
                raise InterpError("swizzle store on non-vector", line=target.line)
            vec = np.asarray(self.eval(target.base)).copy()
            indices = swizzle_indices(target.components, base_ty.width, target.line)
            vec[list(indices)] = value
            self._store(target.base, vec)
        else:
            raise InterpError("invalid store target", line=target.line)

    def _call(self, expr: cast.Call) -> object:
        name = expr.func
        if name in BUILTIN_WORKITEM_FUNCTIONS:
            if name == "get_work_dim":
                return _coerce(len(self.global_size), T.UINT)
            dim = int(self.eval(expr.args[0]))  # type: ignore[arg-type]
            if dim >= len(self.global_size):
                # OpenCL returns 1/0 for out-of-range dims; mirror that.
                table = {
                    "get_global_id": 0,
                    "get_local_id": 0,
                    "get_group_id": 0,
                    "get_global_size": 1,
                    "get_local_size": 1,
                    "get_num_groups": 1,
                }
                return _coerce(table[name], T.SIZE_T)
            values = {
                "get_global_id": self.gid[dim],
                "get_local_id": self.gid[dim] % self.local_size[dim],
                "get_group_id": self.gid[dim] // self.local_size[dim],
                "get_global_size": self.global_size[dim],
                "get_local_size": self.local_size[dim],
                "get_num_groups": self.global_size[dim] // self.local_size[dim],
            }
            return _coerce(values[name], T.SIZE_T)
        if name in BUILTIN_MATH_FUNCTIONS:
            args = [self.eval(a) for a in expr.args]
            with np.errstate(over="ignore", invalid="ignore"):
                raw = _MATH_IMPL[name](*args)
            return _coerce(raw, self.program.type_of(expr))
        if name in BUILTIN_VOID_FUNCTIONS:
            raise InterpError(
                f"{name}() is not supported by the sequential interpreter "
                "(work-items run to completion one at a time)",
                line=expr.line,
            )
        vec_mem = vector_memory_builtin(name)
        if vec_mem is not None:
            return self._vector_memory(expr, vec_mem)
        return self._call_user_function(expr)

    def _vector_memory(self, expr: cast.Call, vec_mem: tuple[str, int]) -> object:
        """Execute vloadN / vstoreN against a scalar buffer."""
        kind, width = vec_mem
        if kind == "load":
            offset = int(self.eval(expr.args[0]))  # type: ignore[arg-type]
            ptr = self.eval(expr.args[1])
        else:
            data = self.eval(expr.args[0])
            offset = int(self.eval(expr.args[1]))  # type: ignore[arg-type]
            ptr = self.eval(expr.args[2])
        if not isinstance(ptr, _Pointer):
            raise InterpError("vload/vstore needs a buffer pointer", line=expr.line)
        start = offset * width
        if start < 0 or start + width > ptr.array.size:
            raise InterpError(
                f"vload/vstore out of bounds: elements {start}..{start + width} "
                f"of {ptr.array.size}",
                line=expr.line,
            )
        if kind == "load":
            return ptr.array[start : start + width].copy()
        ptr.array[start : start + width] = np.asarray(data)
        return None

    _MAX_CALL_DEPTH = 64

    def _call_user_function(self, expr: cast.Call) -> object:
        """Call a helper function defined in the same translation unit."""
        func = next(
            (
                f
                for f in self.program.unit.functions
                if f.name == expr.func and not f.is_kernel
            ),
            None,
        )
        if func is None:
            raise InterpError(f"unknown function {expr.func!r}", line=expr.line)
        if self._depth >= self._MAX_CALL_DEPTH:
            raise InterpError(
                f"call depth exceeded {self._MAX_CALL_DEPTH} "
                f"(recursive helper {expr.func!r}?)",
                line=expr.line,
            )
        param_types = self.program.param_types[func.name]
        frame: dict[str, object] = {}
        for param, arg in zip(func.params, expr.args):
            value = self.eval(arg)
            ty = param_types[param.name]
            if isinstance(ty, T.PointerType):
                if not isinstance(value, _Pointer):
                    raise InterpError(
                        f"argument {param.name!r} of {func.name!r} needs a buffer",
                        line=expr.line,
                    )
                frame[param.name] = value
            else:
                frame[param.name] = _coerce(value, ty)
        callee = _Evaluator(
            self.program,
            _Env(frame),
            self.gid,
            self.global_size,
            self.local_size,
        )
        callee._depth = self._depth + 1
        try:
            callee.exec_stmt(func.body)
        except _ReturnSignal as ret:
            if ret.value is None:
                return None
            ret_ty = (
                T.VOID
                if func.return_type == "void"
                else T.parse_type_name(func.return_type)
            )
            if isinstance(ret_ty, (T.ScalarType, T.VectorType)):
                return _coerce(ret.value, ret_ty)
            return ret.value
        return None
