"""Safety analysis and shared array primitives for the array lane.

The work-item interpreter (:mod:`repro.oclc.interp`) is the semantic
reference but runs one work-item at a time — far too slow for the
multi-megabyte arrays the benchmark uses. The array lane
(:mod:`repro.oclc.vectorize`) instead flattens the iteration domain
(NDRange × counted loop nest) and evaluates the innermost body once,
with every scalar replaced by a numpy array over the whole domain. This
module holds the two halves that lane is built on:

* :func:`specialize`, the safety analysis. It peels the counted loop
  nest into straight-line statements (:class:`SpecializedKernel`) and
  refuses (raises :class:`UnsupportedKernelError`) when array
  evaluation could diverge from sequential semantics:

  - data-dependent control flow (``if``/``while``/``break``) in the body,
  - a kernel that both reads and writes the same buffer argument,
  - loop-carried scalar state (a local read before it is written in the
    same iteration) other than a recognized sum reduction.

  Callers run the kernel on the interpreter in those cases.
* The array primitives (:func:`apply_binary`, :func:`cast_value`,
  :func:`reduce_sum`, :func:`launch_domain`, …): the C/OpenCL
  arithmetic rules (wrap-around integers, truncating division) over
  whole-domain arrays, whose operands the caller has already given a
  common shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..errors import UnsupportedKernelError
from ..ocl import types as T
from . import cast
from .analysis import KernelIR, LoopMode, analyze, flatten_domain
from .interp import BufferArg, trunc_div, trunc_mod
from .semantic import CheckedProgram

__all__ = ["SpecializedKernel", "specialize"]


def specialize(program: CheckedProgram, kernel_name: str | None = None) -> "SpecializedKernel":
    """Analyze the kernel for array evaluation, or raise if that is unsafe."""
    ir = analyze(program, kernel_name)
    return SpecializedKernel(ir)


@dataclass
class _Reduction:
    """One recognized sum-reduction: ``acc = acc + <expr>`` in the body."""

    var: str
    value: cast.Expr
    stmt: cast.Stmt


@dataclass
class _Body:
    """The straight-line innermost statements plus outer-level decls.

    ``epilogue`` holds statements after the outermost loop (e.g. the
    final ``c[0] = acc;`` of a dot product); ``reductions`` the
    recognized sum-accumulations, which execute as vectorized sums.
    """

    outer_decls: list[cast.DeclStmt]
    inner: list[cast.Stmt]
    epilogue: list[cast.Stmt]
    reductions: list[_Reduction]


class SpecializedKernel:
    """A kernel proven safe for array evaluation, with its peeled body."""

    def __init__(self, ir: KernelIR):
        self.ir = ir
        self.program = ir.program
        self._check_safe()
        self._body = self._extract_body()
        self._check_loop_carried()

    # -- safety ---------------------------------------------------------------

    def _check_safe(self) -> None:
        ir = self.ir
        if ir.has_control_flow:
            raise UnsupportedKernelError(
                f"kernel {ir.name!r} has data-dependent control flow; "
                "use the interpreter"
            )
        read_params = {a.param for a in ir.reads}
        write_params = {a.param for a in ir.writes}
        overlap = read_params & write_params
        if overlap:
            raise UnsupportedKernelError(
                f"kernel {ir.name!r} reads and writes {sorted(overlap)}; "
                "vectorized order is not guaranteed to match sequential order"
            )

    def _extract_body(self) -> _Body:
        """Peel the counted loop nest, collecting straight-line code.

        Outer levels may contain only declarations (which become uniform
        or per-domain values) around exactly one loop; the innermost
        level is the straight-line body that gets vectorized.
        """
        outer_decls: list[cast.DeclStmt] = []

        def flatten(stmt: cast.Stmt) -> list[cast.Stmt]:
            if isinstance(stmt, cast.Block):
                out: list[cast.Stmt] = []
                for s in stmt.body:
                    out.extend(flatten(s))
                return out
            if isinstance(stmt, cast.Pragma):
                return []
            if isinstance(stmt, cast.Return) and stmt.value is None:
                return []
            return [stmt]

        epilogue: list[cast.Stmt] = []

        def peel(
            stmts: list[cast.Stmt], loops_left: int, outermost: bool
        ) -> list[cast.Stmt]:
            if loops_left == 0:
                for s in stmts:
                    if not isinstance(s, (cast.DeclStmt, cast.ExprStmt)):
                        raise UnsupportedKernelError(
                            f"unsupported statement {type(s).__name__} "
                            f"at line {s.line} in innermost body"
                        )
                return stmts
            loop: cast.For | None = None
            for s in stmts:
                if isinstance(s, cast.For):
                    if loop is not None:
                        raise UnsupportedKernelError(
                            "multiple sibling loops are not supported"
                        )
                    loop = s
                elif isinstance(s, cast.DeclStmt) and loop is None:
                    outer_decls.append(s)
                elif loop is not None and outermost:
                    # statements after the loop: a scalar epilogue
                    # (e.g. storing a reduction result)
                    if not isinstance(s, (cast.DeclStmt, cast.ExprStmt)):
                        raise UnsupportedKernelError(
                            f"unsupported epilogue statement "
                            f"{type(s).__name__} at line {s.line}"
                        )
                    epilogue.append(s)
                else:
                    raise UnsupportedKernelError(
                        f"unsupported statement {type(s).__name__} at line "
                        f"{s.line} outside the innermost loop"
                    )
            if loop is None:  # pragma: no cover - analyze() counted the loops
                raise UnsupportedKernelError("loop nest shallower than analyzed")
            return peel(flatten(loop.body), loops_left - 1, outermost=False)

        inner = peel(
            flatten(self.ir.func.body), len(self.ir.loops), outermost=True
        )
        # Loop induction variables are bound by the domain, not by decls;
        # drop decls that shadow them.
        loop_vars = {loop.var for loop in self.ir.loops}
        outer = [d for d in outer_decls if d.name not in loop_vars]
        return _Body(outer_decls=outer, inner=inner, epilogue=epilogue, reductions=[])

    def _check_loop_carried(self) -> None:
        """Classify loop-carried locals: reductions or refusal.

        A variable declared outside the innermost body and *read before
        it is (re)assigned inside the body* depends on the previous
        iteration. The one shape we can vectorize exactly is a **sum
        reduction** (``acc = acc + <expr>`` / ``acc += <expr>`` where
        ``acc`` appears nowhere else in the body), which the array lane
        adds one item at a time in the interpreter's order
        (:func:`reduce_sum`), bit for bit. Anything else is refused so
        the caller falls back to the interpreter.
        """
        outer_names = {d.name for d in self._body.outer_decls}

        def refs(expr: cast.Expr) -> list[str]:
            out: list[str] = []

            def walk(e: cast.Expr) -> None:
                if isinstance(e, cast.Ident):
                    out.append(e.name)
                elif isinstance(e, cast.Assign):
                    walk(e.value)
                    if isinstance(e.target, cast.Index):
                        walk(e.target.index)
                elif isinstance(e, cast.Binary):
                    walk(e.left)
                    walk(e.right)
                elif isinstance(e, cast.Unary):
                    walk(e.operand)
                elif isinstance(e, cast.Conditional):
                    walk(e.cond)
                    walk(e.then)
                    walk(e.other)
                elif isinstance(e, cast.Call):
                    for a in e.args:
                        walk(a)
                elif isinstance(e, cast.Index):
                    walk(e.base)
                    walk(e.index)
                elif isinstance(e, cast.Swizzle):
                    walk(e.base)
                elif isinstance(e, cast.Cast):
                    walk(e.operand)
                elif isinstance(e, cast.VectorLiteral):
                    for el in e.elements:
                        walk(el)

            walk(expr)
            return out

        def as_reduction(stmt: cast.Stmt) -> _Reduction | None:
            if not (isinstance(stmt, cast.ExprStmt) and isinstance(stmt.expr, cast.Assign)):
                return None
            assign = stmt.expr
            if not isinstance(assign.target, cast.Ident):
                return None
            var = assign.target.name
            if var not in outer_names:
                return None
            if assign.op == "+=":
                if var in refs(assign.value):
                    return None
                return _Reduction(var=var, value=assign.value, stmt=stmt)
            if assign.op == "=" and isinstance(assign.value, cast.Binary):
                b = assign.value
                if b.op == "+":
                    if isinstance(b.left, cast.Ident) and b.left.name == var:
                        if var not in refs(b.right):
                            return _Reduction(var=var, value=b.right, stmt=stmt)
                    if isinstance(b.right, cast.Ident) and b.right.name == var:
                        if var not in refs(b.left):
                            return _Reduction(var=var, value=b.left, stmt=stmt)
            return None

        assigned_in_body: set[str] = set()
        for stmt in self._body.inner:
            if isinstance(stmt, cast.ExprStmt) and isinstance(stmt.expr, cast.Assign):
                if isinstance(stmt.expr.target, cast.Ident):
                    assigned_in_body.add(stmt.expr.target.name)
            if isinstance(stmt, cast.DeclStmt):
                assigned_in_body.add(stmt.name)

        # pass 1: recognize reductions
        reductions: dict[str, _Reduction] = {}
        for stmt in self._body.inner:
            red = as_reduction(stmt)
            if red is not None:
                if red.var in reductions:
                    raise UnsupportedKernelError(
                        f"local {red.var!r} accumulates in more than one "
                        f"statement (line {stmt.line}); use the interpreter"
                    )
                reductions[red.var] = red

        # pass 2: every remaining read-before-write of an outer local is
        # genuinely loop-carried -> refuse; a reduction variable used in
        # any *other* statement of the body is also unsafe
        seen_assigned: set[str] = set()
        for stmt in self._body.inner:
            is_reduction_stmt = any(r.stmt is stmt for r in reductions.values())
            exprs: list[cast.Expr] = []
            if isinstance(stmt, cast.DeclStmt) and stmt.init is not None:
                exprs.append(stmt.init)
            elif isinstance(stmt, cast.ExprStmt):
                exprs.append(stmt.expr)
            for expr in exprs:
                for name in refs(expr):
                    if name in reductions and not is_reduction_stmt:
                        raise UnsupportedKernelError(
                            f"reduction variable {name!r} is also used at "
                            f"line {stmt.line}; use the interpreter"
                        )
                    if (
                        name in outer_names
                        and name not in reductions
                        and name in assigned_in_body
                        and name not in seen_assigned
                    ):
                        raise UnsupportedKernelError(
                            f"local {name!r} carries state across loop "
                            f"iterations (line {stmt.line}); use the interpreter"
                        )
            if isinstance(stmt, cast.DeclStmt):
                seen_assigned.add(stmt.name)
            elif isinstance(stmt, cast.ExprStmt) and isinstance(stmt.expr, cast.Assign):
                if isinstance(stmt.expr.target, cast.Ident):
                    seen_assigned.add(stmt.expr.target.name)

        self._body.reductions = list(reductions.values())


def _coerce_scalar(value: object, ty: T.Type) -> object:
    if isinstance(ty, T.ScalarType):
        return ty.dtype.type(value)
    if isinstance(ty, T.VectorType):
        arr = np.asarray(value, dtype=ty.dtype)
        if arr.shape == ():
            arr = np.full(ty.width, arr)
        return arr
    raise UnsupportedKernelError(f"cannot pass {ty} by value")


_MATH_IMPL = {
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

_CMP_IMPL = {
    "==": np.equal,
    "!=": np.not_equal,
    "<": np.less,
    ">": np.greater,
    "<=": np.less_equal,
    ">=": np.greater_equal,
}

_ARITH_IMPL = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": np.divide,
    "&": np.bitwise_and,
    "|": np.bitwise_or,
    "^": np.bitwise_xor,
    "<<": np.left_shift,
    ">>": np.right_shift,
}


# -- shared array semantics -----------------------------------------------------


def cast_value(value: object, ty: T.Type) -> object:
    if isinstance(ty, (T.ScalarType, T.VectorType)):
        arr = np.asarray(value)
        if arr.dtype != ty.dtype:
            with np.errstate(over="ignore", invalid="ignore"):
                arr = arr.astype(ty.dtype)
        return arr
    return value


def apply_unary(op: str, value: object, ty: T.Type, line: int) -> object:
    with np.errstate(over="ignore"):
        if op == "-":
            return cast_value(np.negative(value), ty)
        if op == "+":
            return value
        if op == "!":
            return (np.asarray(value) == 0).astype(np.int32)
        if op == "~":
            return cast_value(np.invert(np.asarray(value)), ty)
    raise UnsupportedKernelError(f"unary {op} at line {line}")


def apply_binary(op: str, left: object, right: object, ty: T.Type) -> object:
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if op in ("&&", "||"):
            lb = np.asarray(left) != 0
            rb = np.asarray(right) != 0
            out = np.logical_and(lb, rb) if op == "&&" else np.logical_or(lb, rb)
            return out.astype(np.int32)
        if op in _CMP_IMPL:
            raw = _CMP_IMPL[op](left, right)
            if isinstance(ty, T.VectorType):
                return -raw.astype(ty.dtype)
            return raw.astype(np.int32)
        if op == "/" and not ty.is_float():
            raw = trunc_div(left, right)
        elif op == "%":
            raw = trunc_mod(left, right)
        else:
            raw = _ARITH_IMPL[op](left, right)
        return cast_value(raw, ty)


def apply_math(name: str, args: list[object], ty: T.Type) -> object:
    with np.errstate(over="ignore", invalid="ignore"):
        raw = _MATH_IMPL[name](*args)
    return cast_value(raw, ty)


def reduce_sum(init: object, value: object) -> object:
    """``init`` plus each item of ``value`` along axis 0, in order.

    One addition at a time in the accumulator's dtype, as the
    interpreter adds, so integers wrap and floats round exactly as it
    does (a pairwise ``sum`` would round differently).
    """
    init = np.asarray(init)
    steps = np.concatenate([init[None], np.asarray(value, dtype=init.dtype)])
    with np.errstate(over="ignore", invalid="ignore"):
        return np.add.accumulate(steps, axis=0, dtype=init.dtype)[-1]


def launch_domain(ir: KernelIR, n_items: int) -> list[tuple[str, range]]:
    """The iteration domain's variables, outermost first, with their values.

    The domain is ``gid0`` over ``n_items`` work-items, then the counted
    loop nest. A single work-item kernel launched with more than one
    item keeps ``gid0``: every item does identical work, and the
    semantics equal running once.
    """
    domain: list[tuple[str, range]] = []
    if ir.loop_mode is LoopMode.NDRANGE or ir.gid_vars or n_items != 1:
        domain.append(("gid0", range(n_items)))
    for loop in ir.loops:
        domain.append((loop.var, range(loop.start, loop.bound, loop.step)))
    return domain or [("gid0", range(n_items))]


def build_domain_env(ir: KernelIR, n_items: int) -> dict[str, np.ndarray]:
    """Per-variable index arrays over the flattened :func:`launch_domain`.

    :func:`~repro.oclc.analysis.flatten_domain` lays it out innermost
    fastest, so a 1-D domain stays one ``arange``.
    """
    return flatten_domain([
        (var, np.arange(values.start, values.stop, values.step, dtype=np.int64))
        for var, values in launch_domain(ir, n_items)
    ])


def bind_arguments(
    program: CheckedProgram,
    ir: KernelIR,
    args: Mapping[str, object],
    env: dict[str, object],
) -> dict[str, tuple[np.ndarray, T.Type]]:
    """Split kernel arguments into buffer bindings and scalar env entries."""
    buffers: dict[str, tuple[np.ndarray, T.Type]] = {}
    for name, ty in program.param_types[ir.name].items():
        if name not in args:
            raise UnsupportedKernelError(f"missing kernel argument {name!r}")
        value = args[name]
        if isinstance(ty, T.PointerType):
            if not isinstance(value, BufferArg):
                raise UnsupportedKernelError(f"argument {name!r} must be a BufferArg")
            buffers[name] = (value.array, ty.pointee)
        else:
            env[name] = _coerce_scalar(value, ty)
    return buffers
