"""Static analysis: extract a device-model-facing IR from checked kernels.

The device performance models never execute kernel code; they consume a
:class:`KernelIR` describing

* the **launch shape** the kernel expects (NDRange work-items vs a
  single work-item with a flat or nested loop — the paper's
  "loop management" parameter);
* the **loop nest** (induction variables, constant-resolved trip
  counts, unroll factors);
* every **global-memory access** (which argument, read or write,
  element width, and the index expression), plus an affine
  classification giving the per-loop-variable stride;
* kernel **attributes** (``reqd_work_group_size``,
  ``num_simd_work_items``, ``num_compute_units``, the ``xcl_*``
  SDAccel attributes);
* an **arithmetic intensity** estimate (ALU ops per innermost
  iteration), used by models to decide compute- vs memory-boundedness.

Index expressions that are not affine (e.g. ``gid % C`` remappings) are
still usable: :func:`index_stream` evaluates any supported index
expression *numerically*, vectorized over the iteration domain, and
:func:`sampled_stride` takes their dominant stride from a sample of the
stream.

Both results are pure functions of the program, so each is computed
once: :func:`analyze` keeps every kernel's IR on its
:class:`CheckedProgram`, and :func:`sampled_stride` keeps each sampled
stride on the IR.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from ..errors import UnsupportedKernelError
from ..obs import metrics as obs_metrics
from ..ocl import types as T
from . import cast
from .interp import trunc_div, trunc_mod
from .semantic import (
    BUILTIN_WORKITEM_FUNCTIONS,
    CheckedProgram,
    vector_memory_builtin,
)

__all__ = [
    "LoopMode",
    "LoopInfo",
    "AffineIndex",
    "MemAccess",
    "KernelIR",
    "analyze",
    "flatten_domain",
    "index_stream",
    "sampled_stride",
]

#: leading elements of an index stream that :func:`sampled_stride` samples
STRIDE_SAMPLE = 8192


class LoopMode(enum.Enum):
    """The paper's "kernel loop management" axis."""

    NDRANGE = "ndrange"
    FLAT = "flat"
    NESTED = "nested"

    def __str__(self) -> str:  # pragma: no cover - cosmetics
        return self.value


@dataclass(frozen=True)
class LoopInfo:
    """One counted loop of the kernel's loop nest (outermost first)."""

    var: str
    start: int
    bound: int
    step: int
    unroll: int = 1
    depth: int = 0

    @property
    def trip_count(self) -> int:
        if self.step <= 0:
            raise UnsupportedKernelError(f"non-positive loop step in {self.var}")
        if self.bound <= self.start:
            return 0
        return (self.bound - self.start + self.step - 1) // self.step


@dataclass(frozen=True)
class AffineIndex:
    """``sum(coeffs[v] * v) + const`` over loop/gid variables, if affine."""

    coeffs: Mapping[str, int]
    const: int
    is_affine: bool = True

    def stride_of(self, var: str) -> int:
        return int(self.coeffs.get(var, 0))


@dataclass(frozen=True)
class MemAccess:
    """One static global-memory access site in the kernel body."""

    param: str
    element: T.Type
    index: cast.Expr
    is_write: bool
    affine: AffineIndex
    line: int = 0
    #: number of counted loops enclosing the access site (0 = outside
    #: the loop nest, e.g. a reduction epilogue store)
    depth: int = 0

    @property
    def element_bytes(self) -> int:
        return self.element.size

    @property
    def vector_width(self) -> int:
        return self.element.width if isinstance(self.element, T.VectorType) else 1


@dataclass
class KernelIR:
    """Everything a device model needs to cost a kernel."""

    name: str
    program: CheckedProgram
    func: cast.FunctionDef
    loop_mode: LoopMode
    loops: tuple[LoopInfo, ...]
    accesses: tuple[MemAccess, ...]
    attributes: dict[str, tuple[int, ...]] = field(default_factory=dict)
    alu_ops_per_iteration: int = 0
    mul_ops_per_iteration: int = 0
    uses_double: bool = False
    has_control_flow: bool = False
    gid_vars: tuple[str, ...] = ()
    #: the body's locals as the analyzer resolved them (constants,
    #: ``get_global_id`` aliases, other defining expressions), so
    #: :func:`index_stream` evaluates indices without a second walk
    consts: dict[str, int] = field(default_factory=dict)
    gid_aliases: dict[str, str] = field(default_factory=dict)
    expr_aliases: dict[str, cast.Expr] = field(default_factory=dict)
    #: :func:`sampled_stride`'s results, by (index expression, work-items)
    strides: dict[tuple[cast.Expr, int], Optional[int]] = field(
        default_factory=dict, repr=False, compare=False
    )

    @property
    def reads(self) -> tuple[MemAccess, ...]:
        return tuple(a for a in self.accesses if not a.is_write)

    @property
    def writes(self) -> tuple[MemAccess, ...]:
        return tuple(a for a in self.accesses if a.is_write)

    @property
    def vector_width(self) -> int:
        """Widest vector element among global accesses (1 = scalar)."""
        return max((a.vector_width for a in self.accesses), default=1)

    @property
    def unroll_factor(self) -> int:
        """Innermost-loop unroll factor (1 when not unrolled/ndrange)."""
        inner = self.innermost_loop
        if inner is None:
            return 1
        hint = self.attributes.get("opencl_unroll_hint")
        if hint:
            return max(1, hint[0])
        return max(1, inner.unroll)

    @property
    def innermost_loop(self) -> Optional[LoopInfo]:
        return self.loops[-1] if self.loops else None

    def iterations_per_work_item(self) -> int:
        total = 1
        for loop in self.loops:
            total *= loop.trip_count
        return total

    def bytes_per_iteration(self) -> int:
        """Global-memory traffic of one innermost iteration (all accesses)."""
        return sum(a.element_bytes for a in self.accesses)

    def elements_per_iteration(self) -> int:
        """Scalar words touched per innermost iteration."""
        return sum(a.vector_width for a in self.accesses)


# ---------------------------------------------------------------------------
# Analysis entry point
# ---------------------------------------------------------------------------


def analyze(program: CheckedProgram, kernel_name: str | None = None) -> KernelIR:
    """The :class:`KernelIR` for a kernel of a checked program.

    The IR is a pure function of the program and the kernel, so the
    program keeps it (``program.irs``): every device model's plan and
    the array lane share one IR per kernel.
    """
    func = program.kernel(kernel_name)
    ir = program.irs.get(func.name)
    if ir is None:
        ir = program.irs[func.name] = _Analyzer(program, func).run()
    return ir


class _Analyzer:
    def __init__(self, program: CheckedProgram, func: cast.FunctionDef):
        self.program = program
        self.func = func
        self.consts: dict[str, int] = {}
        self.gid_aliases: dict[str, str] = {}  # local name -> "gid0"/"gid1"/"gid2"
        self.expr_aliases: dict[str, "cast.Expr"] = {}  # local name -> defining expr
        self.loops: list[LoopInfo] = []
        self.accesses: list[MemAccess] = []
        self.alu_ops = 0
        self.mul_ops = 0
        self.has_control_flow = False
        self.uses_gid_directly = False

    def run(self) -> KernelIR:
        obs_metrics.count("oclc.analyses")
        self._walk_stmt(self.func.body, depth=0)
        attrs = {a.name: a.args for a in self.func.attributes}
        gid_vars = tuple(sorted(set(self.gid_aliases.values())))
        if self.uses_gid_directly and "gid0" not in gid_vars:
            gid_vars = tuple(sorted(set(gid_vars) | {"gid0"}))
        mode = self._loop_mode(gid_vars)
        program = self.program
        uses_double = any(
            isinstance(a.element, (T.ScalarType, T.VectorType))
            and a.element.is_float()
            and a.element.kind.size == 8  # type: ignore[union-attr]
            for a in self.accesses
        )
        return KernelIR(
            name=self.func.name,
            program=program,
            func=self.func,
            loop_mode=mode,
            loops=tuple(self.loops),
            accesses=tuple(self.accesses),
            attributes=attrs,
            alu_ops_per_iteration=self.alu_ops,
            mul_ops_per_iteration=self.mul_ops,
            uses_double=uses_double,
            has_control_flow=self.has_control_flow,
            gid_vars=gid_vars,
            consts=self.consts,
            gid_aliases=self.gid_aliases,
            expr_aliases=self.expr_aliases,
        )

    def _loop_mode(self, gid_vars: tuple[str, ...]) -> LoopMode:
        counted = len(self.loops)
        if counted == 0:
            return LoopMode.NDRANGE
        if counted == 1:
            return LoopMode.FLAT
        return LoopMode.NESTED

    # -- statement walk -------------------------------------------------------

    def _walk_stmt(self, stmt: cast.Stmt, depth: int) -> None:
        if isinstance(stmt, cast.Block):
            for s in stmt.body:
                self._walk_stmt(s, depth)
        elif isinstance(stmt, cast.DeclStmt):
            self._note_decl(stmt)
            if stmt.init is not None:
                # integer locals are (almost always) index computations;
                # their arithmetic belongs to address generation, not the
                # data path, so it does not count toward ALU/DSP cost
                ty = T.parse_type_name(stmt.type_name)
                is_index_math = isinstance(ty, T.ScalarType) and ty.is_integer()
                self._walk_expr(stmt.init, depth, addr=is_index_math)
        elif isinstance(stmt, cast.ExprStmt):
            self._walk_expr(stmt.expr, depth)
        elif isinstance(stmt, cast.For):
            info = self._loop_info(stmt, depth)
            self.loops.append(info)
            self._walk_stmt(stmt.body, depth + 1)
        elif isinstance(stmt, cast.If):
            self.has_control_flow = True
            self._walk_expr(stmt.cond, depth)
            self._walk_stmt(stmt.then, depth)
            if stmt.other is not None:
                self._walk_stmt(stmt.other, depth)
        elif isinstance(stmt, cast.While):
            self.has_control_flow = True
            self._walk_expr(stmt.cond, depth)
            self._walk_stmt(stmt.body, depth)
        elif isinstance(stmt, cast.Return):
            if stmt.value is not None:
                self._walk_expr(stmt.value, depth)
        elif isinstance(stmt, (cast.Break, cast.Continue)):
            self.has_control_flow = True
        elif isinstance(stmt, cast.Pragma):
            pass
        else:  # pragma: no cover
            raise UnsupportedKernelError(f"unhandled stmt {type(stmt).__name__}")

    def _note_decl(self, stmt: cast.DeclStmt) -> None:
        init = stmt.init
        if init is None:
            return
        # gid alias: size_t i = get_global_id(D);
        if (
            isinstance(init, cast.Call)
            and init.func == "get_global_id"
            and len(init.args) == 1
            and isinstance(init.args[0], cast.IntLiteral)
        ):
            self.gid_aliases[stmt.name] = f"gid{init.args[0].value}"
            return
        value = self._const_eval(init)
        if value is not None:
            self.consts[stmt.name] = value
        else:
            # remember the defining expression so index analysis can see
            # through locals like `idx = (g % NI) * NJ + g / NI`
            self.expr_aliases[stmt.name] = init

    def _loop_info(self, stmt: cast.For, depth: int) -> LoopInfo:
        init = stmt.init
        var: Optional[str] = None
        start: Optional[int] = None
        if isinstance(init, cast.DeclStmt):
            var = init.name
            start = self._const_eval(init.init) if init.init is not None else 0
        elif isinstance(init, cast.ExprStmt) and isinstance(init.expr, cast.Assign):
            tgt = init.expr.target
            if isinstance(tgt, cast.Ident):
                var = tgt.name
                start = self._const_eval(init.expr.value)
        if var is None or start is None:
            raise UnsupportedKernelError(
                f"cannot analyze loop header at line {stmt.line}: "
                "need 'var = <const>' initialization"
            )
        bound = self._loop_bound(stmt.cond, var, stmt.line)
        step = self._loop_step(stmt.step, var, stmt.line)
        return LoopInfo(
            var=var, start=start, bound=bound, step=step, unroll=stmt.unroll, depth=depth
        )

    def _loop_bound(self, cond: Optional[cast.Expr], var: str, line: int) -> int:
        if not isinstance(cond, cast.Binary) or cond.op not in ("<", "<="):
            raise UnsupportedKernelError(
                f"loop at line {line} must use 'var < bound' or 'var <= bound'"
            )
        if not (isinstance(cond.left, cast.Ident) and cond.left.name == var):
            raise UnsupportedKernelError(
                f"loop condition at line {line} must test the induction variable"
            )
        bound = self._const_eval(cond.right)
        if bound is None:
            raise UnsupportedKernelError(
                f"loop bound at line {line} is not a compile-time constant"
            )
        return bound + 1 if cond.op == "<=" else bound

    def _loop_step(self, step: Optional[cast.Expr], var: str, line: int) -> int:
        if step is None:
            raise UnsupportedKernelError(f"loop at line {line} has no step")
        if isinstance(step, cast.Unary) and step.op in ("++", "p++"):
            return 1
        if isinstance(step, cast.Assign) and isinstance(step.target, cast.Ident):
            if step.target.name != var:
                raise UnsupportedKernelError(
                    f"loop step at line {line} must update the induction variable"
                )
            if step.op == "+=":
                value = self._const_eval(step.value)
                if value is not None:
                    return value
            if step.op == "=" and isinstance(step.value, cast.Binary):
                b = step.value
                if (
                    b.op == "+"
                    and isinstance(b.left, cast.Ident)
                    and b.left.name == var
                ):
                    value = self._const_eval(b.right)
                    if value is not None:
                        return value
        raise UnsupportedKernelError(
            f"unsupported loop step at line {line} (need ++, += const)"
        )

    # -- expression walk ----------------------------------------------------------

    def _walk_expr(
        self, expr: cast.Expr, depth: int, store: bool = False, addr: bool = False
    ) -> None:
        if isinstance(expr, (cast.IntLiteral, cast.FloatLiteral, cast.Ident)):
            return
        if isinstance(expr, cast.Assign):
            self._walk_expr(expr.value, depth)
            if isinstance(expr.target, cast.Index):
                self._record_access(expr.target, depth, is_write=True)
                self._walk_expr(expr.target.index, depth, addr=True)
            else:
                self._walk_expr(expr.target, depth, store=True)
            if expr.op != "=":
                self.alu_ops += 1
                # compound assignment to memory also reads the target
                if isinstance(expr.target, cast.Index):
                    self._record_access(expr.target, depth, is_write=False)
            return
        if isinstance(expr, cast.Index):
            self._record_access(expr, depth, is_write=False)
            self._walk_expr(expr.index, depth, addr=True)
            return
        if isinstance(expr, cast.Binary):
            # address arithmetic lives in the LSU's address generator,
            # not the data path; only data ops count toward ALU/DSP cost
            if not addr:
                if expr.op in ("+", "-", "*", "/", "%"):
                    self.alu_ops += 1
                if expr.op in ("*", "/"):
                    self.mul_ops += 1
            self._walk_expr(expr.left, depth, addr=addr)
            self._walk_expr(expr.right, depth, addr=addr)
            return
        if isinstance(expr, cast.Unary):
            if not addr and expr.op in ("-", "~", "++", "--", "p++", "p--"):
                self.alu_ops += 1
            self._walk_expr(expr.operand, depth, addr=addr)
            return
        if isinstance(expr, cast.Conditional):
            self.has_control_flow = True
            self._walk_expr(expr.cond, depth)
            self._walk_expr(expr.then, depth)
            self._walk_expr(expr.other, depth)
            return
        if isinstance(expr, cast.Call):
            if expr.func == "get_global_id":
                self.uses_gid_directly = True
            vec_mem = vector_memory_builtin(expr.func)
            if vec_mem is not None:
                self._record_vector_memory(expr, vec_mem, depth)
                return
            if expr.func in ("fma", "mad", "mad24"):
                self.alu_ops += 2
                self.mul_ops += 1
            elif expr.func in ("mul24",):
                self.alu_ops += 1
                self.mul_ops += 1
            elif expr.func not in BUILTIN_WORKITEM_FUNCTIONS:
                self.alu_ops += 1
            for a in expr.args:
                self._walk_expr(a, depth)
            return
        if isinstance(expr, (cast.Swizzle, cast.Cast)):
            inner = expr.base if isinstance(expr, cast.Swizzle) else expr.operand
            self._walk_expr(inner, depth)
            return
        if isinstance(expr, cast.VectorLiteral):
            for el in expr.elements:
                self._walk_expr(el, depth)
            return
        raise UnsupportedKernelError(f"unhandled expr {type(expr).__name__}")

    def _record_access(self, expr: cast.Index, depth: int, is_write: bool) -> None:
        if not isinstance(expr.base, cast.Ident):
            raise UnsupportedKernelError(
                f"only direct parameter indexing is supported (line {expr.line})"
            )
        name = expr.base.name
        param_ty = self.program.param_types[self.func.name].get(name)
        if not isinstance(param_ty, T.PointerType):
            raise UnsupportedKernelError(
                f"indexing non-buffer {name!r} at line {expr.line}"
            )
        if param_ty.address_space != "__global":
            return  # local/constant memory is not modelled as DRAM traffic
        affine = self._affine(expr.index)
        self.accesses.append(
            MemAccess(
                param=name,
                element=param_ty.pointee,
                index=expr.index,
                is_write=is_write,
                affine=affine,
                line=expr.line,
                depth=depth,
            )
        )

    def _record_vector_memory(
        self, expr: cast.Call, vec_mem: tuple[str, int], depth: int
    ) -> None:
        """vloadN/vstoreN: a vector-width access through a scalar pointer."""
        kind, width = vec_mem
        if kind == "load":
            offset, ptr = expr.args
        else:
            data, offset, ptr = expr.args
            self._walk_expr(data, depth)
        self._walk_expr(offset, depth, addr=True)
        if not isinstance(ptr, cast.Ident):
            raise UnsupportedKernelError(
                f"vload/vstore through a computed pointer (line {expr.line})"
            )
        param_ty = self.program.param_types[self.func.name].get(ptr.name)
        if not isinstance(param_ty, T.PointerType):
            raise UnsupportedKernelError(
                f"vload/vstore on non-buffer {ptr.name!r} at line {expr.line}"
            )
        if param_ty.address_space != "__global":
            return
        assert isinstance(param_ty.pointee, T.ScalarType)
        element = T.vector(param_ty.pointee.kind.name, width)
        self.accesses.append(
            MemAccess(
                param=ptr.name,
                element=element,
                index=offset,
                is_write=(kind == "store"),
                affine=self._affine(offset),
                line=expr.line,
                depth=depth,
            )
        )

    # -- constant & affine evaluation ------------------------------------------

    def _const_eval(self, expr: Optional[cast.Expr]) -> Optional[int]:
        if expr is None:
            return None
        if isinstance(expr, cast.IntLiteral):
            return expr.value
        if isinstance(expr, cast.Ident):
            return self.consts.get(expr.name)
        if isinstance(expr, cast.Unary) and expr.op == "-":
            inner = self._const_eval(expr.operand)
            return None if inner is None else -inner
        if isinstance(expr, cast.Cast):
            return self._const_eval(expr.operand)
        if isinstance(expr, cast.Binary):
            left = self._const_eval(expr.left)
            right = self._const_eval(expr.right)
            if left is None or right is None:
                return None
            try:
                return {
                    "+": lambda: left + right,
                    "-": lambda: left - right,
                    "*": lambda: left * right,
                    "/": lambda: int(left / right) if right else None,
                    "%": lambda: left - int(left / right) * right if right else None,
                    "<<": lambda: left << right,
                    ">>": lambda: left >> right,
                }[expr.op]()
            except KeyError:
                return None
        return None

    def _affine(self, expr: cast.Expr) -> AffineIndex:
        try:
            coeffs, const = self._affine_walk(expr)
            return AffineIndex(coeffs=coeffs, const=const, is_affine=True)
        except _NotAffine:
            return AffineIndex(coeffs={}, const=0, is_affine=False)

    def _affine_walk(self, expr: cast.Expr) -> tuple[dict[str, int], int]:
        if isinstance(expr, cast.IntLiteral):
            return {}, expr.value
        if isinstance(expr, cast.Ident):
            name = expr.name
            if name in self.consts:
                return {}, self.consts[name]
            if name in self.gid_aliases:
                return {self.gid_aliases[name]: 1}, 0
            if name in self.expr_aliases:
                alias = self.expr_aliases.pop(name)  # cycle guard
                try:
                    return self._affine_walk(alias)
                finally:
                    self.expr_aliases[name] = alias
            return {name: 1}, 0
        if isinstance(expr, cast.Call) and expr.func == "get_global_id":
            arg = expr.args[0]
            if isinstance(arg, cast.IntLiteral):
                return {f"gid{arg.value}": 1}, 0
            raise _NotAffine()
        if isinstance(expr, cast.Cast):
            return self._affine_walk(expr.operand)
        if isinstance(expr, cast.Unary) and expr.op == "-":
            coeffs, const = self._affine_walk(expr.operand)
            return {k: -v for k, v in coeffs.items()}, -const
        if isinstance(expr, cast.Binary):
            if expr.op in ("+", "-"):
                lc, lk = self._affine_walk(expr.left)
                rc, rk = self._affine_walk(expr.right)
                sign = 1 if expr.op == "+" else -1
                merged = dict(lc)
                for k, v in rc.items():
                    merged[k] = merged.get(k, 0) + sign * v
                return {k: v for k, v in merged.items() if v}, lk + sign * rk
            if expr.op == "*":
                lconst = self._const_eval(expr.left)
                rconst = self._const_eval(expr.right)
                if lconst is not None:
                    coeffs, const = self._affine_walk(expr.right)
                    return {k: v * lconst for k, v in coeffs.items()}, const * lconst
                if rconst is not None:
                    coeffs, const = self._affine_walk(expr.left)
                    return {k: v * rconst for k, v in coeffs.items()}, const * rconst
                raise _NotAffine()
            if expr.op == "<<":
                shift = self._const_eval(expr.right)
                if shift is not None:
                    coeffs, const = self._affine_walk(expr.left)
                    factor = 1 << shift
                    return {k: v * factor for k, v in coeffs.items()}, const * factor
                raise _NotAffine()
        raise _NotAffine()


class _NotAffine(Exception):
    pass


# ---------------------------------------------------------------------------
# Numeric index streams
# ---------------------------------------------------------------------------


def flatten_domain(
    domain: Sequence[tuple[str, np.ndarray]], limit: int | None = None
) -> dict[str, np.ndarray]:
    """Each domain variable's value at every position of the flat domain.

    ``domain`` lists ``(var, values)`` outermost first; the innermost
    variable varies fastest. Position ``p`` of a variable whose inner
    variables span ``inner`` positions holds
    ``values[(p // inner) % len(values)]``, built here as runs of
    ``inner`` equal values (``np.repeat``) over whole cycles of
    ``values`` (``np.tile``), so no position is divided or gathered. A
    1-D domain is its own ``values``. Only the leading ``limit``
    positions are built; an empty loop makes the domain empty.
    """
    total = math.prod(len(values) for _, values in domain)
    limit = total if limit is None else max(0, min(total, limit))
    if not limit:
        return {var: values[:0] for var, values in reversed(domain)}
    env: dict[str, np.ndarray] = {}
    inner = 1
    for var, values in reversed(domain):
        runs, part = divmod(limit, inner)
        if part:  # the window ends inside a run
            runs += 1
        cycles, head = divmod(runs, len(values))
        seq = values if cycles == 1 else np.tile(values, cycles)
        if head:
            seq = np.concatenate((seq, values[:head]))
        if part:
            counts = np.full(runs, inner)
            counts[-1] = part
            seq = np.repeat(seq, counts)
        elif inner > 1:
            seq = np.repeat(seq, inner)
        env[var] = seq
        inner *= len(values)
    return env


def index_stream(
    ir: KernelIR,
    access: MemAccess,
    *,
    global_size: int = 1,
    max_elements: int | None = None,
) -> np.ndarray:
    """Element-index stream of ``access`` over the full iteration domain.

    The domain is the cartesian product of the NDRange (size
    ``global_size``, variable ``gid0``) and the counted loop nest,
    innermost varying fastest — i.e. program order for a single
    work-item, work-item-major across the range, flattened by
    :func:`flatten_domain`. Evaluation is vectorized; non-affine
    expressions (``%``, ``/``) are supported, and the body's locals
    resolve through the mappings :func:`analyze` left on ``ir``.

    ``max_elements`` truncates the stream (leading window) for sampled
    simulation of very large domains.
    """
    domain: list[tuple[str, np.ndarray]] = []
    if ir.loop_mode is LoopMode.NDRANGE or ir.gid_vars:
        domain.append(("gid0", np.arange(global_size, dtype=np.int64)))
    for loop in ir.loops:
        domain.append(
            (loop.var, np.arange(loop.start, loop.bound, loop.step, dtype=np.int64))
        )
    if not domain:
        domain = [("gid0", np.arange(global_size, dtype=np.int64))]
    env = flatten_domain(domain, max_elements)
    return _IndexEval(env, ir).eval(access.index)


class _IndexEval:
    """Vectorized integer evaluation of index expressions."""

    def __init__(self, env: dict[str, np.ndarray], ir: KernelIR):
        self.env = env
        self.ir = ir
        self._analyzer_consts = ir.consts
        self._gid_aliases = ir.gid_aliases
        # a copy: eval pops an alias while it expands it (cycle guard)
        self._expr_aliases = dict(ir.expr_aliases)

    def eval(self, expr: cast.Expr) -> np.ndarray:
        if isinstance(expr, cast.IntLiteral):
            return np.int64(expr.value)  # type: ignore[return-value]
        if isinstance(expr, cast.Ident):
            name = expr.name
            if name in self.env:
                return self.env[name]
            if name in self._gid_aliases and self._gid_aliases[name] in self.env:
                return self.env[self._gid_aliases[name]]
            if name in self._analyzer_consts:
                return np.int64(self._analyzer_consts[name])  # type: ignore[return-value]
            if name in self._expr_aliases:
                alias = self._expr_aliases.pop(name)  # cycle guard
                try:
                    return self.eval(alias)
                finally:
                    self._expr_aliases[name] = alias
            raise UnsupportedKernelError(
                f"index uses unknown variable {name!r} at line {expr.line}"
            )
        if isinstance(expr, cast.Call) and expr.func == "get_global_id":
            return self.env["gid0"]
        if isinstance(expr, cast.Cast):
            return self.eval(expr.operand)
        if isinstance(expr, cast.Unary) and expr.op == "-":
            return -self.eval(expr.operand)
        if isinstance(expr, cast.Binary):
            left = self.eval(expr.left)
            right = self.eval(expr.right)
            ops = {
                "+": np.add,
                "-": np.subtract,
                "*": np.multiply,
                "/": trunc_div,
                "%": trunc_mod,
                "<<": np.left_shift,
                ">>": np.right_shift,
                "&": np.bitwise_and,
                "|": np.bitwise_or,
                "^": np.bitwise_xor,
            }
            if expr.op not in ops:
                raise UnsupportedKernelError(
                    f"unsupported operator {expr.op!r} in index at line {expr.line}"
                )
            return ops[expr.op](left, right)
        raise UnsupportedKernelError(
            f"unsupported index expression at line {expr.line}"
        )


def sampled_stride(
    ir: KernelIR, access: MemAccess, work_items: int
) -> Optional[int]:
    """Dominant element stride of ``access`` over ``work_items``, or ``None``.

    Samples the leading :data:`STRIDE_SAMPLE` elements of the access's
    :func:`index_stream` and returns the most common difference between
    consecutive indices, or ``None`` when it covers less than half of
    them. Equal index expressions of one kernel give equal streams, so
    the result is kept on ``ir`` per ``(index, work_items)``: the arrays
    indexed through one local, every target and every launch of one
    size share one sample.
    """
    key = (access.index, work_items)
    try:
        return ir.strides[key]
    except KeyError:
        pass
    stream = index_stream(
        ir, access, global_size=work_items, max_elements=STRIDE_SAMPLE
    )
    stride: Optional[int] = 0
    if stream.size >= 2:
        diffs = np.diff(stream)
        values, counts = np.unique(diffs, return_counts=True)
        stride = int(values[np.argmax(counts)])
        if counts.max() < 0.5 * diffs.size:
            stride = None
    ir.strides[key] = stride
    return stride
