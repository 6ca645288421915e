"""Whole-NDRange array execution with precomputed launch plans.

:class:`VectorKernel` is the fast driver of the kernel semantics; the
work-item interpreter (:mod:`repro.oclc.interp`) is the other, and the
oracle. It evaluates a kernel body as numpy arrays over the flattened
iteration domain, and every AST dispatch, type lookup, operator ufunc,
builtin binding and swizzle index is resolved once, when the kernel is
built, into a flat list of statement closures.

It also exploits one observation: in an analyzable kernel every
load/store **index** is a pure function of the iteration domain —
``gid0``, counted-loop variables and constants — never of buffer
contents or scalar arguments. So indices can be evaluated *once per
launch shape*, bounds-checked once, and lowered to native strided
slices whenever they are affine in the flattened domain
(``c[gid] = a[gid]`` becomes ``c_view[0:N:1] = a_view[0:N:1]``, no index
vector materialized at all). The per-``(n_items, buffer sizes)`` result
is cached as a launch *plan*; a repeated launch is just the statement
closures over pre-lowered selections. For a STREAM kernel that leaves
the handful of vector ops the launch actually performs. A cached plan
pays when a queue launches the same program again at one shape; a
benchmark point executes its kernel once and times its other launches
on the model alone.

Eligibility is conservative and layered on the specializer's safety
analysis (no data-dependent control flow, no read/write parameter
overlap, no loop-carried state beyond sum reductions — see
:class:`~repro.oclc.specialize.SpecializedKernel`):

* every load/store index and vload/vstore offset must be **domain-pure**
  (reference only domain variables, domain-pure locals, literals and
  builtin calls thereof), so plans are launch-shape cacheable;
* no kernel argument may alias another in a way that crosses the
  read/write split (checked per launch with ``np.may_share_memory`` —
  slice loads are *views*, so an aliased store could feed a later load).

Anything else raises :class:`~repro.errors.UnsupportedKernelError`, and
the caller (:meth:`repro.ocl.queue.CommandQueue._execute`) runs the
kernel on the interpreter instead.

The semantics are shared, not re-implemented: every closure calls the
module-level primitives of :mod:`repro.oclc.specialize`, and the
differential suite (``tests/test_vectorize_equivalence.py``) proves the
array lane bit-identical to the interpreter on the full conformance
grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from ..errors import UnsupportedKernelError
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..ocl import types as T
from . import cast
from .semantic import (
    BUILTIN_MATH_FUNCTIONS,
    BUILTIN_WORKITEM_FUNCTIONS,
    CheckedProgram,
    swizzle_indices,
    vector_memory_builtin,
)
from .specialize import (
    SpecializedKernel,
    apply_binary,
    apply_math,
    apply_unary,
    bind_arguments,
    build_domain_env,
    cast_value,
    reduce_sum,
    specialize,
)

__all__ = ["VectorKernel", "vectorize_kernel"]

#: launch plans kept per kernel (FIFO); a sweep rarely cycles through
#: more than a couple of distinct (n_items, buffer-size) shapes at once
_PLAN_CACHE_SIZE = 4


def vectorize_kernel(
    program: CheckedProgram, kernel_name: str | None = None
) -> "VectorKernel":
    """Build the array-lane executor, or raise if the kernel is ineligible."""
    with obs_trace.span("fastpath.vectorize", "fastpath") as span:
        spec = specialize(program, kernel_name)
        kernel = VectorKernel(spec)
        span.set(kernel=kernel.ir.name, sites=len(kernel._sites))
    obs_metrics.count("fastpath.kernels.vectorized")
    return kernel


class _Ctx:
    """Per-launch state threaded through the statement closures.

    ``views``/``sel``/``sel_len`` are only bound for a launch; the plan
    builder evaluates domain-pure expressions, which never touch
    memory, with ``env`` and ``n_items`` alone.
    """

    __slots__ = ("env", "n_items", "views", "sel", "sel_len")

    def __init__(self, env: dict[str, object], n_items: int):
        self.env = env
        self.n_items = n_items


_ExprFn = Callable[[_Ctx], object]
_StmtFn = Callable[[_Ctx], None]


@dataclass
class _Site:
    """One memory access whose selection is precomputed per plan."""

    param: str
    width: int | None  # None: scalar-element view; int: (rows, width) view
    index: _ExprFn
    line: int


@dataclass
class _Plan:
    """Everything launch-shape-dependent, computed once and cached."""

    env_base: dict[str, object]
    sel: list[object]  # per _Site: slice | np.ndarray selection
    sel_len: list[int]  # per _Site: selected rows (-1: not a 1-D stream)


def _lower_selection(idx: np.ndarray) -> object:
    """Replace a constant-stride index vector with a native slice.

    A slice selects the same elements in the same order, so values are
    bit-identical — but numpy serves it as a strided view instead of a
    gather/scatter through an index vector. Non-monotonic or irregular
    indices (e.g. the strided variant's ``(g % NI) * NJ + g / NI``
    permutation) stay as precomputed fancy indices.
    """
    if idx.size == 0:
        return slice(0, 0, 1)
    if idx.ndim != 1:
        return idx
    first = int(idx[0])
    if idx.size == 1:
        return slice(first, first + 1, 1)
    steps = np.diff(idx)
    step = int(steps[0])
    if step > 0 and bool(np.all(steps == step)):
        return slice(first, int(idx[-1]) + step, step)
    return idx


def _store_selected(
    view: np.ndarray, sel: object, sel_len: int, value: object
) -> None:
    """Scatter ``value`` into ``view[sel]``.

    A 1-D value whose length matches the selection is a scalar
    *stream* (one scalar per work-item) and broadcasts across the lanes
    of a vector-element view, as a scalar store to a vector element
    does in the interpreter.
    """
    arr = np.asarray(value)
    if view.ndim == 2 and arr.ndim == 1 and arr.shape[0] == sel_len:
        arr = arr[:, None]
    view[sel] = arr


class VectorKernel:
    """Runs a kernel as statement closures over pre-lowered selections."""

    def __init__(self, spec: SpecializedKernel):
        self.ir = spec.ir
        self.program = spec.program
        body = spec._body
        self._sites: list[_Site] = []
        self._pure_decls: list[tuple[str, _ExprFn | None, T.Type]] = []
        self._pure_names: set[str] = {"gid0"} | {loop.var for loop in self.ir.loops}
        self._declared: set[str] = set()
        self._plans: dict[tuple, _Plan] = {}
        self._writes = tuple(sorted({a.param for a in self.ir.writes}))
        self._reads = tuple(sorted({a.param for a in self.ir.reads}))

        comp = _Compiler(self.program, self)
        steps: list[_StmtFn] = []
        by_stmt = {id(r.stmt): r for r in body.reductions}

        def add(stmt: cast.Stmt) -> None:
            red = by_stmt.get(id(stmt))
            if red is not None:
                steps.append(comp.reduction(red.var, red.value))
                return
            if isinstance(stmt, cast.DeclStmt) and self._classify_decl(stmt, comp):
                return
            self._refuse_pure_writes(stmt)
            steps.append(comp.stmt(stmt))

        for decl in body.outer_decls:
            add(decl)
        for stmt in body.inner:
            add(stmt)
        for stmt in body.epilogue:
            add(stmt)
        self._steps = steps
        # views needed per launch, keyed (param, width-or-None)
        self._view_keys = tuple(
            sorted({(site.param, site.width) for site in self._sites},
                   key=lambda k: (k[0], k[1] or 0))
        )

    # -- compile-time classification ------------------------------------------

    def _classify_decl(self, decl: cast.DeclStmt, comp: "_Compiler") -> bool:
        """Plan-compute a domain-pure local; returns False to run per launch."""
        if decl.name in self._pure_names or decl.name in self._declared:
            raise UnsupportedKernelError(
                f"duplicate declaration of {decl.name!r} at line {decl.line}"
            )
        self._declared.add(decl.name)
        if decl.init is not None and not self._is_pure(decl.init):
            return False
        ty = T.parse_type_name(decl.type_name)
        fn = comp.expr(decl.init) if decl.init is not None else None
        self._pure_decls.append((decl.name, fn, ty))
        self._pure_names.add(decl.name)
        return True

    def _refuse_pure_writes(self, stmt: cast.Stmt) -> None:
        """A runtime statement may not reassign a plan-computed local."""
        def walk(e: cast.Expr) -> None:
            if isinstance(e, cast.Assign):
                if isinstance(e.target, cast.Ident) and e.target.name in self._pure_names:
                    raise UnsupportedKernelError(
                        f"assignment to domain-pure local {e.target.name!r} "
                        f"at line {e.line}"
                    )
                walk(e.value)
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

        if isinstance(stmt, cast.ExprStmt):
            walk(stmt.expr)

    def _is_pure(self, expr: cast.Expr) -> bool:
        """Is ``expr`` a pure function of the iteration domain?"""
        if isinstance(expr, (cast.IntLiteral, cast.FloatLiteral)):
            return True
        if isinstance(expr, cast.Ident):
            return expr.name in self._pure_names
        if isinstance(expr, cast.Unary):
            return expr.op not in ("++", "--", "p++", "p--") and self._is_pure(
                expr.operand
            )
        if isinstance(expr, cast.Binary):
            return self._is_pure(expr.left) and self._is_pure(expr.right)
        if isinstance(expr, cast.Conditional):
            return (
                self._is_pure(expr.cond)
                and self._is_pure(expr.then)
                and self._is_pure(expr.other)
            )
        if isinstance(expr, cast.Cast):
            return self._is_pure(expr.operand)
        if isinstance(expr, cast.Swizzle):
            return self._is_pure(expr.base)
        if isinstance(expr, cast.VectorLiteral):
            return all(self._is_pure(el) for el in expr.elements)
        if isinstance(expr, cast.Call):
            if vector_memory_builtin(expr.func) is not None:
                return False  # touches a buffer
            if expr.func in BUILTIN_WORKITEM_FUNCTIONS | BUILTIN_MATH_FUNCTIONS:
                return all(self._is_pure(a) for a in expr.args)
            return False
        return False  # Index (buffer load), Assign, anything unknown

    # -- plans ------------------------------------------------------------------

    def _element_width(self, param: str, line: int) -> int | None:
        types = self.program.param_types[self.ir.name]
        ty = types.get(param)
        if not isinstance(ty, T.PointerType):
            raise UnsupportedKernelError(
                f"indexed parameter {param!r} at line {line} is not a buffer"
            )
        pointee = ty.pointee
        if isinstance(pointee, T.VectorType):
            return pointee.width
        return None

    def _plan_for(self, n_items: int, sizes: Mapping[str, int]) -> _Plan:
        key = (n_items, tuple(sorted(sizes.items())))
        plan = self._plans.get(key)
        if plan is not None:
            return plan
        plan = self._build_plan(n_items, sizes)
        if len(self._plans) >= _PLAN_CACHE_SIZE:
            self._plans.pop(next(iter(self._plans)))
        self._plans[key] = plan
        return plan

    def _build_plan(self, n_items: int, sizes: Mapping[str, int]) -> _Plan:
        env = build_domain_env(self.ir, n_items)
        pctx = _Ctx(env, n_items)
        for name, fn, ty in self._pure_decls:
            if fn is None:
                value: object = (
                    np.zeros(ty.width, dtype=ty.dtype)
                    if isinstance(ty, T.VectorType)
                    else ty.dtype.type(0)  # type: ignore[union-attr]
                )
            else:
                value = cast_value(fn(pctx), ty)
            env[name] = value
        sel: list[object] = []
        sel_len: list[int] = []
        for site in self._sites:
            size = sizes[site.param]
            width = site.width or 1
            if size % width:
                raise UnsupportedKernelError(
                    f"buffer {site.param!r} size {size} not divisible by "
                    f"vector width {width}"
                )
            rows = size // width
            idx = np.asarray(site.index(pctx), dtype=np.int64)
            if np.any(idx < 0) or np.any(idx >= rows):
                raise UnsupportedKernelError(
                    f"out-of-bounds access to {site.param!r} at line {site.line}"
                )
            sel_len.append(int(idx.shape[0]) if idx.ndim == 1 else -1)
            sel.append(_lower_selection(idx))
        return _Plan(env_base=env, sel=sel, sel_len=sel_len)

    # -- launches ----------------------------------------------------------------

    @staticmethod
    def _n_items(global_size: tuple[int, ...] | int) -> int:
        if isinstance(global_size, int):
            global_size = (global_size,)
        if len(global_size) != 1:
            raise UnsupportedKernelError(
                "vectorized execution supports 1-D NDRanges only"
            )
        return int(global_size[0])

    def _check_hazards(
        self, buffers: Mapping[str, tuple[np.ndarray, T.Type]]
    ) -> None:
        """Refuse launches where slice *views* could observe a store.

        The interpreter reads each element when its work-item runs; this
        lane reads through views of whole arrays, so an output array
        aliasing an input, or another output, must fall back.
        """
        for w in self._writes:
            warr = buffers[w][0]
            for r in self._reads:
                if np.may_share_memory(warr, buffers[r][0]):
                    raise UnsupportedKernelError(
                        f"output {w!r} may alias input {r!r}; "
                        "array-lane views are unsafe"
                    )
        for i, w in enumerate(self._writes):
            for other in self._writes[i + 1 :]:
                if np.may_share_memory(buffers[w][0], buffers[other][0]):
                    raise UnsupportedKernelError(
                        "output buffers alias each other; array-lane "
                        "store order is not defined"
                    )

    def _make_views(
        self, buffers: Mapping[str, tuple[np.ndarray, T.Type]]
    ) -> dict[tuple[str, int | None], np.ndarray]:
        views: dict[tuple[str, int | None], np.ndarray] = {}
        for key in self._view_keys:
            name, width = key
            arr = buffers[name][0]
            views[key] = arr if width is None else arr.reshape(-1, width)
        return views

    def run(
        self,
        global_size: tuple[int, ...] | int,
        args: Mapping[str, object],
        local_size: tuple[int, ...] | None = None,
    ) -> None:
        """Execute the kernel. Signature mirrors the interpreter's."""
        n_items = self._n_items(global_size)
        scalars: dict[str, object] = {}
        buffers = bind_arguments(self.program, self.ir, args, scalars)
        self._check_hazards(buffers)
        sizes = {name: arr.size for name, (arr, _ty) in buffers.items()}
        plan = self._plan_for(n_items, sizes)
        env = dict(plan.env_base)
        env.update(scalars)
        ctx = _Ctx(env, n_items)
        ctx.views = self._make_views(buffers)
        ctx.sel = plan.sel
        ctx.sel_len = plan.sel_len
        for step in self._steps:
            step(ctx)


class _Compiler:
    """Turns the extracted straight-line body into closures.

    All AST dispatch, type lookup and builtin resolution happens here,
    once; the returned closures only touch per-launch state. Memory
    accesses require domain-pure indices: each registers a
    :class:`_Site` with the owning kernel and becomes a closure that
    indexes a pre-built view with its plan's pre-lowered selection (no
    per-launch index evaluation, no per-launch bounds check).
    """

    def __init__(self, program: CheckedProgram, owner: VectorKernel):
        self.program = program
        self.owner = owner

    # -- statements ----------------------------------------------------------

    def stmt(self, stmt: cast.Stmt) -> _StmtFn:
        # the specializer has already flattened blocks and dropped
        # pragmas: a straight-line body holds declarations and
        # expression statements only
        if isinstance(stmt, cast.DeclStmt):
            return self._decl(stmt)
        if isinstance(stmt, cast.ExprStmt):
            fn = self.expr(stmt.expr)

            def run_expr(ctx: _Ctx) -> None:
                fn(ctx)

            return run_expr
        raise UnsupportedKernelError(
            f"unsupported statement {type(stmt).__name__} at line {stmt.line}"
        )

    def _decl(self, decl: cast.DeclStmt) -> _StmtFn:
        ty = T.parse_type_name(decl.type_name)
        name = decl.name
        if decl.init is None:
            if isinstance(ty, T.VectorType):
                width, dtype = ty.width, ty.dtype

                def run_zero_vec(ctx: _Ctx) -> None:
                    ctx.env[name] = np.zeros(width, dtype=dtype)

                return run_zero_vec
            zero = ty.dtype.type(0)  # type: ignore[union-attr]

            def run_zero(ctx: _Ctx) -> None:
                ctx.env[name] = zero

            return run_zero
        init = self.expr(decl.init)

        def run_init(ctx: _Ctx) -> None:
            ctx.env[name] = cast_value(init(ctx), ty)

        return run_init

    def reduction(self, var: str, value_expr: cast.Expr) -> _StmtFn:
        value = self.expr(value_expr)

        def run_reduction(ctx: _Ctx) -> None:
            if var not in ctx.env:
                raise UnsupportedKernelError(f"reduction variable {var!r} unbound")
            ctx.env[var] = reduce_sum(ctx.env[var], value(ctx))

        return run_reduction

    # -- expressions ----------------------------------------------------------

    def expr(self, expr: cast.Expr) -> _ExprFn:
        ty = self.program.type_of(expr)
        if isinstance(expr, (cast.IntLiteral, cast.FloatLiteral)):
            value = ty.dtype.type(expr.value)  # type: ignore[union-attr]
            return lambda ctx: value
        if isinstance(expr, cast.Ident):
            name, line = expr.name, expr.line

            def run_ident(ctx: _Ctx) -> object:
                try:
                    return ctx.env[name]
                except KeyError:
                    raise UnsupportedKernelError(
                        f"unbound {name!r} at line {line}"
                    ) from None

            return run_ident
        if isinstance(expr, cast.Unary):
            if expr.op in ("++", "--", "p++", "p--"):
                raise UnsupportedKernelError(
                    f"increment of locals at line {expr.line} is loop-carried state"
                )
            op, line = expr.op, expr.line
            operand = self.expr(expr.operand)
            return lambda ctx: apply_unary(op, operand(ctx), ty, line)
        if isinstance(expr, cast.Binary):
            op = expr.op
            left = self.expr(expr.left)
            right = self.expr(expr.right)
            return lambda ctx: apply_binary(op, left(ctx), right(ctx), ty)
        if isinstance(expr, cast.Assign):
            return self._assign(expr)
        if isinstance(expr, cast.Conditional):
            cond = self.expr(expr.cond)
            then = self.expr(expr.then)
            other = self.expr(expr.other)

            def run_cond(ctx: _Ctx) -> object:
                chosen = np.where(
                    np.asarray(cond(ctx)) != 0, then(ctx), other(ctx)
                )
                return cast_value(chosen, ty)

            return run_cond
        if isinstance(expr, cast.Call):
            return self._call(expr, ty)
        if isinstance(expr, cast.Index):
            return self._load(expr)
        if isinstance(expr, cast.Swizzle):
            base = self.expr(expr.base)
            base_ty = self.program.type_of(expr.base)
            assert isinstance(base_ty, T.VectorType)
            idx = list(swizzle_indices(expr.components, base_ty.width, expr.line))
            if len(idx) == 1:
                only = idx[0]
                return lambda ctx: np.asarray(base(ctx))[..., only]
            return lambda ctx: np.asarray(base(ctx))[..., idx]
        if isinstance(expr, cast.Cast):
            operand = self.expr(expr.operand)
            return lambda ctx: cast_value(operand(ctx), ty)
        if isinstance(expr, cast.VectorLiteral):
            assert isinstance(ty, T.VectorType)
            elements = [self.expr(el) for el in expr.elements]
            width, dtype = ty.width, ty.dtype

            def run_vec(ctx: _Ctx) -> object:
                values = [np.asarray(el(ctx), dtype=dtype) for el in elements]
                if len(values) == 1:
                    values = values * width
                return np.stack(np.broadcast_arrays(*values), axis=-1)

            return run_vec
        raise UnsupportedKernelError(
            f"unsupported expression {type(expr).__name__} at line {expr.line}"
        )

    def _assign(self, expr: cast.Assign) -> _ExprFn:
        ty = self.program.type_of(expr.target)
        value = self.expr(expr.value)
        if expr.op != "=":
            op = expr.op[:-1]
            current = self.expr(expr.target)
            plain = value

            def compound(ctx: _Ctx) -> object:
                return apply_binary(op, current(ctx), plain(ctx), ty)

            value = compound
        target = expr.target
        if isinstance(target, cast.Ident):
            name = target.name

            def run_store_local(ctx: _Ctx) -> object:
                v = cast_value(value(ctx), ty)
                ctx.env[name] = v
                return v

            return run_store_local
        if isinstance(target, cast.Index):
            store = self._store(target)

            def run_store_mem(ctx: _Ctx) -> object:
                v = cast_value(value(ctx), ty)
                store(ctx, v)
                return v

            return run_store_mem
        raise UnsupportedKernelError(f"unsupported store target at line {expr.line}")

    # -- memory ----------------------------------------------------------------

    def _site(
        self, param: str, width: int | None, index_expr: cast.Expr, line: int
    ) -> int:
        if not self.owner._is_pure(index_expr):
            raise UnsupportedKernelError(
                f"index into {param!r} at line {line} is not a pure function "
                "of the iteration domain"
            )
        site_id = len(self.owner._sites)
        self.owner._sites.append(
            _Site(param=param, width=width, index=self.expr(index_expr), line=line)
        )
        return site_id

    def _load(self, expr: cast.Index) -> _ExprFn:
        if not isinstance(expr.base, cast.Ident):
            raise UnsupportedKernelError(f"indirect load at line {expr.line}")
        name, line = expr.base.name, expr.line
        width = self.owner._element_width(name, line)
        site = self._site(name, width, expr.index, line)
        view_key = (name, width)

        def run_load(ctx: _Ctx) -> object:
            return ctx.views[view_key][ctx.sel[site]]

        return run_load

    def _store(self, target: cast.Index) -> Callable[[_Ctx, object], None]:
        if not isinstance(target.base, cast.Ident):
            raise UnsupportedKernelError(f"indirect store at line {target.line}")
        name, line = target.base.name, target.line
        width = self.owner._element_width(name, line)
        site = self._site(name, width, target.index, line)
        view_key = (name, width)

        def run_store(ctx: _Ctx, value: object) -> None:
            _store_selected(
                ctx.views[view_key], ctx.sel[site], ctx.sel_len[site], value
            )

        return run_store

    def _vector_memory(self, expr: cast.Call, vec_mem: tuple[str, int]) -> _ExprFn:
        kind, width = vec_mem
        ptr_expr = expr.args[-1]
        if not isinstance(ptr_expr, cast.Ident):
            raise UnsupportedKernelError(
                f"vload/vstore through a computed pointer at line {expr.line}"
            )
        name, line = ptr_expr.name, expr.line
        # an explicit-width view, independent of the element type
        self.owner._element_width(name, line)  # must be a buffer
        view_key = (name, width)
        if kind == "load":
            site = self._site(name, width, expr.args[0], line)

            def run_vload(ctx: _Ctx) -> object:
                return ctx.views[view_key][ctx.sel[site]]

            return run_vload
        data_fn = self.expr(expr.args[0])
        site = self._site(name, width, expr.args[1], line)

        def run_vstore(ctx: _Ctx) -> object:
            _store_selected(
                ctx.views[view_key],
                ctx.sel[site],
                ctx.sel_len[site],
                data_fn(ctx),
            )
            return None

        return run_vstore

    # -- calls ----------------------------------------------------------------

    def _call(self, expr: cast.Call, ty: T.Type) -> _ExprFn:
        name = expr.func
        vec_mem = vector_memory_builtin(name)
        if vec_mem is not None:
            return self._vector_memory(expr, vec_mem)
        if name in BUILTIN_WORKITEM_FUNCTIONS:
            return self._workitem(expr, name)
        if name in BUILTIN_MATH_FUNCTIONS:
            args = [self.expr(a) for a in expr.args]
            return lambda ctx: apply_math(name, [a(ctx) for a in args], ty)
        raise UnsupportedKernelError(f"unsupported call {name!r} at line {expr.line}")

    def _workitem(self, expr: cast.Call, name: str) -> _ExprFn:
        if name == "get_work_dim":
            one = np.int64(1)
            return lambda ctx: one
        dim_expr = expr.args[0]
        dim = dim_expr.value if isinstance(dim_expr, cast.IntLiteral) else None
        zero = np.int64(0)
        if dim == 0:
            if name in ("get_global_id", "get_group_id"):
                return lambda ctx: ctx.env.get("gid0", zero)
            if name in ("get_global_size", "get_num_groups"):
                return lambda ctx: np.int64(ctx.n_items)
            value = zero if name == "get_local_id" else np.int64(1)
            return lambda ctx: value
        defaults = {
            "get_global_id": zero,
            "get_local_id": zero,
            "get_group_id": zero,
            "get_global_size": np.int64(1),
            "get_local_size": np.int64(1),
            "get_num_groups": np.int64(1),
        }
        value = defaults[name]
        return lambda ctx: value
