"""Whole-NDRange array execution with precomputed launch plans.

:class:`VectorKernel` is the fast driver of the kernel semantics; the
work-item interpreter (:mod:`repro.oclc.interp`) is the other, and the
oracle. It evaluates a kernel body as numpy arrays over the iteration
domain, and every AST dispatch, type lookup, operator ufunc, builtin
binding and swizzle index is resolved once, when the kernel is built,
into a flat list of statement closures.

It also exploits one observation: in an analyzable kernel every
load/store **index** is a pure function of the iteration domain —
``gid0``, counted-loop variables and constants — never of buffer
contents or scalar arguments. So each launch shape gets one *plan*
that selects every site's elements, and a plan for an affine index
costs a few operations per site, whatever N is. :class:`_Walker`
evaluates each index symbolically as a *walk* of the domain: a
constant plus one stride per dimension, where the dimensions are
``gid0`` and the counted loops, and ``v / D`` and ``v % D`` of a domain
variable split it in two where ``D`` divides its extent. A walk that is
one progression becomes a ``slice`` (``c[gid] = a[gid]`` runs as
``c_view[0:N:1] = a_view[0:N:1]``); any other becomes a strided view,
and the domain takes that walk's shape (the strided variants'
column-major walk ``(g % NI) * NJ + g / NI`` is the transposed
``NI x NJ`` array). The bounds check reads each walk's extremes from
the same form, so a generated kernel's plan builds no index array.

Every sub-expression's exact range is checked against its C type, so a
walk never hides a wrap. A site whose index is not a walk keeps the
*materialized* path: a bitwise or comparison operator, a conditional,
a product of two walks, a ``/`` or ``%`` that does not split the
domain (a non-divisor of the extent, a negative dividend), a narrowing
or unsigned wrap, or a store that would write one element twice. Its
index is evaluated over the domain arrays
(:func:`~repro.oclc.specialize.build_domain_env`) and used as a fancy
index. Those arrays and the pure locals are built only for such sites,
and for kernels whose statements read a domain variable or a pure
local as a value, which is known when the body is compiled. Plans are
cached per ``(n_items, buffer sizes)``; a cached plan pays when a queue
launches the same program again at one shape, since a benchmark point
executes its kernel once and times its other launches on the model
alone.

Eligibility is conservative and layered on the specializer's safety
analysis (no data-dependent control flow, no read/write parameter
overlap, no loop-carried state beyond sum reductions — see
:class:`~repro.oclc.specialize.SpecializedKernel`):

* every load/store index and vload/vstore offset must be **domain-pure**
  (reference only domain variables, domain-pure locals, literals and
  builtin calls thereof), so plans are launch-shape cacheable;
* no kernel argument may alias another in a way that crosses the
  read/write split (checked per launch with ``np.may_share_memory`` —
  slice and strided loads are *views*, so an aliased store could feed a
  later load);
* two stores into one buffer must cover disjoint element ranges
  (checked per plan from each site's extremes): this lane runs one
  statement over the whole domain before the next, where the
  interpreter interleaves them per work-item.

Anything else raises :class:`~repro.errors.UnsupportedKernelError`, and
the caller (:meth:`repro.ocl.queue.CommandQueue._execute`) runs the
kernel on the interpreter instead.

A value one per work-item carries the domain's axes, and a vector
value its lane axis last. Which of the two a value is comes from its
static C type, never from its shape: a scalar-typed value that meets a
vector type gains the lane axis when the body compiles, a full one
where it is converted (:meth:`_Compiler.typed`) and a one-lane axis
that broadcasting stretches where it is an operand
(:meth:`_Compiler.operand`).

The semantics are shared, not re-implemented: every closure calls the
module-level primitives of :mod:`repro.oclc.specialize`, and the
differential suite (``tests/test_vectorize_equivalence.py``) proves the
array lane bit-identical to the interpreter on the full conformance
grid.
"""

from __future__ import annotations

import functools
import math
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
    launch_domain,
    reduce_sum,
    specialize,
)

__all__ = ["VectorKernel", "vectorize_kernel"]

#: launch plans kept per kernel (FIFO); a sweep rarely cycles through
#: more than a couple of distinct (n_items, buffer-size) shapes at once
_PLAN_CACHE_SIZE = 4

#: the largest magnitude a walk may reach: NumPy computes a ``size_t``
#: mixed with an ``int`` in float64, which is exact only this far
_EXACT = 2**53


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

    ``bases``/``index`` are only bound for a launch: site ``i`` selects
    ``bases[i][index[i]]``, one element where ``index[i]`` is an
    ``int``. ``shape`` is the domain's, which every value per
    work-item has. The plan builder evaluates domain-pure expressions,
    which never touch memory, with ``env`` and ``n_items`` alone.
    """

    __slots__ = ("env", "n_items", "shape", "bases", "index")

    def __init__(
        self, env: dict[str, object], n_items: int, shape: tuple[int, ...] = ()
    ):
        self.env = env
        self.n_items = n_items
        self.shape = shape


_ExprFn = Callable[[_Ctx], object]
_StmtFn = Callable[[_Ctx], None]


@dataclass
class _Site:
    """One memory access whose selection is precomputed per plan."""

    param: str
    width: int | None  # None: scalar-element view; int: (rows, width) view
    expr: cast.Expr  # the index, walked per plan
    index: _ExprFn  # the index over the domain arrays, if materialized
    store: bool
    line: int


@dataclass
class _Plan:
    """Everything launch-shape-dependent, computed once and cached."""

    env_base: dict[str, object]
    shape: tuple[int, ...]  # the domain's
    sel: list[object]  # per _Site: int | slice | _Strided | index array


@dataclass(frozen=True)
class _Walk:
    """An index as a walk of the domain: ``const + sum(coeffs[d] * k[d])``.

    ``k[d]`` counts ``0 .. extent - 1`` along dimension ``d`` of the
    domain, outermost first. ``stream`` says whether the array lane's
    value is one per work-item (an array, even where every coefficient
    is 0) rather than a uniform scalar.
    """

    const: int
    coeffs: tuple[int, ...]
    stream: bool

    def span(self, extents: tuple[int, ...]) -> tuple[int, int]:
        """The lowest and highest value over the domain, exactly."""
        lo = hi = self.const
        for c, e in zip(self.coeffs, extents):
            if c < 0:
                lo += c * (e - 1)
            else:
                hi += c * (e - 1)
        return lo, hi


@dataclass(frozen=True)
class _Strided:
    """A walk's elements as a strided view of the buffer.

    NumPy checks that the view stays inside the buffer, and a load's
    view is read-only: a stride-0 view repeats one element.
    """

    offset: int
    shape: tuple[int, ...]
    coeffs: tuple[int, ...]

    def of(self, view: np.ndarray, writeable: bool) -> np.ndarray:
        row = view.strides[0]
        selected = np.ndarray(
            self.shape + view.shape[1:],
            view.dtype,
            view,
            self.offset * row,
            tuple(c * row for c in self.coeffs) + view.strides[1:],
        )
        if not writeable:
            selected.setflags(write=False)
        return selected


@functools.lru_cache(maxsize=None)
def _exact_range(dtype: np.dtype) -> tuple[int, int]:
    """The values an integer dtype holds that a walk may take."""
    info = np.iinfo(dtype)
    return max(int(info.min), -_EXACT), min(int(info.max), _EXACT)


def _workitem_value(expr: cast.Call) -> str | int:
    """A work-item query in the array lane's 1-D launch.

    ``"gid0"`` is the domain variable (0 where the domain has none),
    ``"n_items"`` the launch's size; anything else is a constant.
    """
    name = expr.func
    if name == "get_work_dim":
        return 1
    dim_expr = expr.args[0]
    dim = dim_expr.value if isinstance(dim_expr, cast.IntLiteral) else None
    if name in ("get_global_id", "get_group_id"):
        return "gid0" if dim == 0 else 0
    if name in ("get_global_size", "get_num_groups"):
        return "n_items" if dim == 0 else 1
    return 0 if name == "get_local_id" else 1


def _layout(
    domain: list[tuple[str, range]], splits: Mapping[str, set[int]]
) -> tuple[dict[str, _Walk], tuple[int, ...], tuple[str, ...]]:
    """The domain's variables as walks of its dimensions.

    A variable of ``n > 1`` values is a dimension of extent ``n``. One
    that indices divide by a chain of divisors ``D1 | D2 | ... | n``
    (from ``splits``) becomes the digits of that mixed radix instead,
    outermost first, so that ``v / Di`` and ``v % Di`` are walks too.
    Returns the walks, the extents and each dimension's variable.
    """
    digits: list[list[tuple[int, int]]] = []  # per variable: (extent, weight)
    for var, values in domain:
        n = len(values)
        if n < 2:
            digits.append([])
            continue
        chain = [n]
        for d in sorted(splits.get(var, ()), reverse=True):
            if chain[-1] % d == 0:
                chain.append(d)
        digits.append(
            [(hi // lo, lo) for hi, lo in zip(chain, chain[1:])] + [(chain[-1], 1)]
        )
    extents = tuple(e for var_digits in digits for e, _ in var_digits)
    owners = tuple(var for (var, _), ds in zip(domain, digits) for _ in ds)
    walks: dict[str, _Walk] = {}
    dim = 0
    for (var, values), var_digits in zip(domain, digits):
        coeffs = [0] * len(extents)
        for _, weight in var_digits:
            coeffs[dim] = values.step * weight
            dim += 1
        walks[var] = _Walk(values.start, tuple(coeffs), True)
    return walks, extents, owners


def _merge(extents: tuple[int, ...], walks: list[_Walk]) -> list[list[int]]:
    """Group adjacent dimensions that every walk steps through as one."""
    groups: list[list[int]] = []
    for d, e in enumerate(extents):
        if groups and all(w.coeffs[groups[-1][-1]] == w.coeffs[d] * e for w in walks):
            groups[-1].append(d)
        else:
            groups.append([d])
    return groups


def _injective(coeffs: tuple[int, ...], shape: tuple[int, ...]) -> bool:
    """Does the walk visit each element once? (Sufficient: a mixed radix.)"""
    reach = 0
    for c, e in sorted(zip(map(abs, coeffs), shape)):
        if e > 1 and c <= reach:
            return False
        reach += c * (e - 1)
    return True


def _lower(walk: _Walk, shape: tuple[int, ...], store: bool) -> object:
    """A walk's selection over a domain of ``shape``.

    One element for a uniform index, a slice for a progression over a
    1-D domain and a strided view otherwise; ``None`` where a store
    would write an element twice, which the materialized path does in
    the interpreter's order. A slice is the same view as a strided one,
    made several times faster, which shows on small launches.
    """
    if not walk.stream:
        return walk.const
    step = walk.coeffs[0]
    if len(shape) == 1 and step:
        stop = walk.const + step * shape[0]
        return slice(walk.const, stop if stop >= 0 else None, step)
    if store and not _injective(walk.coeffs, shape):
        return None
    return _Strided(walk.const, shape, walk.coeffs)


class _Walker:
    """Evaluates index expressions as walks of one launch's domain.

    Every sub-expression's exact range must fit its C type and
    :data:`_EXACT`. Anything else is not a walk (``None``): a wrap, a
    float, a bitwise, shift or comparison operator, a conditional, a
    call other than a work-item query, a product of two walks, or a
    ``/``/``%`` by anything but a positive constant that splits its
    non-negative operand into a quotient walk and a remainder walk.
    While ``splits`` is a dict, each ``v / D`` or ``v % D`` of a bare
    domain variable ``v`` whose extent ``D`` divides is noted in it.
    """

    def __init__(
        self,
        kernel: "VectorKernel",
        n_items: int,
        variables: dict[str, _Walk],
        extents: tuple[int, ...],
        owners: tuple[str, ...],
        splits: dict[str, set[int]] | None = None,
    ):
        self.program = kernel.program
        self.locals = kernel._pure_locals
        self.n_items = n_items
        self.variables = variables
        self.extents = extents
        self.owners = owners
        self.splits = splits
        self._zero = (0,) * len(extents)
        self._memo: dict[str, _Walk | None] = {}

    def walk(self, expr: cast.Expr) -> _Walk | None:
        if isinstance(expr, cast.IntLiteral):
            return self._fit(self._constant(expr.value), expr)
        if isinstance(expr, cast.Ident):
            return self._name(expr.name)
        if isinstance(expr, cast.Call) and expr.func in BUILTIN_WORKITEM_FUNCTIONS:
            value = _workitem_value(expr)
            if value == "gid0":
                walk = self.variables.get("gid0", self._constant(0))
            else:
                walk = self._constant(self.n_items if value == "n_items" else value)
            return self._fit(walk, expr)
        if isinstance(expr, cast.Cast):
            return self._fit(self.walk(expr.operand), expr)
        if isinstance(expr, cast.Unary) and expr.op in ("+", "-"):
            inner = self.walk(expr.operand)
            if inner is None or expr.op == "+":
                return inner
            negated = _Walk(-inner.const, tuple(-c for c in inner.coeffs), inner.stream)
            return self._fit(negated, expr)
        if isinstance(expr, cast.Binary) and expr.op in ("+", "-", "*", "/", "%"):
            left = self.walk(expr.left)
            right = self.walk(expr.right)
            if left is None or right is None:
                return None
            return self._fit(self._binary(expr.op, left, right), expr)
        return None

    def _constant(self, value: int) -> _Walk:
        return _Walk(int(value), self._zero, False)

    def _name(self, name: str) -> _Walk | None:
        if name in self.variables:
            return self.variables[name]
        if name not in self._memo:
            init, _, ty = self.locals[name]
            # a local declared without a value is a uniform 0
            walk = self._constant(0) if init is None else self.walk(init)
            self._memo[name] = self._fit_type(walk, ty)
        return self._memo[name]

    def _binary(self, op: str, left: _Walk, right: _Walk) -> _Walk | None:
        stream = left.stream or right.stream
        if op in ("+", "-"):
            sign = 1 if op == "+" else -1
            coeffs = tuple(a + sign * b for a, b in zip(left.coeffs, right.coeffs))
            return _Walk(left.const + sign * right.const, coeffs, stream)
        if op == "*":
            if any(right.coeffs):
                left, right = right, left
            if any(right.coeffs):
                return None  # a product of two walks
            k = right.const
            return _Walk(left.const * k, tuple(c * k for c in left.coeffs), stream)
        # x / D and x % D: with x = D * q + r and 0 <= r < D, C's
        # truncating quotient is q and its remainder r, for x >= 0
        d = right.const
        if any(right.coeffs) or d <= 0:
            return None
        self._note_split(left, d)
        if left.span(self.extents)[0] < 0:
            return None
        quotient, rest = divmod(left.const, d)
        r = _Walk(rest, tuple(0 if c % d == 0 else c for c in left.coeffs), stream)
        lo, hi = r.span(self.extents)
        if lo < 0 or hi >= d:
            return None
        if op == "%":
            return r
        q = tuple(c // d if c % d == 0 else 0 for c in left.coeffs)
        return _Walk(quotient, q, stream)

    def _note_split(self, left: _Walk, d: int) -> None:
        if self.splits is None or left.const:
            return
        dims = [i for i, c in enumerate(left.coeffs) if c]
        if len(dims) == 1 and left.coeffs[dims[0]] == 1:
            extent = self.extents[dims[0]]
            if d < extent and extent % d == 0:
                self.splits.setdefault(self.owners[dims[0]], set()).add(d)

    def _fit(self, walk: _Walk | None, expr: cast.Expr) -> _Walk | None:
        return self._fit_type(walk, self.program.type_of(expr))

    def _fit_type(self, walk: _Walk | None, ty: T.Type) -> _Walk | None:
        """``walk`` if C type ``ty`` holds each of its values exactly."""
        if walk is None or not (isinstance(ty, T.ScalarType) and ty.is_integer()):
            return None
        low, high = _exact_range(ty.dtype)
        lo, hi = walk.span(self.extents)
        return walk if low <= lo and hi <= high else None


def _per_item(value: np.ndarray, vector: bool) -> bool:
    """Is ``value`` one per work-item, rather than one for all?

    A vector-typed value always has its lane axis, so it has the
    domain's axes exactly when it has more than that one.
    """
    return value.ndim > (1 if vector else 0)


def _store_selected(
    base: np.ndarray, index: object, vector: bool, value: object
) -> None:
    """Scatter ``value``, of the element type, into ``base[index]``.

    One value per work-item stored to one element (an ``int`` index)
    refuses: the interpreter keeps the last work-item's.
    """
    arr = np.asarray(value)
    if isinstance(index, int) and _per_item(arr, vector):
        raise UnsupportedKernelError(
            "a value per work-item stored to one element"
        )
    base[index] = arr


def _splat(fn: _ExprFn, width: int) -> _ExprFn:
    """A scalar-typed value converted to a vector: every lane equal."""

    def run_splat(ctx: _Ctx) -> object:
        arr = np.asarray(fn(ctx))
        if arr.ndim:
            return np.broadcast_to(arr[..., None], arr.shape + (width,))
        return np.full(width, arr)

    return run_splat


def _lane_axis(fn: _ExprFn) -> _ExprFn:
    """A scalar-typed operand of a vector operation.

    A value per work-item gains a one-lane axis after its domain axes,
    which broadcasting stretches across the other side's lanes; a
    value for all work-items broadcasts as it is, on NumPy's fastest
    path.
    """

    def run_lane_axis(ctx: _Ctx) -> object:
        arr = np.asarray(fn(ctx))
        return arr[..., None] if arr.ndim else arr

    return run_lane_axis


class VectorKernel:
    """Runs a kernel as statement closures over pre-lowered selections."""

    def __init__(self, spec: SpecializedKernel):
        self.ir = spec.ir
        self.program = spec.program
        body = spec._body
        self._sites: list[_Site] = []
        #: domain-pure locals in declaration order: initializer (None: a
        #: zero), its closure over the domain arrays, and the C type
        self._pure_locals: dict[
            str, tuple[cast.Expr | None, _ExprFn | None, T.Type]
        ] = {}
        self._pure_names: set[str] = {"gid0"} | {loop.var for loop in self.ir.loops}
        #: whether a statement run per launch reads a domain variable or
        #: a pure local as a value, so every plan builds the domain arrays
        self._reads_domain = False
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
                target = red.stmt.expr.target  # type: ignore[attr-defined]
                steps.append(
                    comp.reduction(red.var, red.value, self.program.type_of(target))
                )
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
        fn = comp.plan_expr(decl.init, ty) if decl.init is not None else None
        self._pure_locals[decl.name] = (decl.init, fn, ty)
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

    def _walks(self, n_items: int) -> tuple[list[_Walk | None], tuple[int, ...]]:
        """Each site's index as a walk of the domain, and its shape.

        A site whose index is not a walk gets ``None``. The shape is the
        domain's dimensions, merged where every walk steps through them
        as one: 1-D unless some walk is not one progression.
        """
        domain = launch_domain(self.ir, n_items)
        count = math.prod(len(values) for _, values in domain)
        if not count:
            return [None] * len(self._sites), (0,)
        splits: dict[str, set[int]] = {}
        walker = _Walker(self, n_items, *_layout(domain, splits), splits=splits)
        walks = [walker.walk(site.expr) for site in self._sites]
        if splits:
            walker = _Walker(self, n_items, *_layout(domain, splits))
            walks = [walker.walk(site.expr) for site in self._sites]
        extents = walker.extents
        # one work-item: one dimension of one element
        groups = _merge(extents, [w for w in walks if w is not None]) or [[]]
        merged = [
            None if w is None
            else _Walk(
                w.const, tuple(w.coeffs[g[-1]] if g else 0 for g in groups), w.stream
            )
            for w in walks
        ]
        return merged, tuple(math.prod(extents[d] for d in g) for g in groups)

    def _build_plan(self, n_items: int, sizes: Mapping[str, int]) -> _Plan:
        walks, shape = self._walks(n_items)
        sel: list[object] = []
        extremes: list[tuple[int, int]] = []
        for site, walk in zip(self._sites, walks):
            if walk is None:
                sel.append(None)
                extremes.append((0, -1))
            else:
                sel.append(_lower(walk, shape, site.store))
                extremes.append(walk.span(shape))
        materialized = [i for i, lowering in enumerate(sel) if lowering is None]
        env: dict[str, object] = {}
        if materialized or self._reads_domain:
            env = self._domain_env(n_items, shape)
        pctx = _Ctx(env, n_items)
        for i in materialized:
            idx = np.asarray(self._sites[i].index(pctx), dtype=np.int64)
            sel[i] = idx if idx.ndim else int(idx)
            extremes[i] = (int(idx.min()), int(idx.max())) if idx.size else (0, -1)
        stored: list[tuple[_Site, int, int]] = []
        for site, (lo, hi) in zip(self._sites, extremes):
            size = sizes[site.param]
            width = site.width or 1
            if size % width:
                raise UnsupportedKernelError(
                    f"buffer {site.param!r} size {size} not divisible by "
                    f"vector width {width}"
                )
            if lo < 0 or hi >= size // width:
                raise UnsupportedKernelError(
                    f"out-of-bounds access to {site.param!r} at line {site.line}"
                )
            if not site.store or lo > hi:
                continue
            # statements run one after another over the whole domain,
            # but the interpreter interleaves them per work-item: two
            # stores may share a buffer only where they cannot meet
            first, last = lo * width, (hi + 1) * width - 1
            for other, other_first, other_last in stored:
                if other.param == site.param and (
                    first <= other_last and other_first <= last
                ):
                    raise UnsupportedKernelError(
                        f"stores to {site.param!r} at lines {other.line} and "
                        f"{site.line} overlap; their order is per work-item"
                    )
            stored.append((site, first, last))
        obs_metrics.count(
            "fastpath.sites.closed_form", len(self._sites) - len(materialized)
        )
        obs_metrics.count("fastpath.sites.materialized", len(materialized))
        return _Plan(env_base=env, shape=shape, sel=sel)

    def _domain_env(self, n_items: int, shape: tuple[int, ...]) -> dict[str, object]:
        """The domain variables and pure locals as arrays of ``shape``."""
        env: dict[str, object] = {
            var: values.reshape(shape)
            for var, values in build_domain_env(self.ir, n_items).items()
        }
        pctx = _Ctx(env, n_items)
        for name, (_, fn, ty) in self._pure_locals.items():
            if fn is None:
                env[name] = (
                    np.zeros(ty.width, dtype=ty.dtype)
                    if isinstance(ty, T.VectorType)
                    else ty.dtype.type(0)  # type: ignore[union-attr]
                )
            else:
                env[name] = cast_value(fn(pctx), ty)
        return env

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
            if not arr.flags.c_contiguous:
                # a strided view addresses the buffer's memory, and a
                # reshape would copy it
                raise UnsupportedKernelError(
                    f"buffer {name!r} is not contiguous; array-lane views need one"
                )
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
        ctx = _Ctx(env, n_items, plan.shape)
        views = self._make_views(buffers)
        ctx.bases = []
        ctx.index = []
        for site, sel in zip(self._sites, plan.sel):
            view = views[(site.param, site.width)]
            if isinstance(sel, _Strided):
                ctx.bases.append(sel.of(view, writeable=site.store))
                ctx.index.append(Ellipsis)
            else:
                ctx.bases.append(view)
                ctx.index.append(sel)
        for step in self._steps:
            step(ctx)


def _meets_vector(ty: T.Type, context: T.Type | None) -> bool:
    """Does a value of type ``ty`` meet a vector in ``context``?"""
    return isinstance(context, T.VectorType) and isinstance(ty, T.ScalarType)


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
        #: compiling an expression the plan builder evaluates, not a launch
        self._planning = False

    def plan_expr(self, expr: cast.Expr, ty: T.Type | None = None) -> _ExprFn:
        """Compile an index or pure initializer, which plans evaluate."""
        planning, self._planning = self._planning, True
        try:
            return self.typed(expr, ty)
        finally:
            self._planning = planning

    def typed(self, expr: cast.Expr, ty: T.Type | None) -> _ExprFn:
        """Compile ``expr`` converted to type ``ty``.

        A scalar-typed value converted to a vector type gains the lane
        axis, after any domain axes, as in OpenCL.
        """
        fn = self.expr(expr)
        if _meets_vector(self.program.type_of(expr), ty):
            return _splat(fn, ty.width)  # type: ignore[union-attr]
        return fn

    def operand(self, expr: cast.Expr, ty: T.Type) -> _ExprFn:
        """Compile ``expr`` as an operand of an operation of type ``ty``."""
        fn = self.expr(expr)
        if _meets_vector(self.program.type_of(expr), ty):
            return _lane_axis(fn)
        return fn

    def _reads_value(self, name: str) -> None:
        """Note a launch-time read of ``name``, which plans then bind."""
        if not self._planning and name in self.owner._pure_names:
            self.owner._reads_domain = True

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
        init = self.typed(decl.init, ty)

        def run_init(ctx: _Ctx) -> None:
            ctx.env[name] = cast_value(init(ctx), ty)

        return run_init

    def reduction(self, var: str, value_expr: cast.Expr, ty: T.Type) -> _StmtFn:
        """``var += value`` over the domain, one item at a time.

        A value one for all work-items refuses, and so does a float sum
        whose items have another element type than ``var``: the
        interpreter adds each such item in the pair's common type and
        rounds every step to ``var``'s.
        """
        item = self.program.type_of(value_expr)
        floats = ty.is_float() or item.is_float()
        if floats and item.dtype != ty.dtype:  # type: ignore[union-attr]
            raise UnsupportedKernelError(
                f"sum reduction of {item} items into {ty} {var!r}"
            )
        self._reads_value(var)
        value = self.typed(value_expr, ty)
        vector = isinstance(ty, T.VectorType)

        def run_reduction(ctx: _Ctx) -> None:
            if var not in ctx.env:
                raise UnsupportedKernelError(f"reduction variable {var!r} unbound")
            step = np.asarray(value(ctx))
            if not _per_item(step, vector):
                raise UnsupportedKernelError(
                    f"sum reduction of a uniform value into {var!r}"
                )
            # the domain's axes as one, however many the plan has
            step = step.reshape((-1,) + step.shape[len(ctx.shape) :])
            ctx.env[var] = reduce_sum(ctx.env[var], step)

        return run_reduction

    # -- expressions ----------------------------------------------------------

    def expr(self, expr: cast.Expr) -> _ExprFn:
        ty = self.program.type_of(expr)
        if isinstance(expr, (cast.IntLiteral, cast.FloatLiteral)):
            value = ty.dtype.type(expr.value)  # type: ignore[union-attr]
            return lambda ctx: value
        if isinstance(expr, cast.Ident):
            name, line = expr.name, expr.line
            self._reads_value(name)

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
            left = self.operand(expr.left, self.program.type_of(expr.right))
            right = self.operand(expr.right, self.program.type_of(expr.left))
            return lambda ctx: apply_binary(op, left(ctx), right(ctx), ty)
        if isinstance(expr, cast.Assign):
            return self._assign(expr)
        if isinstance(expr, cast.Conditional):
            cond = self.operand(expr.cond, ty)
            then = self.operand(expr.then, ty)
            other = self.operand(expr.other, ty)

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
            operand = self.typed(expr.operand, ty)
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
        value = self.typed(expr.value, ty)
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
        self, param: str, width: int | None, index_expr: cast.Expr, line: int,
        store: bool,
    ) -> int:
        if not self.owner._is_pure(index_expr):
            raise UnsupportedKernelError(
                f"index into {param!r} at line {line} is not a pure function "
                "of the iteration domain"
            )
        site_id = len(self.owner._sites)
        self.owner._sites.append(
            _Site(
                param=param,
                width=width,
                expr=index_expr,
                index=self.plan_expr(index_expr),
                store=store,
                line=line,
            )
        )
        return site_id

    def _load(self, expr: cast.Index) -> _ExprFn:
        if not isinstance(expr.base, cast.Ident):
            raise UnsupportedKernelError(f"indirect load at line {expr.line}")
        name, line = expr.base.name, expr.line
        width = self.owner._element_width(name, line)
        site = self._site(name, width, expr.index, line, store=False)

        def run_load(ctx: _Ctx) -> object:
            return ctx.bases[site][ctx.index[site]]

        return run_load

    def _store(self, target: cast.Index) -> Callable[[_Ctx, object], None]:
        if not isinstance(target.base, cast.Ident):
            raise UnsupportedKernelError(f"indirect store at line {target.line}")
        name, line = target.base.name, target.line
        width = self.owner._element_width(name, line)
        site = self._site(name, width, target.index, line, store=True)
        vector = width is not None

        def run_store(ctx: _Ctx, value: object) -> None:
            _store_selected(ctx.bases[site], ctx.index[site], vector, value)

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
        if kind == "load":
            site = self._site(name, width, expr.args[0], line, store=False)

            def run_vload(ctx: _Ctx) -> object:
                return ctx.bases[site][ctx.index[site]]

            return run_vload
        data_fn = self.expr(expr.args[0])
        site = self._site(name, width, expr.args[1], line, store=True)

        def run_vstore(ctx: _Ctx) -> object:
            _store_selected(ctx.bases[site], ctx.index[site], True, data_fn(ctx))
            return None

        return run_vstore

    # -- calls ----------------------------------------------------------------

    def _call(self, expr: cast.Call, ty: T.Type) -> _ExprFn:
        name = expr.func
        vec_mem = vector_memory_builtin(name)
        if vec_mem is not None:
            return self._vector_memory(expr, vec_mem)
        if name in BUILTIN_WORKITEM_FUNCTIONS:
            return self._workitem(expr)
        if name in BUILTIN_MATH_FUNCTIONS:
            args = [self.operand(a, ty) for a in expr.args]
            return lambda ctx: apply_math(name, [a(ctx) for a in args], ty)
        raise UnsupportedKernelError(f"unsupported call {name!r} at line {expr.line}")

    def _workitem(self, expr: cast.Call) -> _ExprFn:
        value = _workitem_value(expr)
        if value == "gid0":
            self._reads_value("gid0")
            zero = np.int64(0)
            return lambda ctx: ctx.env.get("gid0", zero)
        if value == "n_items":
            return lambda ctx: np.int64(ctx.n_items)
        constant = np.int64(value)
        return lambda ctx: constant
