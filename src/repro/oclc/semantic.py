"""Semantic analysis: symbol resolution and type checking.

Produces a :class:`CheckedProgram` that annotates every expression node
with its static type (in an identity-keyed side table, since AST nodes
are frozen). Both the interpreter and the device models rely on these
annotations: the interpreter for numpy dtype selection, the models for
memory transaction widths.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from ..errors import SemanticError
from ..ocl import types as T
from . import cast

if TYPE_CHECKING:  # pragma: no cover
    from .analysis import KernelIR

__all__ = [
    "BUILTIN_WORKITEM_FUNCTIONS",
    "BUILTIN_MATH_FUNCTIONS",
    "vector_memory_builtin",
    "Symbol",
    "Scope",
    "CheckedProgram",
    "check",
]

#: Work-item query builtins: name -> (arg count, return type).
BUILTIN_WORKITEM_FUNCTIONS: dict[str, tuple[int, T.Type]] = {
    "get_global_id": (1, T.SIZE_T),
    "get_local_id": (1, T.SIZE_T),
    "get_group_id": (1, T.SIZE_T),
    "get_global_size": (1, T.SIZE_T),
    "get_local_size": (1, T.SIZE_T),
    "get_num_groups": (1, T.SIZE_T),
    "get_work_dim": (0, T.UINT),
}

#: Math builtins: name -> arity. Return type follows the promoted args.
BUILTIN_MATH_FUNCTIONS: dict[str, int] = {
    "min": 2,
    "max": 2,
    "clamp": 3,
    "fabs": 1,
    "abs": 1,
    "sqrt": 1,
    "exp": 1,
    "log": 1,
    "floor": 1,
    "ceil": 1,
    "fma": 3,
    "mad": 3,
    "mul24": 2,
    "mad24": 3,
}

#: Synchronization / misc builtins treated as no-ops by the interpreter.
BUILTIN_VOID_FUNCTIONS: dict[str, int] = {
    "barrier": 1,
    "mem_fence": 1,
}

_VLOAD_RE = re.compile(r"^(vload|vstore)(2|3|4|8|16)$")


def vector_memory_builtin(name: str) -> tuple[str, int] | None:
    """Decode ``vloadN``/``vstoreN`` into ("load"/"store", N), else None."""
    m = _VLOAD_RE.match(name)
    if not m:
        return None
    return ("load" if m.group(1) == "vload" else "store", int(m.group(2)))


_SWIZZLE_XYZW = "xyzw"


@dataclass
class Symbol:
    """A named value in scope."""

    name: str
    type: T.Type
    is_param: bool = False
    is_const: bool = False


class Scope:
    """A lexical scope chain."""

    def __init__(self, parent: Optional["Scope"] = None):
        self.parent = parent
        self._symbols: dict[str, Symbol] = {}

    def declare(self, sym: Symbol, line: int = 0) -> None:
        if sym.name in self._symbols:
            raise SemanticError(f"redeclaration of {sym.name!r}", line=line)
        self._symbols[sym.name] = sym

    def lookup(self, name: str) -> Optional[Symbol]:
        scope: Optional[Scope] = self
        while scope is not None:
            if name in scope._symbols:
                return scope._symbols[name]
            scope = scope.parent
        return None

    def child(self) -> "Scope":
        return Scope(self)


@dataclass
class CheckedProgram:
    """A type-checked translation unit.

    ``expr_types`` maps ``id(expr_node) -> Type``; the AST root is kept
    alive here so the identity keys stay valid.
    """

    unit: cast.TranslationUnit
    expr_types: dict[int, T.Type] = field(default_factory=dict)
    param_types: dict[str, dict[str, T.Type]] = field(default_factory=dict)
    #: each analyzed kernel's :class:`~repro.oclc.analysis.KernelIR`, by
    #: kernel name; :func:`~repro.oclc.analysis.analyze` fills it
    irs: dict[str, KernelIR] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def type_of(self, expr: cast.Expr) -> T.Type:
        try:
            return self.expr_types[id(expr)]
        except KeyError:
            raise SemanticError(
                f"expression at line {expr.line} was not type-checked"
            ) from None

    def kernel(self, name: str | None = None) -> cast.FunctionDef:
        return self.unit.kernel(name)


def check(unit: cast.TranslationUnit) -> CheckedProgram:
    """Type-check a translation unit, returning the annotated program."""
    program = CheckedProgram(unit)
    for func in unit.functions:
        _Checker(program, func).run()
    return program


class _Checker:
    def __init__(self, program: CheckedProgram, func: cast.FunctionDef):
        self.program = program
        self.func = func
        self.return_type = (
            T.VOID if func.return_type == "void" else T.parse_type_name(func.return_type)
        )

    def run(self) -> None:
        scope = Scope()
        param_types: dict[str, T.Type] = {}
        for param in self.func.params:
            base = T.parse_type_name(param.type_name)
            ty: T.Type = (
                T.pointer(base, param.address_space) if param.is_pointer else base
            )
            scope.declare(
                Symbol(param.name, ty, is_param=True, is_const="const" in param.qualifiers),
                line=param.line,
            )
            param_types[param.name] = ty
        self.program.param_types[self.func.name] = param_types
        self._check_attributes()
        self._stmt(self.func.body, scope)

    def _check_attributes(self) -> None:
        known = {
            "reqd_work_group_size": 3,
            "work_group_size_hint": 3,
            "num_simd_work_items": 1,
            "num_compute_units": 1,
            "max_work_group_size": 1,
            "opencl_unroll_hint": 1,
            "xcl_pipeline_loop": 0,
            "xcl_pipeline_workitems": 0,
            "xcl_max_memory_ports": 1,
            "xcl_memory_port_data_width": 1,
        }
        for attr in self.func.attributes:
            if attr.name not in known:
                raise SemanticError(
                    f"unknown attribute {attr.name!r}", line=attr.line
                )
            want = known[attr.name]
            if want and len(attr.args) != want:
                raise SemanticError(
                    f"attribute {attr.name!r} takes {want} argument(s), "
                    f"got {len(attr.args)}",
                    line=attr.line,
                )

    # -- statements ---------------------------------------------------------

    def _stmt(self, stmt: cast.Stmt, scope: Scope) -> None:
        if isinstance(stmt, cast.Block):
            inner = scope.child()
            for s in stmt.body:
                self._stmt(s, inner)
        elif isinstance(stmt, cast.DeclStmt):
            ty = T.parse_type_name(stmt.type_name)
            if stmt.init is not None:
                init_ty = self._expr(stmt.init, scope)
                self._require_convertible(init_ty, ty, stmt.line)
            scope.declare(
                Symbol(stmt.name, ty, is_const="const" in stmt.qualifiers),
                line=stmt.line,
            )
        elif isinstance(stmt, cast.ExprStmt):
            self._expr(stmt.expr, scope)
        elif isinstance(stmt, cast.If):
            self._condition(stmt.cond, scope)
            self._stmt(stmt.then, scope)
            if stmt.other is not None:
                self._stmt(stmt.other, scope)
        elif isinstance(stmt, cast.For):
            inner = scope.child()
            if stmt.init is not None:
                self._stmt(stmt.init, inner)
            if stmt.cond is not None:
                self._condition(stmt.cond, inner)
            if stmt.step is not None:
                self._expr(stmt.step, inner)
            self._stmt(stmt.body, inner)
        elif isinstance(stmt, cast.While):
            self._condition(stmt.cond, scope)
            self._stmt(stmt.body, scope)
        elif isinstance(stmt, cast.Return):
            if stmt.value is None:
                if self.return_type is not T.VOID:
                    raise SemanticError("missing return value", line=stmt.line)
            else:
                ty = self._expr(stmt.value, scope)
                self._require_convertible(ty, self.return_type, stmt.line)
        elif isinstance(stmt, (cast.Break, cast.Continue, cast.Pragma)):
            pass
        else:  # pragma: no cover - parser produces no other nodes
            raise SemanticError(f"unhandled statement {type(stmt).__name__}")

    def _require_convertible(self, source: T.Type, target: T.Type, line: int) -> None:
        """Implicit conversion rules: numerics convert freely; vectors
        only to the same width; pointers don't convert at all."""
        if source is target:
            return
        if isinstance(target, T.VoidType) or isinstance(source, T.VoidType):
            raise SemanticError(f"cannot convert {source} to {target}", line=line)
        if isinstance(source, T.PointerType) or isinstance(target, T.PointerType):
            raise SemanticError(
                f"cannot implicitly convert {source} to {target}", line=line
            )
        if isinstance(target, T.VectorType):
            if isinstance(source, T.VectorType) and source.width != target.width:
                raise SemanticError(
                    f"vector width mismatch: {source} vs {target}", line=line
                )
            return  # scalar splats and same-width vectors convert
        if isinstance(source, T.VectorType):
            raise SemanticError(
                f"cannot narrow vector {source} to scalar {target}", line=line
            )
        # scalar to scalar: always convertible in C

    def _condition(self, expr: cast.Expr, scope: Scope) -> None:
        ty = self._expr(expr, scope)
        if isinstance(ty, T.VectorType):
            raise SemanticError(
                "condition must be scalar, not a vector", line=expr.line
            )

    # -- expressions ----------------------------------------------------------

    def _expr(self, expr: cast.Expr, scope: Scope) -> T.Type:
        ty = self._expr_inner(expr, scope)
        self.program.expr_types[id(expr)] = ty
        return ty

    def _expr_inner(self, expr: cast.Expr, scope: Scope) -> T.Type:
        if isinstance(expr, cast.IntLiteral):
            if "u" in expr.suffix and "l" in expr.suffix:
                return T.ULONG
            if "l" in expr.suffix:
                return T.LONG
            if "u" in expr.suffix:
                return T.UINT
            return T.INT
        if isinstance(expr, cast.FloatLiteral):
            return T.FLOAT if expr.suffix == "f" else T.DOUBLE
        if isinstance(expr, cast.Ident):
            sym = scope.lookup(expr.name)
            if sym is None:
                raise SemanticError(f"undeclared identifier {expr.name!r}", line=expr.line)
            return sym.type
        if isinstance(expr, cast.Unary):
            base = self._expr(expr.operand, scope)
            if expr.op in ("++", "--", "p++", "p--"):
                if not isinstance(expr.operand, (cast.Ident, cast.Index)):
                    raise SemanticError(
                        f"{expr.op} needs an lvalue", line=expr.line
                    )
                if not base.is_integer():
                    raise SemanticError(
                        f"{expr.op} needs an integer lvalue", line=expr.line
                    )
                return base
            if expr.op == "!":
                self._scalar_logic("!", base, expr.line)
                return T.INT
            if expr.op == "~" and not base.is_integer():
                raise SemanticError("~ needs an integer operand", line=expr.line)
            if not base.is_numeric():
                raise SemanticError(
                    f"unary {expr.op} on non-numeric {base}", line=expr.line
                )
            return base
        if isinstance(expr, cast.Binary):
            left = self._expr(expr.left, scope)
            right = self._expr(expr.right, scope)
            return self._binary_type(expr.op, left, right, expr.line)
        if isinstance(expr, cast.Assign):
            target = self._expr(expr.target, scope)
            value = self._expr(expr.value, scope)
            sym = (
                scope.lookup(expr.target.name)
                if isinstance(expr.target, cast.Ident)
                else None
            )
            if sym is not None and sym.is_const:
                raise SemanticError(
                    f"assignment to const {sym.name!r}", line=expr.line
                )
            if expr.op != "=":
                self._binary_type(expr.op[:-1], target, value, expr.line)
            self._require_convertible(value, target, expr.line)
            return target
        if isinstance(expr, cast.Conditional):
            self._condition(expr.cond, scope)
            then = self._expr(expr.then, scope)
            other = self._expr(expr.other, scope)
            try:
                return T.common_numeric_type(then, other)
            except Exception as exc:
                raise SemanticError(str(exc), line=expr.line) from exc
        if isinstance(expr, cast.Call):
            return self._call_type(expr, scope)
        if isinstance(expr, cast.Index):
            base = self._expr(expr.base, scope)
            index = self._expr(expr.index, scope)
            if not isinstance(base, T.PointerType):
                raise SemanticError(
                    f"cannot index non-pointer type {base}", line=expr.line
                )
            if not index.is_integer():
                raise SemanticError(
                    f"array index must be integer, got {index}", line=expr.line
                )
            return base.pointee
        if isinstance(expr, cast.Swizzle):
            base = self._expr(expr.base, scope)
            return self._swizzle_type(base, expr.components, expr.line)
        if isinstance(expr, cast.Cast):
            self._expr(expr.operand, scope)
            return T.parse_type_name(expr.type_name)
        if isinstance(expr, cast.VectorLiteral):
            ty = T.parse_type_name(expr.type_name)
            if not isinstance(ty, T.VectorType):
                raise SemanticError(
                    f"{expr.type_name} is not a vector type", line=expr.line
                )
            if len(expr.elements) not in (1, ty.width):
                raise SemanticError(
                    f"vector literal for {ty} needs 1 or {ty.width} elements, "
                    f"got {len(expr.elements)}",
                    line=expr.line,
                )
            for el in expr.elements:
                el_ty = self._expr(el, scope)
                if not el_ty.is_numeric():
                    raise SemanticError(
                        "vector literal element must be numeric", line=el.line
                    )
            return ty
        raise SemanticError(
            f"unhandled expression {type(expr).__name__}", line=expr.line
        )

    @staticmethod
    def _scalar_logic(op: str, operand: T.Type, line: int) -> None:
        # OpenCL's component-wise -1/0 result is not implemented
        if isinstance(operand, T.VectorType):
            raise SemanticError(
                f"operator {op} on vector type {operand} is not supported",
                line=line,
            )

    def _binary_type(self, op: str, left: T.Type, right: T.Type, line: int) -> T.Type:
        if op in ("&&", "||"):
            self._scalar_logic(op, left, line)
            self._scalar_logic(op, right, line)
            return T.INT
        if op in ("==", "!=", "<", ">", "<=", ">="):
            try:
                common = T.common_numeric_type(left, right)
            except Exception as exc:
                raise SemanticError(str(exc), line=line) from exc
            if isinstance(common, T.VectorType):
                # OpenCL vector compare yields a signed integer vector.
                return T.vector("int" if common.kind.size <= 4 else "long", common.width)
            return T.INT
        if op in ("%", "&", "|", "^", "<<", ">>"):
            if not (left.is_integer() and right.is_integer()):
                raise SemanticError(
                    f"operator {op} needs integer operands, got {left} and {right}",
                    line=line,
                )
        if not (left.is_numeric() and right.is_numeric()):
            raise SemanticError(
                f"operator {op} on non-numeric types {left}, {right}", line=line
            )
        try:
            return T.common_numeric_type(left, right)
        except Exception as exc:
            raise SemanticError(str(exc), line=line) from exc

    def _call_type(self, expr: cast.Call, scope: Scope) -> T.Type:
        name = expr.func
        arg_types = [self._expr(a, scope) for a in expr.args]
        vec_mem = vector_memory_builtin(name)
        if vec_mem is not None:
            return self._vector_memory_type(expr, vec_mem, arg_types)
        if name in BUILTIN_WORKITEM_FUNCTIONS:
            arity, ret = BUILTIN_WORKITEM_FUNCTIONS[name]
            if len(arg_types) != arity:
                raise SemanticError(
                    f"{name} takes {arity} argument(s)", line=expr.line
                )
            for ty in arg_types:
                if not ty.is_integer():
                    raise SemanticError(
                        f"{name} argument must be an integer", line=expr.line
                    )
            return ret
        if name in BUILTIN_MATH_FUNCTIONS:
            arity = BUILTIN_MATH_FUNCTIONS[name]
            if len(arg_types) != arity:
                raise SemanticError(
                    f"{name} takes {arity} argument(s)", line=expr.line
                )
            result = arg_types[0]
            for ty in arg_types[1:]:
                try:
                    result = T.common_numeric_type(result, ty)
                except Exception as exc:
                    raise SemanticError(str(exc), line=expr.line) from exc
            if name in ("sqrt", "exp", "log", "fma", "mad") and result.is_integer():
                result = T.DOUBLE if not isinstance(result, T.VectorType) else T.vector(
                    "double", result.width
                )
            return result
        if name in BUILTIN_VOID_FUNCTIONS:
            return T.VOID
        # user helper function defined in the same unit
        for func in self.program.unit.functions:
            if func.name == name:
                if len(arg_types) != len(func.params):
                    raise SemanticError(
                        f"{name} takes {len(func.params)} argument(s)", line=expr.line
                    )
                return (
                    T.VOID
                    if func.return_type == "void"
                    else T.parse_type_name(func.return_type)
                )
        raise SemanticError(f"unknown function {name!r}", line=expr.line)

    def _vector_memory_type(
        self,
        expr: cast.Call,
        vec_mem: tuple[str, int],
        arg_types: list[T.Type],
    ) -> T.Type:
        """Type-check ``vloadN(offset, p)`` / ``vstoreN(data, offset, p)``."""
        kind, width = vec_mem
        if kind == "load":
            if len(arg_types) != 2:
                raise SemanticError(
                    f"vload{width} takes (offset, pointer)", line=expr.line
                )
            offset_ty, ptr_ty = arg_types
        else:
            if len(arg_types) != 3:
                raise SemanticError(
                    f"vstore{width} takes (data, offset, pointer)", line=expr.line
                )
            data_ty, offset_ty, ptr_ty = arg_types
            if not (isinstance(data_ty, T.VectorType) and data_ty.width == width):
                raise SemanticError(
                    f"vstore{width} data must be a width-{width} vector, "
                    f"got {data_ty}",
                    line=expr.line,
                )
        if not offset_ty.is_integer():
            raise SemanticError("vload/vstore offset must be integer", line=expr.line)
        if not isinstance(ptr_ty, T.PointerType) or not isinstance(
            ptr_ty.pointee, T.ScalarType
        ):
            raise SemanticError(
                "vload/vstore pointer must point at scalars", line=expr.line
            )
        if kind == "store":
            base = expr.args[0]
            data_kind = self.program.type_of(base)
            assert isinstance(data_kind, T.VectorType)
            if data_kind.kind.name != ptr_ty.pointee.kind.name:
                raise SemanticError(
                    f"vstore{width}: vector of {data_kind.kind.name} into "
                    f"{ptr_ty.pointee} buffer",
                    line=expr.line,
                )
            return T.VOID
        return T.vector(ptr_ty.pointee.kind.name, width)

    def _swizzle_type(self, base: T.Type, components: str, line: int) -> T.Type:
        if not isinstance(base, T.VectorType):
            raise SemanticError(
                f"swizzle on non-vector type {base}", line=line
            )
        if components in ("lo", "hi", "even", "odd"):
            half = base.width // 2
            return (
                T.scalar(base.kind.name) if half == 1 else T.vector(base.kind.name, half)
            )
        indices = swizzle_indices(components, base.width, line)
        if len(indices) == 1:
            return T.scalar(base.kind.name)
        if len(indices) not in T.VECTOR_WIDTHS:
            raise SemanticError(
                f"swizzle produces invalid width {len(indices)}", line=line
            )
        return T.vector(base.kind.name, len(indices))


def swizzle_indices(components: str, width: int, line: int = 0) -> tuple[int, ...]:
    """Decode swizzle component text into lane indices.

    Supports ``xyzw`` and the ``sN`` hex-numbered form.
    """
    if components in ("lo", "hi", "even", "odd"):
        half = width // 2
        if components == "lo":
            return tuple(range(half))
        if components == "hi":
            return tuple(range(half, width))
        if components == "even":
            return tuple(range(0, width, 2))
        return tuple(range(1, width, 2))
    if components.startswith("s") and len(components) > 1:
        try:
            indices = tuple(int(c, 16) for c in components[1:])
        except ValueError:
            raise SemanticError(
                f"bad swizzle {components!r}", line=line
            ) from None
    else:
        try:
            indices = tuple(_SWIZZLE_XYZW.index(c) for c in components)
        except ValueError:
            raise SemanticError(
                f"bad swizzle {components!r}", line=line
            ) from None
    for idx in indices:
        if idx >= width:
            raise SemanticError(
                f"swizzle index {idx} out of range for width {width}", line=line
            )
    return indices
