"""AST node definitions for the OpenCL-C subset ("cast" = C AST).

The subset covers what memory benchmarks and simple HPC kernels need:
function definitions (``__kernel`` or helper), scalar/vector/pointer
declarations with initializers, ``for``/``while``/``if``/``return``,
the usual expression grammar (assignment through primary), vector
swizzles, calls to OpenCL builtins, ``__attribute__((...))`` lists and
``#pragma unroll``.

Nodes are frozen dataclasses; each carries its source line for
diagnostics. A small pretty-printer (:func:`to_source`) regenerates
compilable source from the AST, which the tests round-trip.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

__all__ = [
    "Node",
    "Expr",
    "Stmt",
    "IntLiteral",
    "FloatLiteral",
    "Ident",
    "Unary",
    "Binary",
    "Assign",
    "Conditional",
    "Call",
    "Index",
    "Swizzle",
    "Cast",
    "VectorLiteral",
    "DeclStmt",
    "ExprStmt",
    "Block",
    "If",
    "For",
    "While",
    "Return",
    "Break",
    "Continue",
    "Pragma",
    "Attribute",
    "Param",
    "FunctionDef",
    "TranslationUnit",
    "to_source",
    "ASSIGN_OPS",
    "BINARY_OPS",
    "BINARY_PRECEDENCE",
    "UNARY_OPS",
]

#: Compound-assignment operators the parser accepts (plus plain ``=``).
ASSIGN_OPS = ("=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=")

#: Binary operators, grouped by precedence from low to high.
BINARY_OPS = (
    ("||",),
    ("&&",),
    ("|",),
    ("^",),
    ("&",),
    ("==", "!="),
    ("<", ">", "<=", ">="),
    ("<<", ">>"),
    ("+", "-"),
    ("*", "/", "%"),
)

#: Each binary operator's precedence level: its index in ``BINARY_OPS``.
BINARY_PRECEDENCE = {op: level for level, ops in enumerate(BINARY_OPS) for op in ops}

UNARY_OPS = ("-", "+", "!", "~")


@dataclass(frozen=True)
class Node:
    """Common base: every node knows its 1-based source line."""

    line: int = field(default=0, kw_only=True)


class Expr(Node):
    """Marker base for expressions."""


class Stmt(Node):
    """Marker base for statements."""


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntLiteral(Expr):
    value: int
    suffix: str = ""  # "", "u", "l", "ul"


@dataclass(frozen=True)
class FloatLiteral(Expr):
    value: float
    suffix: str = ""  # "", "f"


@dataclass(frozen=True)
class Ident(Expr):
    name: str


@dataclass(frozen=True)
class Unary(Expr):
    op: str
    operand: Expr
    # prefix/postfix ++/-- are represented with ops "p++", "p--", "++", "--"


@dataclass(frozen=True)
class Binary(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Assign(Expr):
    op: str  # one of ASSIGN_OPS
    target: Expr
    value: Expr


@dataclass(frozen=True)
class Conditional(Expr):
    cond: Expr
    then: Expr
    other: Expr


@dataclass(frozen=True)
class Call(Expr):
    func: str
    args: tuple[Expr, ...]


@dataclass(frozen=True)
class Index(Expr):
    base: Expr
    index: Expr


@dataclass(frozen=True)
class Swizzle(Expr):
    """Vector component access: ``v.x``, ``v.s0``, ``v.lo`` etc."""

    base: Expr
    components: str


@dataclass(frozen=True)
class Cast(Expr):
    type_name: str
    operand: Expr


@dataclass(frozen=True)
class VectorLiteral(Expr):
    """``(int4)(a, b, c, d)`` or splat ``(int4)(x)``."""

    type_name: str
    elements: tuple[Expr, ...]


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DeclStmt(Stmt):
    type_name: str
    name: str
    init: Optional[Expr] = None
    qualifiers: tuple[str, ...] = ()  # const, __local, ...


@dataclass(frozen=True)
class ExprStmt(Stmt):
    expr: Expr


@dataclass(frozen=True)
class Block(Stmt):
    body: tuple[Stmt, ...]


@dataclass(frozen=True)
class If(Stmt):
    cond: Expr
    then: Stmt
    other: Optional[Stmt] = None


@dataclass(frozen=True)
class For(Stmt):
    init: Optional[Stmt]  # DeclStmt or ExprStmt or None
    cond: Optional[Expr]
    step: Optional[Expr]
    body: Stmt
    unroll: int = 1  # from a preceding '#pragma unroll N' or unroll_hint attribute


@dataclass(frozen=True)
class While(Stmt):
    cond: Expr
    body: Stmt


@dataclass(frozen=True)
class Return(Stmt):
    value: Optional[Expr] = None


@dataclass(frozen=True)
class Break(Stmt):
    pass


@dataclass(frozen=True)
class Continue(Stmt):
    pass


@dataclass(frozen=True)
class Pragma(Stmt):
    """A pragma kept in statement position (e.g. standalone ``#pragma``)."""

    text: str


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Attribute(Node):
    """One entry of an ``__attribute__((name(arg, ...)))`` list."""

    name: str
    args: tuple[int, ...] = ()


@dataclass(frozen=True)
class Param(Node):
    """A kernel/function parameter."""

    type_name: str
    name: str
    address_space: str = "__private"
    is_pointer: bool = False
    qualifiers: tuple[str, ...] = ()  # const, restrict, volatile


@dataclass(frozen=True)
class FunctionDef(Node):
    name: str
    return_type: str
    params: tuple[Param, ...]
    body: Block
    is_kernel: bool = False
    attributes: tuple[Attribute, ...] = ()


@dataclass(frozen=True)
class TranslationUnit(Node):
    functions: tuple[FunctionDef, ...]

    def kernel(self, name: str | None = None) -> FunctionDef:
        """Return the named kernel, or the sole kernel if unnamed."""
        kernels = [f for f in self.functions if f.is_kernel]
        if name is None:
            if len(kernels) != 1:
                raise ValueError(
                    f"expected exactly one kernel, found {[k.name for k in kernels]}"
                )
            return kernels[0]
        for k in kernels:
            if k.name == name:
                return k
        raise KeyError(f"no kernel named {name!r} (have {[k.name for k in kernels]})")


# ---------------------------------------------------------------------------
# Pretty-printer
# ---------------------------------------------------------------------------


def to_source(node: Union[Node, TranslationUnit], indent: int = 0) -> str:
    """Regenerate OpenCL-C source from an AST.

    The output is normalized (canonical spacing, explicit braces) but
    parses back to a structurally identical AST, which the round-trip
    property test relies on.
    """
    pad = "    " * indent
    if isinstance(node, TranslationUnit):
        return "\n\n".join(to_source(f) for f in node.functions) + "\n"
    if isinstance(node, FunctionDef):
        parts = []
        if node.is_kernel:
            parts.append("__kernel")
        for attr in node.attributes:
            if attr.args:
                args = ", ".join(str(a) for a in attr.args)
                parts.append(f"__attribute__(({attr.name}({args})))")
            else:
                parts.append(f"__attribute__(({attr.name}))")
        params = ", ".join(_param_src(p) for p in node.params)
        header = " ".join(parts + [node.return_type, f"{node.name}({params})"])
        return header + " " + to_source(node.body, indent)
    if isinstance(node, Block):
        inner = "\n".join(to_source(s, indent + 1) for s in node.body)
        return "{\n" + inner + ("\n" if inner else "") + pad + "}"
    if isinstance(node, DeclStmt):
        quals = "".join(q + " " for q in node.qualifiers)
        init = f" = {_expr_src(node.init)}" if node.init is not None else ""
        return f"{pad}{quals}{node.type_name} {node.name}{init};"
    if isinstance(node, ExprStmt):
        return f"{pad}{_expr_src(node.expr)};"
    if isinstance(node, If):
        src = f"{pad}if ({_expr_src(node.cond)}) " + _stmt_as_block(node.then, indent)
        if node.other is not None:
            src += " else " + _stmt_as_block(node.other, indent)
        return src
    if isinstance(node, For):
        init = ""
        if isinstance(node.init, DeclStmt):
            init = to_source(node.init, 0).strip()[:-1]  # drop ';'
        elif isinstance(node.init, ExprStmt):
            init = _expr_src(node.init.expr)
        cond = _expr_src(node.cond) if node.cond is not None else ""
        step = _expr_src(node.step) if node.step is not None else ""
        prefix = f"{pad}#pragma unroll {node.unroll}\n" if node.unroll != 1 else ""
        return (
            prefix
            + f"{pad}for ({init}; {cond}; {step}) "
            + _stmt_as_block(node.body, indent)
        )
    if isinstance(node, While):
        return f"{pad}while ({_expr_src(node.cond)}) " + _stmt_as_block(node.body, indent)
    if isinstance(node, Return):
        if node.value is None:
            return f"{pad}return;"
        return f"{pad}return {_expr_src(node.value)};"
    if isinstance(node, Break):
        return f"{pad}break;"
    if isinstance(node, Continue):
        return f"{pad}continue;"
    if isinstance(node, Pragma):
        return f"{pad}#pragma {node.text}"
    if isinstance(node, Expr):
        return pad + _expr_src(node)
    raise TypeError(f"cannot print {type(node).__name__}")


def _stmt_as_block(stmt: Stmt, indent: int) -> str:
    if isinstance(stmt, Block):
        return to_source(stmt, indent)
    return to_source(Block(body=(stmt,)), indent)


def _param_src(p: Param) -> str:
    quals = "".join(q + " " for q in p.qualifiers)
    space = f"{p.address_space} " if p.address_space != "__private" else ""
    star = " *" if p.is_pointer else " "
    return f"{space}{quals}{p.type_name}{star}{p.name}"


def _expr_src(expr: Expr, parent_prec: int = -1) -> str:
    if isinstance(expr, IntLiteral):
        return f"{expr.value}{expr.suffix}"
    if isinstance(expr, FloatLiteral):
        text = repr(expr.value)
        return f"{text}{expr.suffix}"
    if isinstance(expr, Ident):
        return expr.name
    if isinstance(expr, Binary):
        prec = BINARY_PRECEDENCE[expr.op]
        src = (
            f"{_expr_src(expr.left, prec)} {expr.op} "
            f"{_expr_src(expr.right, prec + 1)}"
        )
        return f"({src})" if prec < parent_prec else src
    if isinstance(expr, Unary):
        if expr.op in ("p++", "p--"):
            return f"{_expr_src(expr.operand, 100)}{expr.op[1:]}"
        return f"{expr.op}{_expr_src(expr.operand, 100)}"
    if isinstance(expr, Assign):
        return f"{_expr_src(expr.target)} {expr.op} {_expr_src(expr.value)}"
    if isinstance(expr, Conditional):
        src = (
            f"{_expr_src(expr.cond, 1)} ? {_expr_src(expr.then)} : "
            f"{_expr_src(expr.other)}"
        )
        return f"({src})" if parent_prec >= 0 else src
    if isinstance(expr, Call):
        args = ", ".join(_expr_src(a) for a in expr.args)
        return f"{expr.func}({args})"
    if isinstance(expr, Index):
        return f"{_expr_src(expr.base, 100)}[{_expr_src(expr.index)}]"
    if isinstance(expr, Swizzle):
        return f"{_expr_src(expr.base, 100)}.{expr.components}"
    if isinstance(expr, Cast):
        return f"({expr.type_name}){_expr_src(expr.operand, 100)}"
    if isinstance(expr, VectorLiteral):
        elems = ", ".join(_expr_src(e) for e in expr.elements)
        return f"({expr.type_name})({elems})"
    raise TypeError(f"cannot print expression {type(expr).__name__}")
