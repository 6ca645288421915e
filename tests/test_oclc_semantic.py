"""Semantic analysis: types, symbols, builtins, attributes."""

from __future__ import annotations

import pytest

from repro.errors import SemanticError
from repro.ocl import types as T
from repro.oclc import cast, compile_source
from repro.oclc.semantic import swizzle_indices


def expr_of(program, predicate):
    """First expression node in the sole kernel matching predicate."""
    found = []

    def walk(node):
        if isinstance(node, cast.Expr) and predicate(node):
            found.append(node)
        for f in getattr(node, "__dataclass_fields__", {}):
            v = getattr(node, f)
            if isinstance(v, cast.Node):
                walk(v)
            elif isinstance(v, tuple):
                for item in v:
                    if isinstance(item, cast.Node):
                        walk(item)

    walk(program.kernel().body)
    return found[0]


class TestTyping:
    def test_param_types(self):
        p = compile_source(
            "__kernel void f(__global const double *a, const int n) { a[0] = n; }"
        )
        types = p.param_types["f"]
        assert isinstance(types["a"], T.PointerType)
        assert types["a"].pointee is T.DOUBLE
        assert types["n"] is T.INT

    def test_index_result_type(self):
        p = compile_source("__kernel void f(__global int4 *a) { a[0] = a[1]; }")
        load = expr_of(p, lambda e: isinstance(e, cast.Index))
        assert p.type_of(load) == T.vector("int", 4)

    def test_int_literal_suffixes(self):
        p = compile_source(
            "__kernel void f(__global long *a) { a[0] = 1ul + 2l + 3u + 4; }"
        )
        assert p.param_types["f"]["a"].pointee is T.LONG

    def test_promotion_int_double(self):
        p = compile_source(
            "__kernel void f(__global double *a) { a[0] = 1 + 2.5; }"
        )
        add = expr_of(p, lambda e: isinstance(e, cast.Binary) and e.op == "+")
        assert p.type_of(add) is T.DOUBLE

    def test_vector_scalar_broadcast(self):
        p = compile_source(
            "__kernel void f(__global int4 *a, const int q) { a[0] = q * a[1]; }"
        )
        mul = expr_of(p, lambda e: isinstance(e, cast.Binary) and e.op == "*")
        assert p.type_of(mul) == T.vector("int", 4)

    def test_vector_width_mismatch(self):
        with pytest.raises(SemanticError):
            compile_source(
                "__kernel void f(__global int4 *a, __global int8 *b) { int4 x = a[0] + b[0]; }"
            )

    def test_comparison_is_int(self):
        p = compile_source("__kernel void f(__global int *a) { a[0] = 1 < 2; }")
        cmp = expr_of(p, lambda e: isinstance(e, cast.Binary) and e.op == "<")
        assert p.type_of(cmp) is T.INT

    def test_vector_comparison_is_int_vector(self):
        p = compile_source(
            "__kernel void f(__global int4 *a) { int4 m = a[0] < a[1]; a[2] = m; }"
        )
        cmp = expr_of(p, lambda e: isinstance(e, cast.Binary) and e.op == "<")
        assert p.type_of(cmp) == T.vector("int", 4)

    def test_modulo_requires_integers(self):
        with pytest.raises(SemanticError):
            compile_source("__kernel void f(__global double *a) { a[0] = a[1] % 2.0; }")

    def test_condition_must_be_scalar(self):
        with pytest.raises(SemanticError):
            compile_source(
                "__kernel void f(__global int4 *a) { if (a[0]) a[1] = a[0]; }"
            )

    @pytest.mark.parametrize("expr", ["!a[g]", "a[g] && 1", "1 || a[g]"])
    def test_logical_operators_reject_vectors(self, expr):
        # OpenCL gives a component-wise -1/0 vector, which neither the
        # interpreter nor the array lane implements: refuse it here,
        # not as a raw ValueError
        src = (
            "__kernel void f(__global const int4 *a, __global int *c) "
            f"{{ int g = get_global_id(0); c[g] = {expr}; }}"
        )
        with pytest.raises(SemanticError, match="vector type int4"):
            compile_source(src)
        # the same operators on scalars still type as int
        compile_source(src.replace("int4", "int"))


class TestSymbols:
    def test_undeclared_identifier(self):
        with pytest.raises(SemanticError) as err:
            compile_source("__kernel void f(__global int *a) { a[0] = nope; }")
        assert "nope" in str(err.value)

    def test_redeclaration(self):
        with pytest.raises(SemanticError):
            compile_source(
                "__kernel void f(__global int *a) { int x = 1; int x = 2; a[0] = x; }"
            )

    def test_shadowing_in_inner_scope_allowed(self):
        compile_source(
            "__kernel void f(__global int *a) { int x = 1; { int y = x; a[0] = y; } }"
        )

    def test_const_assignment_rejected(self):
        with pytest.raises(SemanticError):
            compile_source(
                "__kernel void f(__global int *a) { const int x = 1; x = 2; a[0] = x; }"
            )

    def test_scope_does_not_leak(self):
        with pytest.raises(SemanticError):
            compile_source(
                "__kernel void f(__global int *a) { { int y = 1; } a[0] = y; }"
            )

    def test_indexing_non_pointer(self):
        with pytest.raises(SemanticError):
            compile_source("__kernel void f(const int n) { int x = n[0]; }")

    def test_float_index_rejected(self):
        with pytest.raises(SemanticError):
            compile_source("__kernel void f(__global int *a) { a[1.5] = 0; }")


class TestBuiltins:
    def test_workitem_functions(self):
        p = compile_source(
            "__kernel void f(__global int *a) { a[get_global_id(0)] = get_global_size(0); }"
        )
        call = expr_of(p, lambda e: isinstance(e, cast.Call) and e.func == "get_global_id")
        assert p.type_of(call) is T.SIZE_T

    def test_workitem_arity(self):
        with pytest.raises(SemanticError):
            compile_source("__kernel void f(__global int *a) { a[0] = get_global_id(); }")

    def test_math_builtins(self):
        p = compile_source(
            "__kernel void f(__global double *a) { a[0] = sqrt(fabs(a[1])); }"
        )
        call = expr_of(p, lambda e: isinstance(e, cast.Call) and e.func == "sqrt")
        assert p.type_of(call) is T.DOUBLE

    def test_sqrt_of_int_promotes(self):
        p = compile_source("__kernel void f(__global double *a) { a[0] = sqrt(4); }")
        call = expr_of(p, lambda e: isinstance(e, cast.Call))
        assert p.type_of(call) is T.DOUBLE

    def test_unknown_function(self):
        with pytest.raises(SemanticError):
            compile_source("__kernel void f(__global int *a) { a[0] = frobnicate(1); }")

    def test_min_max_arity(self):
        with pytest.raises(SemanticError):
            compile_source("__kernel void f(__global int *a) { a[0] = max(1); }")


class TestAttributes:
    def test_known_attributes_pass(self):
        compile_source(
            "__kernel __attribute__((reqd_work_group_size(64, 1, 1))) "
            "__attribute__((num_compute_units(2))) "
            "void f(__global int *a) { a[0] = 1; }"
        )

    def test_unknown_attribute(self):
        with pytest.raises(SemanticError):
            compile_source(
                "__kernel __attribute__((sparkles(1))) void f(__global int *a) { a[0] = 1; }"
            )

    def test_attribute_arity(self):
        with pytest.raises(SemanticError):
            compile_source(
                "__kernel __attribute__((reqd_work_group_size(64))) "
                "void f(__global int *a) { a[0] = 1; }"
            )


class TestSwizzles:
    def test_xyzw(self):
        assert swizzle_indices("x", 4) == (0,)
        assert swizzle_indices("wzyx", 4) == (3, 2, 1, 0)

    def test_numeric(self):
        assert swizzle_indices("s0", 16) == (0,)
        assert swizzle_indices("sf", 16) == (15,)
        assert swizzle_indices("s01", 8) == (0, 1)

    def test_halves(self):
        assert swizzle_indices("lo", 4) == (0, 1)
        assert swizzle_indices("hi", 4) == (2, 3)
        assert swizzle_indices("even", 4) == (0, 2)
        assert swizzle_indices("odd", 4) == (1, 3)

    def test_out_of_range(self):
        with pytest.raises(SemanticError):
            swizzle_indices("z", 2)
        with pytest.raises(SemanticError):
            swizzle_indices("s9", 4)

    def test_bad_names(self):
        with pytest.raises(SemanticError):
            swizzle_indices("qq", 4)

    def test_swizzle_type_in_program(self):
        p = compile_source(
            "__kernel void f(__global int4 *a, __global int *b) { b[0] = a[0].s2; }"
        )
        sw = expr_of(p, lambda e: isinstance(e, cast.Swizzle))
        assert p.type_of(sw) is T.INT

    def test_swizzle_on_scalar_rejected(self):
        with pytest.raises(SemanticError):
            compile_source("__kernel void f(__global int *a) { a[0] = a[1].x; }")
