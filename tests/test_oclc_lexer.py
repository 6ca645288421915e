"""Tokenizer and mini-preprocessor."""

from __future__ import annotations

import hashlib

import pytest

from repro.core import (
    AccessPattern,
    DataType,
    KernelName,
    LoopManagement,
    ParameterSweep,
    TuningParameters,
    generate,
)
from repro.errors import LexError
from repro.oclc import parse, to_source
from repro.oclc.lexer import tokenize
from repro.units import KIB


def kinds(tokens):
    return [t.kind for t in tokens]


def texts(tokens):
    return [t.text for t in tokens if t.kind != "eof"]


class TestBasicTokens:
    def test_identifiers_and_keywords(self):
        toks = tokenize("__kernel void f(int x)")
        assert toks[0].is_keyword("__kernel")
        assert toks[1].is_keyword("void")
        assert toks[2].kind == "ident" and toks[2].text == "f"

    def test_int_literals(self):
        toks = tokenize("42 0x1F 7u 9l")
        assert [t.value for t in toks[:-1]] == [42, 31, 7, 9]

    def test_float_literals(self):
        toks = tokenize("1.5 2e3 3.0f 1E-2")
        assert toks[0].kind == "float" and toks[0].value == 1.5
        assert toks[1].value == 2000.0
        assert toks[2].value == 3.0
        assert toks[3].value == pytest.approx(0.01)

    def test_leading_dot_float(self):
        toks = tokenize("x = .5;")
        assert toks[2].kind == "float" and toks[2].value == 0.5

    def test_operators_longest_match(self):
        assert texts(tokenize("a <<= b >> c != d")) == ["a", "<<=", "b", ">>", "c", "!=", "d"]
        assert texts(tokenize("i++ + ++j")) == ["i", "++", "+", "++", "j"]

    def test_line_and_column_tracking(self):
        toks = tokenize("a\n  bb")
        assert (toks[0].line, toks[0].col) == (1, 1)
        assert (toks[1].line, toks[1].col) == (2, 3)

    def test_invalid_character(self):
        with pytest.raises(LexError):
            tokenize("int a = `1`;")

    def test_bad_suffix(self):
        with pytest.raises(LexError):
            tokenize("1.5x")


def lex_error(source, **kw) -> LexError:
    with pytest.raises(LexError) as err:
        tokenize(source, **kw)
    return err.value


class TestEdgeCases:
    @pytest.mark.parametrize(
        "source, col",
        [("é", 1), ("a٠", 2), ("x = ²;", 5)],
        ids=["accented-letter", "arabic-digit", "superscript"],
    )
    def test_non_ascii_letters_and_digits_are_invalid(self, source, col):
        err = lex_error(source)
        assert (err.line, err.col) == (1, col)
        assert "invalid character" in str(err)

    def test_error_column_after_leading_whitespace(self):
        err = lex_error("a\n \t  @")
        assert (err.line, err.col) == (2, 5)
        assert str(err) == "2:5: invalid character '@'"

    @pytest.mark.parametrize(
        "source, message",
        [
            ("1e", "1:1: invalid character 'e' in numeric literal"),
            ("x = 1.5u;", "1:5: bad float suffix 'u' on 1.5"),
            ("0xg", "1:1: invalid character 'g' in numeric literal"),
        ],
    )
    def test_malformed_number_messages(self, source, message):
        assert str(lex_error(source)) == message

    def test_comment_opener_sharing_its_slash_is_unterminated(self):
        assert str(lex_error("a\n/*/ b")) == "2:0: unterminated block comment"

    def test_line_comment_at_eof_without_newline(self):
        assert texts(tokenize("a //")) == ["a"]
        assert texts(tokenize("a // trailing /* not a block")) == ["a"]

    def test_ellipsis_against_leading_dot_float(self):
        toks = tokenize("... .5 ..5")
        assert [(t.kind, t.text) for t in toks[:-1]] == [
            ("punct", "..."),
            ("float", ".5"),
            ("punct", "."),
            ("float", ".5"),
        ]

    def test_form_feed_and_vertical_tab_are_whitespace(self):
        assert texts(tokenize("a\fb\vc")) == ["a", "b", "c"]
        toks = tokenize("x = V;", defines={"V": "1\f+\v2"})
        assert [(t.text, t.col) for t in toks[:-1]] == [
            ("x", 1), ("=", 3), ("1", 5), ("+", 7), ("2", 9), (";", 10)
        ]


class TestIntegerLiterals:
    @pytest.mark.parametrize(
        "source, kind, value",
        [("0", "int", 0), ("0.5", "float", 0.5), ("0e1", "float", 0.0),
         ("0u", "int", 0), ("0x1F", "int", 31)],
    )
    def test_zero_led_literals_that_lex(self, source, kind, value):
        (tok, _eof) = tokenize(source)
        assert (tok.kind, tok.text, tok.value) == (kind, source, value)

    @pytest.mark.parametrize("literal", ["010", "08", "00", "017u"])
    def test_octal_literals_rejected(self, literal):
        err = lex_error(f"a[0] = {literal};")
        assert str(err) == (
            f"1:8: octal literals are not supported: {literal.rstrip('u')}"
        )

    @pytest.mark.parametrize("source", ["0x", "0X;", "0xu"])
    def test_hex_prefix_without_digits_rejected(self, source):
        err = lex_error(f"  {source}")
        assert (err.line, err.col) == (1, 3)
        assert "has no digits" in str(err)

    def test_program_build_raises_build_error(self, cpu_device):
        from repro.errors import BuildError
        from repro.ocl import Context, Program

        src = "__kernel void k(__global int *a) { a[0] = 010; }"
        with pytest.raises(BuildError) as err:
            Program(Context(cpu_device), src).build()
        assert "octal literals are not supported" in str(err.value)


class TestComments:
    def test_line_comment(self):
        assert texts(tokenize("a // comment\nb")) == ["a", "b"]

    def test_block_comment(self):
        assert texts(tokenize("a /* multi\nline */ b")) == ["a", "b"]

    def test_block_comment_preserves_lines(self):
        toks = tokenize("/* one\ntwo */\nx")
        assert toks[0].line == 3

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError):
            tokenize("a /* never closed")


class TestPreprocessor:
    def test_define_substitution(self):
        toks = tokenize("#define N 128\nint x = N;")
        assert any(t.kind == "int" and t.value == 128 for t in toks)

    def test_define_from_build_options(self):
        toks = tokenize("int x = ARRAY_SIZE;", defines={"ARRAY_SIZE": "4096"})
        assert any(t.kind == "int" and t.value == 4096 for t in toks)

    def test_chained_defines(self):
        toks = tokenize("#define A B\n#define B 7\nint x = A;")
        assert any(t.kind == "int" and t.value == 7 for t in toks)

    def test_undef(self):
        toks = tokenize("#define N 1\n#undef N\nint N;")
        assert any(t.kind == "ident" and t.text == "N" for t in toks)

    def test_ifdef_taken_and_skipped(self):
        src = "#ifdef FOO\nint yes;\n#else\nint no;\n#endif\n"
        toks = tokenize(src, defines={"FOO": "1"})
        assert "yes" in texts(toks) and "no" not in texts(toks)
        toks = tokenize(src)
        assert "no" in texts(toks) and "yes" not in texts(toks)

    def test_ifndef(self):
        src = "#ifndef FOO\nint absent;\n#endif\n"
        assert "absent" in texts(tokenize(src))
        assert "absent" not in texts(tokenize(src, defines={"FOO": "1"}))

    def test_unbalanced_endif(self):
        with pytest.raises(LexError):
            tokenize("#endif\n")
        with pytest.raises(LexError):
            tokenize("#else\n")
        with pytest.raises(LexError):
            tokenize("#ifdef X\nint a;\n")

    def test_function_macro_rejected(self):
        with pytest.raises(LexError):
            tokenize("#define SQ(x) ((x)*(x))\n")

    def test_macro_recursion_detected(self):
        with pytest.raises(LexError):
            tokenize("int x = A;", defines={"A": "B", "B": "A"})

    def test_pragma_token(self):
        toks = tokenize("#pragma unroll 4\nfor")
        assert toks[0].kind == "pragma"
        assert toks[0].value == "unroll 4"

    def test_pragma_with_macro_expansion(self):
        toks = tokenize("#pragma unroll U\nfor", defines={"U": "8"})
        assert toks[0].value == "unroll 8"

    def test_include_ignored(self):
        assert texts(tokenize('#include "x.h"\nint a;')) == ["int", "a", ";"]

    def test_unknown_directive(self):
        with pytest.raises(LexError):
            tokenize("#banana\n")

    def test_eof_token_always_present(self):
        toks = tokenize("")
        assert toks[-1].kind == "eof"
        assert len(toks) == 1


# ---------------------------------------------------------------------------
# front-end pin: every token and every re-printed AST of the generated
# kernels that campaigns compile, hashed
# ---------------------------------------------------------------------------

#: the search pool (the same sources for every target) at 64 KiB
SEARCH_POOL_AXES = {
    "kernel": list(KernelName),
    "loop": list(LoopManagement),
    "vector_width": [1, 2, 4, 8, 16],
    "unroll": [1, 2, 4, 8],
    "dtype": list(DataType),
    "pattern": list(AccessPattern),
}
#: the AOCL design-space sweep at 512 KiB
AOCL_GRID_AXES = {
    "kernel": list(KernelName),
    "loop": list(LoopManagement),
    "vector_width": [1, 2, 4, 8, 16],
    "unroll": [1, 2, 4, 8],
    "dtype": list(DataType),
}


def _front_end_digests(axes, array_bytes):
    """(sources, sha256 of every token, sha256 of every ``to_source``)."""
    grid = ParameterSweep(base=TuningParameters(array_bytes=array_bytes), axes=axes)
    tokens, printed = hashlib.sha256(), hashlib.sha256()
    count = 0
    for params in grid.points():
        gen = generate(params)
        defines = {k: str(v) for k, v in gen.defines.items()}
        for t in tokenize(gen.source, defines):
            tokens.update(repr((t.kind, t.text, t.line, t.col, t.value)).encode())
        printed.update(to_source(parse(gen.source, defines)).encode() + b"\0")
        count += 1
    return count, tokens.hexdigest(), printed.hexdigest()


@pytest.mark.parametrize(
    "axes, array_bytes, want",
    [
        pytest.param(
            SEARCH_POOL_AXES,
            64 * KIB,
            (
                1080,
                "75e593dc22224f92814b5598e36e46669451aea99c8fa3208b458969f42aecde",
                "5ad41bbc49c9eba500f1ef5e6966132a7e7e2d96cd617e098fdc336719717c19",
            ),
            id="search-pool-64KiB",
        ),
        pytest.param(
            AOCL_GRID_AXES,
            512 * KIB,
            (
                540,
                "29c62ea0b70250e4ab54a21a8baac9658300d06cfdd72ffcea58de5cceac3cda",
                "b4ca7536455645c2154bd4fee85cfca2ff3401bb11f3f382d321daf1223ba62f",
            ),
            id="aocl-grid-512KiB",
        ),
    ],
)
def test_front_end_pinned_on_campaign_grids(axes, array_bytes, want):
    assert _front_end_digests(axes, array_bytes) == want
