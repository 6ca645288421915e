"""Tokenizer for the OpenCL-C subset, with a tiny preprocessor.

The preprocessor supports what MP-STREAM's build scripts need:

* object-like ``#define NAME value`` (and ``-DNAME=value`` build
  options, applied by :func:`tokenize` via the ``defines`` mapping);
* ``#pragma unroll [N]``, surfaced as :class:`PragmaTok` so the parser
  can attach unroll factors to the following loop;
* ``//`` and ``/* */`` comments.

Conditional compilation (``#ifdef``) is supported in the single-level
form the generated kernels use.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping

from ..errors import LexError

__all__ = ["Token", "tokenize", "KEYWORDS", "PUNCTUATION"]

KEYWORDS = frozenset(
    {
        "if",
        "else",
        "for",
        "while",
        "return",
        "break",
        "continue",
        "const",
        "restrict",
        "volatile",
        "void",
        "__kernel",
        "kernel",
        "__global",
        "global",
        "__local",
        "local",
        "__constant",
        "constant",
        "__private",
        "private",
        "__attribute__",
    }
)

# Longest-match-first punctuation/operator table.
PUNCTUATION = (
    "<<=",
    ">>=",
    "...",
    "==",
    "!=",
    "<=",
    ">=",
    "&&",
    "||",
    "<<",
    ">>",
    "++",
    "--",
    "+=",
    "-=",
    "*=",
    "/=",
    "%=",
    "&=",
    "|=",
    "^=",
    "->",
    "+",
    "-",
    "*",
    "/",
    "%",
    "=",
    "<",
    ">",
    "!",
    "~",
    "&",
    "|",
    "^",
    "?",
    ":",
    ";",
    ",",
    ".",
    "(",
    ")",
    "[",
    "]",
    "{",
    "}",
)


@dataclass(slots=True)
class Token:
    """One lexical token.

    ``kind`` is one of ``ident``, ``keyword``, ``int``, ``float``,
    ``punct``, ``pragma`` or ``eof``. ``text`` is the raw spelling and
    ``value`` the decoded payload (int/float value, pragma body...).
    """

    kind: str
    text: str
    line: int
    col: int
    value: object = None

    def is_punct(self, text: str) -> bool:
        return self.kind == "punct" and self.text == text

    def is_keyword(self, text: str) -> bool:
        return self.kind == "keyword" and self.text == text


# ``/*`` alone (no closing ``*/``) is the unterminated-comment case
_COMMENT_RE = re.compile(r"//[^\n]*|/\*.*?\*/|/\*", re.DOTALL)

# One token per match, after optional whitespace. Character classes are
# ASCII-only, as in C: unicode "letters" and "digits" (e.g. superscripts)
# fall through to ``bad`` and are invalid characters.
_TOKEN_RE = re.compile(
    r"[ \t\r\f\v]*(?:"
    r"(?P<word>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<number>(?P<literal>0[xX][0-9a-fA-F]*"
    r"|(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)(?P<suffix>[uUlLfF]*))"
    r"|(?P<punct>" + "|".join(re.escape(p) for p in PUNCTUATION) + r")"
    r"|(?P<bad>[^ \t\r\f\v]))"
)


def _strip_comments(source: str) -> str:
    """Replace comments with spaces, preserving line structure."""

    def blank(m: re.Match) -> str:
        comment = m.group()
        if comment[1] == "/":
            return ""
        if comment == "/*":
            line = source.count("\n", 0, m.start()) + 1
            raise LexError("unterminated block comment", line=line)
        return "\n".join(" " * len(part) for part in comment.split("\n"))

    return _COMMENT_RE.sub(blank, source)


def _preprocess(source: str, defines: dict[str, str]) -> list[tuple[int, str]]:
    """Handle directives; return (line_number, text) pairs of real code.

    ``defines`` is mutated with ``#define`` entries found in the source.
    ``#pragma`` lines are kept (as directive lines) for the tokenizer.
    """
    lines: list[tuple[int, str]] = []
    skipping = False
    depth_of_skip = 0
    depth = 0
    for lineno, raw in enumerate(source.splitlines(), start=1):
        stripped = raw.strip()
        if stripped.startswith("#"):
            directive = stripped[1:].strip()
            if directive.startswith("ifdef") or directive.startswith("ifndef"):
                depth += 1
                name = directive.split(None, 1)[1].strip() if " " in directive else ""
                want_defined = directive.startswith("ifdef")
                if not skipping and (name in defines) != want_defined:
                    skipping = True
                    depth_of_skip = depth
            elif directive.startswith("else"):
                if depth == 0:
                    raise LexError("#else without #if", line=lineno)
                if skipping and depth_of_skip == depth:
                    skipping = False
                elif not skipping and depth > 0:
                    skipping = True
                    depth_of_skip = depth
            elif directive.startswith("endif"):
                if depth == 0:
                    raise LexError("#endif without #if", line=lineno)
                if skipping and depth_of_skip == depth:
                    skipping = False
                depth -= 1
            elif skipping:
                continue
            elif directive.startswith("define"):
                body = directive[len("define") :].strip()
                if not body:
                    raise LexError("empty #define", line=lineno)
                parts = body.split(None, 1)
                name = parts[0]
                if "(" in name:
                    raise LexError(
                        "function-like macros are not supported", line=lineno
                    )
                defines[name] = parts[1] if len(parts) > 1 else "1"
            elif directive.startswith("undef"):
                name = directive.split(None, 1)[1].strip()
                defines.pop(name, None)
            elif directive.startswith("pragma"):
                lines.append((lineno, "#" + directive))
            elif directive.startswith("include"):
                # Headers carry nothing we model; ignore.
                continue
            else:
                raise LexError(f"unsupported directive #{directive}", line=lineno)
            continue
        if not skipping:
            lines.append((lineno, raw))
    if depth != 0:
        raise LexError("unterminated #if block", line=len(source.splitlines()))
    return lines


def _expander(defines: Mapping[str, str]) -> Callable[[str], str]:
    """Token-ish textual macro expansion over ``defines``, iterated to a
    fixed point; the macro pattern is compiled once per define set."""
    if not defines:
        return lambda text: text
    pattern = re.compile(r"\b(" + "|".join(re.escape(k) for k in defines) + r")\b")

    def substitute(m: re.Match) -> str:
        return str(defines[m.group(1)])

    def expand(text: str) -> str:
        for _ in range(16):
            new = pattern.sub(substitute, text)
            if new == text:
                return new
            text = new
        raise LexError(f"macro expansion did not converge in {text!r}")

    return expand


def tokenize(source: str, defines: Mapping[str, str] | None = None) -> list[Token]:
    """Tokenize OpenCL-C ``source`` into a list ending with an ``eof`` token.

    ``defines`` seeds the preprocessor macro table (the ``-D`` build
    options); ``#define`` lines in the source add to it.
    """
    macro_table: dict[str, str] = dict(defines or {})
    lines = _preprocess(_strip_comments(source), macro_table)
    expand = _expander(macro_table)

    tokens: list[Token] = []
    for lineno, text in lines:
        if text.lstrip().startswith("#pragma"):
            body = expand(text.lstrip()[len("#pragma") :].strip())
            tokens.append(Token("pragma", text.strip(), lineno, 1, value=body))
            continue
        tokens.extend(_tokenize_line(expand(text), lineno))
    tokens.append(Token("eof", "", lines[-1][0] if lines else 1, 1))
    return tokens


def _tokenize_line(text: str, lineno: int) -> Iterator[Token]:
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        col = m.start(kind) + 1
        if kind == "word":
            word = m.group(kind)
            yield Token("keyword" if word in KEYWORDS else "ident", word, lineno, col)
        elif kind == "punct":
            yield Token("punct", m.group(kind), lineno, col)
        elif kind == "number":
            yield _lex_number(m, lineno, col)
        else:
            raise LexError(f"invalid character {m.group(kind)!r}", line=lineno, col=col)


def _lex_number(m: re.Match, lineno: int, col: int) -> Token:
    text, end = m.string, m.end()
    literal, suffix = m.group("literal", "suffix")
    suffix = suffix.lower()
    if end < len(text) and (text[end].isalnum() or text[end] == "_"):
        raise LexError(
            f"invalid character {text[end]!r} in numeric literal", line=lineno, col=col
        )
    is_hex = literal[:2] in ("0x", "0X")
    if not is_hex and ("." in literal or "e" in literal or "E" in literal or suffix == "f"):
        if suffix not in ("", "f"):
            raise LexError(
                f"bad float suffix {suffix!r} on {literal}", line=lineno, col=col
            )
        return Token("float", m.group("number"), lineno, col, value=float(literal))
    if suffix not in ("", "u", "l", "ul", "lu", "ll", "ull"):
        raise LexError(
            f"bad integer suffix {suffix!r} on {literal}", line=lineno, col=col
        )
    # Python's int(literal, 0) would reject both with a bare ValueError
    if is_hex and len(literal) == 2:
        raise LexError(f"hex literal {literal} has no digits", line=lineno, col=col)
    if not is_hex and len(literal) > 1 and literal[0] == "0":
        raise LexError(
            f"octal literals are not supported: {literal}", line=lineno, col=col
        )
    return Token("int", m.group("number"), lineno, col, value=int(literal, 0))
