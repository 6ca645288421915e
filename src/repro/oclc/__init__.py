"""OpenCL-C subset front-end: lexer, parser, semantics, execution, analysis.

Typical pipeline::

    from repro.oclc import compile_source
    checked = compile_source(src, defines={"ARRAY_SIZE": "1024"})
    ir = analyze(checked)            # device models consume this
    fast = vectorize_kernel(checked) # array lane; raises if ineligible,
    fast.run((1024,), {...})         # then KernelInterpreter runs it

:func:`compile_source_cached` is the memoized entry point sweep
campaigns use: it keys on the source text plus the *effective* defines
(the subset that can actually influence the compile), so thousands of
points that differ only in, say, an unreferenced ``N`` share one
front-end pass, and campaigns alive at the same time share each
program. The memo holds programs weakly: it frees what no caller holds.
"""

from __future__ import annotations

import re
import weakref
from typing import Mapping

from .analysis import KernelIR, LoopMode, MemAccess, analyze, index_stream
from .cast import TranslationUnit, to_source
from .interp import BufferArg, KernelInterpreter, run_kernel
from .lexer import tokenize
from .parser import parse
from .semantic import CheckedProgram, check
from .specialize import SpecializedKernel, specialize
from .vectorize import VectorKernel, vectorize_kernel

__all__ = [
    "tokenize",
    "parse",
    "check",
    "compile_source",
    "compile_source_cached",
    "effective_defines",
    "frontend_key",
    "analyze",
    "specialize",
    "vectorize_kernel",
    "VectorKernel",
    "run_kernel",
    "BufferArg",
    "KernelInterpreter",
    "SpecializedKernel",
    "CheckedProgram",
    "KernelIR",
    "LoopMode",
    "MemAccess",
    "TranslationUnit",
    "to_source",
    "index_stream",
]


def compile_source(
    source: str, defines: Mapping[str, str] | None = None
) -> CheckedProgram:
    """Parse and type-check OpenCL-C ``source`` with ``-D`` style defines."""
    return check(parse(source, defines))


# ---------------------------------------------------------------------------
# memoized front-end
# ---------------------------------------------------------------------------

_DIRECTIVE_RE = re.compile(r"^[ \t]*#", re.MULTILINE)
_WORD_RE = re.compile(r"[A-Za-z_]\w*")

# Weak values: the memo indexes the programs that callers still hold (every
# BuildCache holds each program it returned) and forgets the rest, so it
# needs no size bound and no eviction order.
_frontend_cache: "weakref.WeakValueDictionary[tuple, CheckedProgram]" = (
    weakref.WeakValueDictionary()
)


def effective_defines(
    source: str, defines: Mapping[str, str | int] | None
) -> tuple[tuple[str, str], ...]:
    """The subset of ``defines`` that can influence compiling ``source``.

    The preprocessor substitutes macros on word boundaries, and expands
    a define's value again until nothing changes, so a ``-D`` entry
    whose name is reachable neither from a word of the source nor from
    the value of a define that is cannot change the compile — two sweep
    points that differ only in such a define share one front-end
    artifact. Sources containing their own preprocessor directives
    (``#define``/``#ifdef``...) conservatively keep every define, since
    conditional blocks may test macro names that are not otherwise
    mentioned.
    """
    if not defines:
        return ()
    items = sorted((k, str(v)) for k, v in defines.items())
    if _DIRECTIVE_RE.search(source):
        return tuple(items)
    values = dict(items)
    reached: set[str] = set()
    words = set(_WORD_RE.findall(source))
    while words:
        new = {w for w in words if w in values and w not in reached}
        reached |= new
        words = {w for name in new for w in _WORD_RE.findall(values[name])}
    return tuple((k, v) for k, v in items if k in reached)


def frontend_key(
    source: str, defines: Mapping[str, str | int] | None
) -> tuple:
    """Content-addressed identity of one front-end compile."""
    return (source, effective_defines(source, defines))


def compile_source_cached(
    source: str,
    defines: Mapping[str, str] | None = None,
    *,
    key: tuple | None = None,
) -> CheckedProgram:
    """Memoized :func:`compile_source`, keyed by :func:`frontend_key`.

    The process-wide memo holds its programs weakly. While any caller
    holds a program — each campaign's :class:`~repro.ocl.program.
    BuildCache` holds every program it returned — every other caller
    with the same key gets that instance, so the per-target engines of
    one search compile each kernel once. A direct caller keeps a program
    only while it holds it. ``CheckedProgram`` artifacts are immutable
    after checking (their analyses are memoized pure functions of
    them), so sharing one instance between callers is safe. A caller
    that already holds ``frontend_key(source, defines)`` passes it as
    ``key``.
    """
    if key is None:
        key = frontend_key(source, defines)
    checked = _frontend_cache.get(key)
    if checked is None:
        checked = _frontend_cache[key] = compile_source(source, defines)
    return checked
