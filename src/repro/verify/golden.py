"""Golden regression corpus: pinned fingerprints for a representative grid.

Pillar 3 of the verification subsystem. A checked-in JSON corpus
(``tests/golden/corpus.json``) records, for every point of a small but
representative grid, the :meth:`RunResult.fingerprint` hash and the
interpreter's output checksum. Any behavioural drift — a model tweak
that shifts bandwidth, a generator change that alters kernel output, a
refactor that breaks determinism — shows up as a diff against the
corpus before it reaches users. ``mp-stream verify --update-golden``
regenerates the file after an *intentional* change; the resulting VCS
diff is the review artifact.

Entries are keyed by :func:`repro.core.history.point_fingerprint`, the
same identity the sweep journal uses, so corpus keys line up with
journal keys for cross-referencing.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

from ..core.history import point_fingerprint
from ..core.params import DataType, KernelName, TuningParameters
from ..core.runner import BenchmarkRunner, optimal_loop_for
from ..errors import BenchmarkError
from .conformance import interpret_point, output_checksum

__all__ = [
    "GOLDEN_SCHEMA",
    "DEFAULT_GOLDEN_PATH",
    "DEFAULT_SEARCH_GOLDEN_PATH",
    "SEARCH_COMPARED_FIELDS",
    "CorpusDiff",
    "corpus_grid",
    "compute_corpus",
    "search_scenarios",
    "compute_search_corpus",
    "load_corpus",
    "save_corpus",
    "diff_corpus",
    "format_drift",
]

GOLDEN_SCHEMA = 1

#: repo-relative home of the checked-in corpus
DEFAULT_GOLDEN_PATH = Path("tests") / "golden" / "corpus.json"

#: repo-relative home of the pinned search trajectories
DEFAULT_SEARCH_GOLDEN_PATH = Path("tests") / "golden" / "search_trajectories.json"

CORPUS_TARGETS = ("cpu", "gpu", "aocl", "sdaccel")

#: fields compared by :func:`diff_corpus`, in report order
_COMPARED_FIELDS = ("params", "result_sha", "output_sha", "bandwidth_gbs", "failure_kind")

#: fields compared for search-trajectory entries
SEARCH_COMPARED_FIELDS = (
    "params",
    "budget",
    "pool",
    "spent",
    "rung_fingerprints",
    "trajectory_sha",
    "best_params",
    "bandwidth_gbs",
)


def corpus_grid(
    targets: Sequence[str] = CORPUS_TARGETS,
    *,
    array_bytes: int = 4096,
) -> list[tuple[str, TuningParameters]]:
    """The representative (target, point) grid the corpus pins.

    Small arrays keep the interpreter leg fast; the axes cover both
    read patterns of the kernel set (2-array COPY, 3-array TRIAD),
    exact and rounded dtypes, and scalar vs vectorized code paths,
    with each target's natural loop management.
    """
    grid: list[tuple[str, TuningParameters]] = []
    for target in targets:
        loop = optimal_loop_for(target)
        for kernel in (KernelName.COPY, KernelName.TRIAD):
            for dtype in (DataType.INT, DataType.DOUBLE):
                for width in (1, 4):
                    grid.append(
                        (
                            target,
                            TuningParameters(
                                kernel=kernel,
                                dtype=dtype,
                                array_bytes=array_bytes,
                                vector_width=width,
                                loop=loop,
                            ),
                        )
                    )
    return grid


def _result_sha(fingerprint: str) -> str:
    return hashlib.sha256(fingerprint.encode()).hexdigest()[:16]


def compute_corpus(
    grid: Iterable[tuple[str, TuningParameters]] | None = None,
    *,
    ntimes: int = 2,
    progress: Callable[[str], None] | None = None,
) -> dict:
    """Run the corpus grid and collect current fingerprints.

    Returns the full corpus document (``{"schema": ..., "entries":
    {...}}``). Every value is a deterministic JSON scalar so the
    serialized form is byte-stable across runs.
    """
    if grid is None:
        grid = corpus_grid()
    entries: dict[str, dict] = {}
    runners: dict[str, BenchmarkRunner] = {}
    for target, params in grid:
        if target not in runners:
            runners[target] = BenchmarkRunner(target, ntimes=ntimes)
        result = runners[target].run(params)
        outputs = interpret_point(params)
        key = point_fingerprint(target, params)
        entries[key] = {
            "target": target,
            "params": params.describe(),
            "result_sha": _result_sha(result.fingerprint()),
            "output_sha": output_checksum(outputs),
            "bandwidth_gbs": round(result.bandwidth_gbs, 6),
            "failure_kind": result.failure_kind,
        }
        if progress is not None:
            progress(f"golden: {target} {params.describe()}")
    return {"schema": GOLDEN_SCHEMA, "entries": dict(sorted(entries.items()))}


def search_scenarios(
    targets: Sequence[str] = CORPUS_TARGETS,
    *,
    array_bytes: int = 64 * 1024,
) -> list[dict]:
    """The pinned (target, axes, budget) search scenarios.

    One scenario per target over the small grid the scheduler suite
    also uses — large enough that the model ranking decides which of
    its points get measured; small enough to run in seconds.
    """
    from ..core.params import LoopManagement

    axes = {
        "loop": [LoopManagement.FLAT, LoopManagement.NESTED, LoopManagement.NDRANGE],
        "vector_width": [1, 2, 4, 8],
        "unroll": [1, 2],
    }
    return [
        {
            "target": target,
            "axes": axes,
            "array_bytes": array_bytes,
            "budget": 6,
        }
        for target in targets
    ]


def _scenario_key(scenario: dict) -> str:
    """Stable identity for one search scenario (its pinned inputs)."""
    axes_doc = {
        name: [getattr(v, "value", v) for v in values]
        for name, values in scenario["axes"].items()
    }
    blob = json.dumps(
        {
            "target": scenario["target"],
            "axes": axes_doc,
            "array_bytes": scenario["array_bytes"],
            "budget": scenario["budget"],
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def compute_search_corpus(
    scenarios: Sequence[dict] | None = None,
    *,
    ntimes: int = 2,
    progress: Callable[[str], None] | None = None,
) -> dict:
    """Run the pinned search scenarios and collect current trajectories.

    Each entry pins the rung-by-rung fingerprints of one multi-fidelity
    search — any model/generator/searcher change that shifts a
    trajectory diffs field-by-field against this, so drift is *named*
    (which scenario, which rung count, which optimum) rather than just
    failed.
    """
    from ..core.search import multifidelity_search

    if scenarios is None:
        scenarios = search_scenarios()
    entries: dict[str, dict] = {}
    for scenario in scenarios:
        target = scenario["target"]
        runner = BenchmarkRunner(target, ntimes=ntimes)
        seed = TuningParameters(array_bytes=scenario["array_bytes"])
        out = multifidelity_search(
            runner,
            scenario["axes"],
            seed=seed,
            budget=scenario["budget"],
        )
        axes_desc = ",".join(
            f"{name}[{len(values)}]" for name, values in scenario["axes"].items()
        )
        entries[_scenario_key(scenario)] = {
            "target": target,
            "params": f"{axes_desc} budget={scenario['budget']} "
            f"{scenario['array_bytes']}B",
            "budget": scenario["budget"],
            "pool": out.pool_size,
            "spent": out.spent,
            "rung_fingerprints": out.rung_fingerprints(),
            "trajectory_sha": out.trajectory_fingerprint(),
            "best_params": out.best.params.describe(),
            "bandwidth_gbs": round(out.best.bandwidth_gbs, 6),
        }
        if progress is not None:
            progress(f"search golden: {target} {axes_desc}")
    return {"schema": GOLDEN_SCHEMA, "entries": dict(sorted(entries.items()))}


def load_corpus(path: Path | str) -> dict:
    """Read a corpus document, validating its schema tag."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except FileNotFoundError:
        raise BenchmarkError(
            f"golden corpus not found at {path} "
            "(run `mp-stream verify --update-golden` to create it)"
        ) from None
    except json.JSONDecodeError as exc:
        raise BenchmarkError(f"golden corpus at {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("schema") != GOLDEN_SCHEMA:
        raise BenchmarkError(
            f"golden corpus at {path} has schema {doc.get('schema')!r}; "
            f"this build expects {GOLDEN_SCHEMA}"
        )
    return doc


def save_corpus(path: Path | str, corpus: dict) -> None:
    """Write the corpus with a stable, diff-friendly serialization."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "schema": corpus.get("schema", GOLDEN_SCHEMA),
        "entries": dict(sorted(corpus.get("entries", {}).items())),
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


@dataclass(frozen=True)
class CorpusDiff:
    """Drift between a stored corpus and freshly computed entries."""

    added: tuple[str, ...] = ()
    removed: tuple[str, ...] = ()
    #: key -> list of (field, old value, new value)
    changed: dict[str, list[tuple[str, object, object]]] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        return not (self.added or self.removed or self.changed)


def diff_corpus(
    old: dict, new: dict, *, fields: Sequence[str] = _COMPARED_FIELDS
) -> CorpusDiff:
    """Compare two corpus documents field by field.

    ``fields`` selects the compared entry fields (report order) — the
    run-result corpus and the search-trajectory corpus pin different
    shapes but share the diff/drift machinery.
    """
    old_entries = old.get("entries", {})
    new_entries = new.get("entries", {})
    added = tuple(sorted(set(new_entries) - set(old_entries)))
    removed = tuple(sorted(set(old_entries) - set(new_entries)))
    changed: dict[str, list[tuple[str, object, object]]] = {}
    for key in sorted(set(old_entries) & set(new_entries)):
        drifted = [
            (name, old_entries[key].get(name), new_entries[key].get(name))
            for name in fields
            if old_entries[key].get(name) != new_entries[key].get(name)
        ]
        if drifted:
            changed[key] = drifted
    return CorpusDiff(added=added, removed=removed, changed=changed)


def _label(entries: dict, key: str) -> str:
    entry = entries.get(key, {})
    return f"{key} ({entry.get('target', '?')} {entry.get('params', '?')})"


def format_drift(diff: CorpusDiff, old: dict, new: dict) -> str:
    """Diff-style drift report: ``-`` is the pinned state, ``+`` is now."""
    if diff.clean:
        return "golden corpus: clean (no drift)"
    old_entries = old.get("entries", {})
    new_entries = new.get("entries", {})
    lines = [
        f"golden corpus drift: {len(diff.changed)} changed, "
        f"{len(diff.added)} added, {len(diff.removed)} removed"
    ]
    for key in diff.removed:
        lines.append(f"- {_label(old_entries, key)}: entry removed")
    for key in diff.added:
        lines.append(f"+ {_label(new_entries, key)}: entry not in corpus")
    for key, fields in diff.changed.items():
        lines.append(f"  {_label(old_entries, key)}:")
        for name, was, now in fields:
            lines.append(f"-   {name} = {was}")
            lines.append(f"+   {name} = {now}")
    lines.append(
        "run `mp-stream verify --update-golden` and commit the diff if the "
        "change is intentional"
    )
    return "\n".join(lines)
