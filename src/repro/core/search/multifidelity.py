"""Model-guided search over the tuning space: the one automated DSE route.

The paper frames MP-STREAM as fuel for "both a manual and automated
design-space exploration route". Grid sweeps (:func:`~repro.core.sweep.
explore`) are the manual route; this module is the automated one: find
the exhaustive sweep's optimum while *measuring* under 10% of the grid.

Two fidelity tiers:

1. **Model tier (free).** The analytic device model scores every
   candidate in the pool (:class:`~repro.core.search.lowfi.
   LowFidelityScorer`) — generate → cached build → closed-form predicted
   GB/s, no execution. Build failures score ``None`` and are never
   admitted.
2. **Measured tier.** The first ``min(budget, buildable)`` points of the
   model ranking are engine-measured in one scheduler batch, and the
   best *measured* point wins. The model only decides which points get
   measured, never which one wins.

The search's one premise is that the model ranks points as measurement
does; ``tests/test_search.py`` checks it point by point on the paper
grid, so a model that drifts from the engine fails a test instead of
silently steering the search.

Determinism is load-bearing (the differential harness and golden
trajectories pin it): every ordering is by ``(-score, pool_index)`` —
ties keep the earlier candidate in pool (row-major grid) order — and is
computed from *values*, never from completion order. The searcher is a
thin :class:`~repro.core.scheduler.CampaignScheduler` client exactly
like ``explore()``: the measured tier is one scheduler batch, so
journaling and ``resume=``, serial and process backends, and
crash-requeue all come for free. Restored evaluations count against the
budget by construction, because the model ranking alone fixes the
measured set.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Optional, Sequence

from ...errors import SweepError
from ...obs import events, metrics
from ..engine import ExecutionEngine
from ..history import SweepJournal
from ..params import TuningParameters
from ..results import ResultSet, RunResult
from ..runner import BenchmarkRunner
from ..scheduler import CampaignScheduler
from ..sweep import ParameterSweep
from .lowfi import LowFidelityScorer

__all__ = [
    "DEFAULT_BUDGET",
    "SearchRung",
    "SearchResult",
    "promote",
    "multifidelity_search",
]


#: measured evaluations a search spends unless told otherwise
DEFAULT_BUDGET = 6


@dataclass(frozen=True)
class SearchRung:
    """One tier of the search, recorded for fingerprinting.

    ``candidates``/``scores`` are aligned: the points considered at this
    tier in pool order and the score each received (model GB/s for the
    model rung, measured GB/s for the measured rung; ``None`` for a
    point that failed to build or run). ``survivors`` is their ranking
    by ``(-score, pool_index)``: the model ranking, or the measured one.
    """

    index: int
    tier: str  # "model" | "measured"
    candidates: tuple[str, ...]
    scores: tuple[Optional[float], ...]
    survivors: tuple[str, ...]
    spent: int  # cumulative measured evaluations after this rung

    def doc(self) -> dict[str, object]:
        return {
            "index": self.index,
            "tier": self.tier,
            "candidates": list(self.candidates),
            "scores": [
                None if s is None else round(s, 6) for s in self.scores
            ],
            "survivors": list(self.survivors),
            "spent": self.spent,
        }

    def fingerprint(self) -> str:
        blob = json.dumps(self.doc(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class SearchResult:
    """Outcome of a model-guided search."""

    best: RunResult
    evaluations: ResultSet
    rungs: list[SearchRung]
    budget: int = 0
    spent: int = 0
    pool_size: int = 0
    grid_size: int = 0
    model_scored: int = 0

    @property
    def evaluations_used(self) -> int:
        return len(self.evaluations)

    @property
    def efficiency(self) -> float:
        """Pool points per measured evaluation (higher = cheaper search)."""
        return self.pool_size / max(1, self.spent)

    def rung_fingerprints(self) -> list[str]:
        return [r.fingerprint() for r in self.rungs]

    def trajectory_fingerprint(self) -> str:
        """One hash over the whole rung-by-rung trajectory."""
        blob = json.dumps(
            [r.doc() for r in self.rungs], sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def promote(
    candidates: Sequence[int],
    scores: Mapping[int, Optional[float]],
    keep: int,
) -> list[int]:
    """The ``keep`` best candidates by ``(-score, pool_index)``.

    Unscored / failed candidates (``None``) rank as 0.0 — below any
    successful measurement, but still deterministically ordered by pool
    index so an all-failed rung has a stable winner.
    """
    def key(i: int) -> tuple[float, int]:
        s = scores.get(i)
        return (-(s if s is not None else 0.0), i)

    return sorted(candidates, key=key)[: max(0, keep)]


def multifidelity_search(
    runner: BenchmarkRunner | ExecutionEngine,
    axes: Mapping[str, Sequence[object]],
    *,
    seed: TuningParameters | None = None,
    budget: int = DEFAULT_BUDGET,
    jobs: int = 1,
    backend: str | None = None,
    journal: SweepJournal | str | Path | None = None,
    resume: bool = False,
    resume_or_start: bool = False,
    max_worker_restarts: int = 2,
) -> SearchResult:
    """Rank the pool on the model, measure its top ``budget``, keep the best.

    ``axes`` maps :class:`TuningParameters` fields to candidate values;
    the pool is the cartesian product grounded on ``seed`` (defaults to
    ``TuningParameters()``), in row-major grid order, invalid
    combinations skipped. ``budget`` caps *measured* evaluations only —
    model scores are free.

    Scheduling semantics are ``explore()``'s: ``jobs``/``backend``
    parallelize the measured batch, ``journal``/``resume`` checkpoint
    every measured evaluation. The trajectory is backend-,
    parallelism- and resume-independent by construction.
    """
    if budget < 1:
        raise SweepError(f"budget must be >= 1, got {budget}")
    if not axes:
        raise SweepError("search needs at least one axis")

    base = seed if seed is not None else TuningParameters()
    sweep = ParameterSweep(base=base, axes=dict(axes))  # validates axes
    pool: list[TuningParameters] = list(sweep.points())
    if not pool:
        raise SweepError(
            "search pool is empty: every axis combination is invalid"
        )

    scorer = LowFidelityScorer(runner)
    for point in pool:
        scorer.check_scorable(point)

    scheduler = CampaignScheduler(
        runner,
        backend=backend,
        jobs=jobs,
        journal=journal,
        resume=resume,
        resume_or_start=resume_or_start,
        max_worker_restarts=max_worker_restarts,
    )

    keys = [p.describe() for p in pool]
    events.emit("search_started", pool=len(pool), grid=len(sweep), budget=budget)
    rungs: list[SearchRung] = []

    def record(tier: str, candidates: list[int], scores, survivors, spent):
        rung = SearchRung(
            index=len(rungs),
            tier=tier,
            candidates=tuple(keys[i] for i in candidates),
            scores=tuple(scores.get(i) for i in candidates),
            survivors=tuple(keys[i] for i in survivors),
            spent=spent,
        )
        rungs.append(rung)
        events.emit(
            "search_rung",
            index=rung.index,
            tier=tier,
            candidates=len(candidates),
            survivors=len(survivors),
            spent=spent,
            fingerprint=rung.fingerprint(),
        )

    # -- rung 0: the model tier scores the whole pool (free) ------------------
    model_scores: dict[int, Optional[float]] = {
        i: scorer.score(p) for i, p in enumerate(pool)
    }
    metrics.count("search.model_scores", len(pool))
    scoreable = [i for i in range(len(pool)) if model_scores[i] is not None]
    ranking = promote(scoreable, model_scores, len(scoreable))
    record("model", list(range(len(pool))), model_scores, ranking, 0)
    if not ranking:
        raise SweepError(
            "low-fidelity tier could not score any pool point: every "
            "candidate failed to build for "
            f"{scorer.device.short_name!r}"
        )

    # -- rung 1: measure the model's top `budget` in one batch ----------------
    # Points go to the scheduler in pool order, so the journal sequence
    # (and therefore resume) is deterministic.
    admitted = sorted(ranking[:budget])
    results = dict(zip(admitted, scheduler.run([pool[i] for i in admitted])))
    measured: dict[int, Optional[float]] = {}
    for i, run in results.items():
        measured[i] = run.bandwidth_gbs if run.ok else None
        events.emit(
            "search_candidate",
            point=run.fingerprint(),
            params=keys[i],
            ok=run.ok,
            bandwidth_gbs=measured[i],
        )
    spent = len(admitted)
    metrics.count("search.evaluations", spent)
    measured_ranking = promote(admitted, measured, spent)
    record("measured", admitted, measured, measured_ranking, spent)

    # An all-failed batch still has a deterministic winner: failures rank
    # as 0.0, so the earliest pool point comes first.
    winner = measured_ranking[0]
    result = SearchResult(
        best=results[winner],
        evaluations=ResultSet(results.values()),
        rungs=rungs,
        budget=budget,
        spent=spent,
        pool_size=len(pool),
        grid_size=len(sweep),
        model_scored=len(scoreable),
    )
    events.emit(
        "search_finished",
        best=keys[winner],
        bandwidth_gbs=measured[winner],
        spent=spent,
        pool=len(pool),
        rungs=len(rungs),
        trajectory=result.trajectory_fingerprint(),
    )
    return result
