"""MP-STREAM: the benchmark itself (the paper's contribution).

Public API sketch::

    from repro.core import BenchmarkRunner, TuningParameters, KernelName

    runner = BenchmarkRunner("aocl")
    result = runner.run(TuningParameters(kernel=KernelName.COPY,
                                         vector_width=8))
    print(result.summary())
"""

from __future__ import annotations

from ..faults import FaultPlan, FaultSpec
from ..ocl.program import BuildCache
from .engine import STAGES, EngineStats, ExecutionEngine, Watchdog, WorkerSpec
from .generator import GeneratedKernel, generate
from .history import (
    JOURNAL_SCHEMA,
    TORN_WRITE_EXIT_CODE,
    CompareEntry,
    JournalFsck,
    SweepJournal,
    compact_journal,
    compare_results,
    fsck_journal,
    load_results,
    point_fingerprint,
    save_results,
)
from .kernels import KERNELS, SCALAR_Q, KernelSpec, initial_arrays, reference
from .params import (
    VECTOR_WIDTHS,
    AccessPattern,
    DataType,
    KernelName,
    LoopManagement,
    StreamLocus,
    TuningParameters,
)
from .report import (
    ascii_chart,
    failure_table,
    markdown_table,
    metrics_table,
    results_table,
    series_table,
    stream_table,
    verify_table,
)
from .results import ResultSet, RunResult
from .roofline import RooflinePoint, peak_compute_flops, roofline_point
from .runner import BenchmarkRunner, optimal_loop_for
from .scheduler import (
    BACKENDS,
    CampaignScheduler,
    Executor,
    ProcessExecutor,
    SerialExecutor,
    make_executor,
)
from .search import (
    LowFidelityScorer,
    SearchResult,
    SearchRung,
    multifidelity_search,
)
from .sweep import ParameterSweep, explore
from .validate import validate_solution

__all__ = [
    "TuningParameters",
    "KernelName",
    "DataType",
    "AccessPattern",
    "LoopManagement",
    "StreamLocus",
    "VECTOR_WIDTHS",
    "KernelSpec",
    "KERNELS",
    "SCALAR_Q",
    "initial_arrays",
    "reference",
    "GeneratedKernel",
    "generate",
    "BenchmarkRunner",
    "ExecutionEngine",
    "EngineStats",
    "Watchdog",
    "WorkerSpec",
    "CampaignScheduler",
    "BACKENDS",
    "Executor",
    "SerialExecutor",
    "ProcessExecutor",
    "make_executor",
    "FaultPlan",
    "FaultSpec",
    "BuildCache",
    "STAGES",
    "optimal_loop_for",
    "RunResult",
    "ResultSet",
    "ParameterSweep",
    "explore",
    "validate_solution",
    "multifidelity_search",
    "SearchResult",
    "SearchRung",
    "LowFidelityScorer",
    "save_results",
    "load_results",
    "compare_results",
    "CompareEntry",
    "SweepJournal",
    "JournalFsck",
    "fsck_journal",
    "compact_journal",
    "JOURNAL_SCHEMA",
    "TORN_WRITE_EXIT_CODE",
    "point_fingerprint",
    "roofline_point",
    "RooflinePoint",
    "peak_compute_flops",
    "stream_table",
    "failure_table",
    "metrics_table",
    "verify_table",
    "results_table",
    "series_table",
    "ascii_chart",
    "markdown_table",
]
