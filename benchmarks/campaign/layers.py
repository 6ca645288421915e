"""Outside-in layer tracing for the campaign benchmark.

Wrappers defined here go around the public functions of each layer of
``repro`` (the layer names are the repo's module names) and record one
span per call: layer, function, start, end, parent span and point id.
Nothing under ``src/`` changes; the benchmark installs the wrappers in
its own campaign process before the campaign starts.

Spans live in memory and are written out when the campaign ends. A
process-backend campaign forks its workers after the wrappers are
installed, so the workers inherit them; a worker cannot flush at exit
(the pool ends it with ``os._exit``), so it appends its spans to
``<spill_dir>/spans-<pid>.jsonl`` each time a top-level span closes.

The recorder assumes one thread per process, which holds for the
serial and process backends the workloads use.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from pathlib import Path
from typing import Callable

#: span fields, in the order :class:`Recorder` stores them
LAYER, FN, START, END, PARENT, POINT, FAILED, EXTRA = range(8)

#: functional-execution entry points (one call = one functional launch)
LAUNCH_FNS = frozenset(
    {"VectorKernel.run", "VectorKernel.run_batch", "CompiledKernel.run",
     "KernelInterpreter.run"}
)
VECTOR_FNS = frozenset({"VectorKernel.run", "VectorKernel.run_batch"})
KERNEL_BUILD_FNS = frozenset(
    {"vectorize_kernel", "compile_kernel", "KernelInterpreter.__init__"}
)
ROOT_LAYER = "campaign"


class Recorder:
    """In-memory span store for one campaign process and its forks."""

    def __init__(self, spill_dir: Path):
        self.spill_dir = Path(spill_dir)
        self.main_pid = os.getpid()
        self.pid = self.main_pid
        self.spans: list[list] = []
        self.stack: list[int] = []
        self._points = 0

    def open(self, layer: str, fn: str, new_point: bool) -> int:
        if os.getpid() != self.pid:  # first span in a forked worker
            self.pid = os.getpid()
            self.spans, self.stack = [], []
        parent = self.stack[-1] if self.stack else None
        if new_point or parent is None:
            self._points += 1
            point = f"{self.pid}-{self._points}"
        else:
            point = self.spans[parent][POINT]
        index = len(self.spans)
        self.spans.append(
            [layer, fn, time.perf_counter(), 0.0, parent, point, False, None]
        )
        self.stack.append(index)
        return index

    def close(self, index: int, *, failed: bool = False, extra=None) -> None:
        span = self.spans[index]
        span[END] = time.perf_counter()
        span[FAILED] = failed
        span[EXTRA] = extra
        self.stack.pop()
        if not self.stack and self.pid != self.main_pid:
            with open(self.spill_dir / f"spans-{self.pid}.jsonl", "a") as fh:
                fh.write(json.dumps(self.spans) + "\n")
            self.spans = []

    def all_spans(self) -> dict[int, list[list]]:
        """Spans by pid: this process's plus every worker's spill file."""
        out = {self.main_pid: self.spans}
        for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
            pid = int(path.stem.split("-", 1)[1])
            spans: list[list] = []
            for line in path.read_text().splitlines():
                batch = json.loads(line)
                offset = len(spans)
                for span in batch:
                    if span[PARENT] is not None:
                        span[PARENT] += offset
                    spans.append(span)
            out[pid] = spans
        return out


# -- wrappers -----------------------------------------------------------------


def _hit(args, kwargs, result):
    return {"hit": bool(result[1])}


def _transfer_bytes(args, kwargs, result):
    return {"bytes": int(args[2].nbytes)}


def _buffer_bytes(mapping) -> int:
    return sum(
        int(v.array.nbytes) for v in mapping.values() if hasattr(v, "array")
    )


def _launch_bytes(args, kwargs, result):
    return {"bytes": _buffer_bytes(args[2])}


def _batch_bytes(args, kwargs, result):
    return {"bytes": sum(_buffer_bytes(call) for call in args[2])}


#: (layer, "module:attribute path", starts a new point, note on return).
#: A note turns the call's arguments and result into span data.
TARGETS: tuple[tuple[str, str, bool, Callable | None], ...] = (
    ("core.engine", "repro.core.engine:ExecutionEngine.run", True, None),
    ("core.generator", "repro.core.generator:generate", False, None),
    ("oclc.frontend", "repro.ocl.program:BuildCache.frontend", False, _hit),
    ("devices.plan", "repro.ocl.program:BuildCache.plan", False, None),
    ("devices.build", "repro.devices.base:DeviceModel.build", False, None),
    ("devices.timing", "repro.devices.cpu:CpuModel.kernel_timing", False, None),
    ("devices.timing", "repro.devices.gpu:GpuModel.kernel_timing", False, None),
    ("devices.timing", "repro.devices.fpga.model:FpgaModel.kernel_timing", False, None),
    ("ocl.launch", "repro.ocl.queue:CommandQueue.enqueue_nd_range_kernel", False, None),
    ("ocl.transfer", "repro.ocl.queue:CommandQueue.enqueue_write_buffer", False, _transfer_bytes),
    ("ocl.transfer", "repro.ocl.queue:CommandQueue.enqueue_read_buffer", False, _transfer_bytes),
    ("ocl.buffers", "repro.ocl.context:Context.create_buffer", False, None),
    ("ocl.buffers", "repro.ocl.buffer:Buffer.release", False, None),
    ("oclc.exec", "repro.oclc.vectorize:VectorKernel.run", False, _launch_bytes),
    ("oclc.exec", "repro.oclc.vectorize:VectorKernel.run_batch", False, _batch_bytes),
    ("oclc.exec", "repro.oclc.compile:CompiledKernel.run", False, _launch_bytes),
    ("oclc.exec", "repro.oclc.interp:KernelInterpreter.run", False, _launch_bytes),
    ("oclc.exec", "repro.oclc.vectorize:vectorize_kernel", False, None),
    ("oclc.exec", "repro.oclc.compile:compile_kernel", False, None),
    ("oclc.exec", "repro.oclc.interp:KernelInterpreter.__init__", False, None),
    ("core.validate", "repro.core.validate:validate_solution", False, None),
    ("core.kernels.reference", "repro.core.kernels:reference", False, None),
    ("core.kernels.init", "repro.core.kernels:initial_arrays", False, None),
    ("core.search.lowfi", "repro.core.search.lowfi:LowFidelityScorer.score", True, None),
    ("core.scheduler", "repro.core.scheduler.campaign:CampaignScheduler.run", False, None),
    ("core.history", "repro.core.history:SweepJournal.record", False, None),
)

#: executors whose sessions' ``next_outcome`` is timed as scheduler wait
SESSION_TARGETS = (
    "repro.core.scheduler.executors:SerialExecutor.session",
    "repro.core.scheduler.executors:ThreadExecutor.session",
    "repro.core.scheduler.executors:ProcessExecutor.session",
)


def _wrap(rec: Recorder, layer: str, name: str, fn, new_point=False, note=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = rec.open(layer, name, new_point)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            rec.close(index, failed=True)
            raise
        rec.close(index, extra=note(args, kwargs, result) if note else None)
        return result

    return wrapper


def _wrap_session(rec: Recorder, fn):
    @functools.wraps(fn)
    def session(*args, **kwargs):
        value = fn(*args, **kwargs)
        value.next_outcome = _wrap(
            rec, "core.scheduler.wait", "next_outcome", value.next_outcome
        )
        return value

    return session


def _resolve(target: str):
    """``(owner, attribute, current value)`` of a ``module:path`` target."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


def _rebind(original, replacement) -> None:
    """Point every ``from x import f`` copy inside ``repro`` at the wrapper."""
    for name, module in list(sys.modules.items()):
        if name != "repro" and not name.startswith("repro."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(rec: Recorder, targets=TARGETS, sessions=SESSION_TARGETS) -> list[str]:
    """Wrap every target; returns the targets that no longer exist.

    A missing target (a deleted lane, a renamed function) is skipped, so
    its layer reports 0 calls instead of failing the benchmark.
    """
    missing = []
    for layer, target, new_point, note in targets:
        try:
            owner, attr, fn = _resolve(target)
        except (ImportError, AttributeError):
            missing.append(target)
            continue
        name = target.partition(":")[2]
        wrapped = _wrap(rec, layer, name, fn, new_point, note)
        setattr(owner, attr, wrapped)
        if not isinstance(owner, type):
            _rebind(fn, wrapped)
    for target in sessions:
        try:
            owner, attr, fn = _resolve(target)
        except (ImportError, AttributeError):
            missing.append(target)
            continue
        setattr(owner, attr, _wrap_session(rec, fn))
    return missing


# -- analysis -----------------------------------------------------------------


def _self_times(spans: list[list]) -> tuple[list[float], list[bool]]:
    """Per-span self time, and whether a span has a ``devices.build`` child."""
    self_s = [s[END] - s[START] for s in spans]
    built = [False] * len(spans)
    for span in spans:
        parent = span[PARENT]
        if parent is not None:
            self_s[parent] -= span[END] - span[START]
            if span[LAYER] == "devices.build":
                built[parent] = True
    return self_s, built


def analyze(by_pid: dict[int, list[list]], main_pid: int, jobs: int) -> dict:
    """Per-layer metrics and the layer table of one traced campaign."""
    root = next(s for s in by_pid[main_pid] if s[LAYER] == ROOT_LAYER)
    campaign_s = root[END] - root[START]
    calls: dict[str, int] = {}
    self_by_layer: dict[str, float] = {}
    fn_calls: dict[str, int] = {}
    failed: dict[str, int] = {}
    launch_bytes = transfer_bytes = frontend_hits = plan_hits = 0
    engine_busy = 0.0
    main_layer_s = 0.0
    worker_layer_s = worker_window_s = 0.0
    for pid, spans in by_pid.items():
        self_s, built = _self_times(spans)
        if pid != main_pid and spans:
            worker_layer_s += sum(self_s)
            worker_window_s += max(s[END] for s in spans) - min(s[START] for s in spans)
        for span, own, has_build in zip(spans, self_s, built):
            layer, fn = span[LAYER], span[FN]
            calls[layer] = calls.get(layer, 0) + 1
            self_by_layer[layer] = self_by_layer.get(layer, 0.0) + own
            fn_calls[fn] = fn_calls.get(fn, 0) + 1
            if span[FAILED]:
                failed[layer] = failed.get(layer, 0) + 1
            extra = span[EXTRA] or {}
            if fn in LAUNCH_FNS:
                launch_bytes += extra.get("bytes", 0)
            elif layer == "ocl.transfer":
                transfer_bytes += extra.get("bytes", 0)
            elif layer == "oclc.frontend":
                frontend_hits += extra.get("hit", False)
            elif layer == "devices.plan":
                plan_hits += not has_build
            elif layer == "core.engine":
                engine_busy += span[END] - span[START]
            if pid == main_pid and layer != ROOT_LAYER:
                main_layer_s += own

    def n(layer: str) -> int:
        return calls.get(layer, 0)

    def own(layer: str) -> float:
        return self_by_layer.get(layer, 0.0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    launches = sum(fn_calls.get(fn, 0) for fn in LAUNCH_FNS)
    metrics = {
        "oclc.exec.launches": launches,
        "oclc.exec.self_s": own("oclc.exec"),
        "oclc.exec.useful_ratio": ratio(n("core.engine"), launches),
        "oclc.exec.vectorized_frac": ratio(
            sum(fn_calls.get(fn, 0) for fn in VECTOR_FNS), launches
        ),
        "oclc.exec.kernel_builds": sum(fn_calls.get(fn, 0) for fn in KERNEL_BUILD_FNS),
        "oclc.exec.computed_bytes": launch_bytes,
        "ocl.launch.calls": n("ocl.launch"),
        "ocl.launch.self_s": own("ocl.launch"),
        "core.validate.calls": n("core.validate"),
        "core.validate.self_s": own("core.validate"),
        "core.kernels.reference_s": own("core.kernels.reference"),
        "core.kernels.init_s": own("core.kernels.init"),
        "ocl.buffers.calls": n("ocl.buffers"),
        "ocl.buffers.self_s": own("ocl.buffers"),
        "ocl.transfer.calls": n("ocl.transfer"),
        "ocl.transfer.self_s": own("ocl.transfer"),
        "ocl.transfer.bytes": transfer_bytes,
        "oclc.frontend.calls": n("oclc.frontend"),
        "oclc.frontend.self_s": own("oclc.frontend"),
        "oclc.frontend.hit_ratio": ratio(frontend_hits, n("oclc.frontend")),
        "core.generator.calls": n("core.generator"),
        "core.generator.self_s": own("core.generator"),
        "devices.build.calls": n("devices.build"),
        "devices.build.self_s": own("devices.build"),
        "devices.build.failed": failed.get("devices.build", 0),
        "devices.plan.hit_ratio": ratio(plan_hits, n("devices.plan")),
        "devices.timing.calls": n("devices.timing"),
        "devices.timing.self_s": own("devices.timing"),
        "core.search.lowfi_calls": n("core.search.lowfi"),
        "core.search.lowfi_self_s": own("core.search.lowfi"),
        "core.engine.points": n("core.engine"),
        "core.engine.self_s": own("core.engine"),
        "core.scheduler.self_s": own("core.scheduler"),
        "core.scheduler.wait_s": own("core.scheduler.wait"),
        "core.scheduler.worker_busy_frac": ratio(engine_busy, jobs * campaign_s),
        "core.history.records": n("core.history"),
        "core.history.self_s": own("core.history"),
        "campaign.self_s": own(ROOT_LAYER),
        "trace.campaign_s": campaign_s,
        "trace.coverage": ratio(main_layer_s, campaign_s),
        "trace.worker_coverage": ratio(worker_layer_s, worker_window_s),
    }
    table = sorted(
        (
            {
                "layer": layer,
                "calls": calls[layer],
                "self_s": self_by_layer[layer],
                "share": self_by_layer[layer] / campaign_s,
            }
            for layer in calls
        ),
        key=lambda row: -row["self_s"],
    )
    return {"metrics": metrics, "table": table}


def chrome_trace(by_pid: dict[int, list[list]], main_pid: int) -> dict:
    """Chrome-trace JSON: one track per pid, times relative to the root."""
    t0 = min(s[START] for spans in by_pid.values() for s in spans)
    events: list[dict] = []
    for pid, spans in by_pid.items():
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": pid,
                "args": {"name": "campaign" if pid == main_pid else "worker"},
            }
        )
        for span in spans:
            args = {"point": span[POINT]}
            if span[FAILED]:
                args["failed"] = True
            if span[EXTRA]:
                args.update(span[EXTRA])
            events.append(
                {
                    "name": span[FN],
                    "cat": span[LAYER],
                    "ph": "X",
                    "ts": (span[START] - t0) * 1e6,
                    "dur": (span[END] - span[START]) * 1e6,
                    "pid": pid,
                    "tid": pid,
                    "args": args,
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}
