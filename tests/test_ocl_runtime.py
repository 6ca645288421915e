"""OpenCL-like runtime: platforms, contexts, buffers, queues, events."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import (
    BuildError,
    InvalidOperationError,
    InvalidValueError,
    LaunchError,
)
from repro.ocl import CommandQueue, Context, MemFlags, Program
from repro.ocl.events import CommandType
from repro.ocl.platform import find_device, get_platforms

COPY_SRC = """
__kernel void copy_k(__global const int *a, __global int *c) {
    size_t i = get_global_id(0);
    c[i] = a[i];
}
"""


class TestPlatforms:
    def test_four_paper_targets(self):
        shorts = {d.short_name for p in get_platforms() for d in p.devices}
        assert shorts == {"cpu", "gpu", "aocl", "sdaccel"}

    def test_device_types(self):
        assert find_device("cpu").device_type == "cpu"
        assert find_device("gpu").device_type == "gpu"
        assert find_device("aocl").device_type == "accelerator"
        assert find_device("sdaccel").device_type == "accelerator"

    def test_unknown_device(self):
        with pytest.raises(InvalidValueError):
            find_device("tpu")

    def test_info_fields(self, any_device):
        info = any_device.info()
        assert info["peak_global_bandwidth_gbs"] > 0
        assert info["global_mem_size"] > 0
        assert info["max_compute_units"] >= 1

    def test_platform_filter(self):
        for p in get_platforms():
            cpus = p.get_devices("cpu")
            assert all(d.device_type == "cpu" for d in cpus)


class TestBuffers:
    def test_create_by_size_zeroed(self, cpu_device):
        ctx = Context(cpu_device)
        buf = ctx.create_buffer(size=64)
        assert buf.size == 64
        assert not buf.view(np.uint8).any()

    def test_create_from_hostbuf_copies(self, cpu_device):
        ctx = Context(cpu_device)
        host = np.arange(10, dtype=np.int32)
        buf = ctx.create_buffer(hostbuf=host)
        host[0] = 99
        assert buf.view(np.int32)[0] == 0  # copy, not view

    def test_size_xor_hostbuf(self, cpu_device):
        ctx = Context(cpu_device)
        with pytest.raises(InvalidValueError):
            ctx.create_buffer()
        with pytest.raises(InvalidValueError):
            ctx.create_buffer(size=4, hostbuf=np.zeros(1, np.int32))

    def test_exceeds_device_memory(self, gpu_device):
        ctx = Context(gpu_device)
        with pytest.raises(InvalidValueError):
            ctx.create_buffer(size=gpu_device.global_mem_size + 1)

    def test_typed_view_divisibility(self, cpu_device):
        ctx = Context(cpu_device)
        buf = ctx.create_buffer(size=6)
        with pytest.raises(InvalidValueError):
            buf.view(np.int32)

    def test_release_semantics(self, cpu_device):
        ctx = Context(cpu_device)
        buf = ctx.create_buffer(size=16)
        buf.release()
        with pytest.raises(InvalidOperationError):
            buf.view(np.uint8)

    def test_context_manager_releases(self, cpu_device):
        with Context(cpu_device) as ctx:
            buf = ctx.create_buffer(size=16)
        assert buf.released

    def test_flags(self, cpu_device):
        ctx = Context(cpu_device)
        ro = ctx.create_buffer(size=4, flags=MemFlags.READ_ONLY)
        assert ro.readable() and not ro.writable()


class TestQueueTransfers:
    def test_write_then_read_roundtrip(self, gpu_device):
        ctx = Context(gpu_device)
        q = CommandQueue(ctx, gpu_device)
        buf = ctx.create_buffer(size=4096)
        src = np.arange(1024, dtype=np.int32)
        dst = np.zeros(1024, dtype=np.int32)
        ev_w = q.enqueue_write_buffer(buf, src)
        ev_r = q.enqueue_read_buffer(buf, dst)
        assert np.array_equal(dst, src)
        assert ev_w.command is CommandType.WRITE_BUFFER
        assert ev_r.command is CommandType.READ_BUFFER
        assert ev_w.duration > 0 and ev_r.duration > 0

    def test_virtual_clock_monotone(self, gpu_device):
        ctx = Context(gpu_device)
        q = CommandQueue(ctx, gpu_device)
        buf = ctx.create_buffer(size=4096)
        src = np.zeros(1024, dtype=np.int32)
        e1 = q.enqueue_write_buffer(buf, src)
        e2 = q.enqueue_write_buffer(buf, src)
        assert e2.queued >= e1.end
        assert q.finish() == e2.end

    def test_larger_transfers_take_longer(self, gpu_device):
        ctx = Context(gpu_device)
        q = CommandQueue(ctx, gpu_device)
        small = ctx.create_buffer(size=4096)
        big = ctx.create_buffer(size=4 * 1024 * 1024)
        t_small = q.enqueue_write_buffer(small, np.zeros(1024, np.int32)).duration
        t_big = q.enqueue_write_buffer(big, np.zeros(1024 * 1024, np.int32)).duration
        assert t_big > t_small

    def test_copy_buffer(self, cpu_device):
        ctx = Context(cpu_device)
        q = CommandQueue(ctx, cpu_device)
        a = ctx.create_buffer(hostbuf=np.arange(16, dtype=np.int32))
        b = ctx.create_buffer(size=64)
        q.enqueue_copy_buffer(a, b)
        assert np.array_equal(b.view(np.int32), np.arange(16))

    def test_oversized_write_rejected(self, cpu_device):
        ctx = Context(cpu_device)
        q = CommandQueue(ctx, cpu_device)
        buf = ctx.create_buffer(size=16)
        with pytest.raises(InvalidValueError):
            q.enqueue_write_buffer(buf, np.zeros(100, np.int32))

    def test_queue_device_must_be_in_context(self, cpu_device, gpu_device):
        ctx = Context(cpu_device)
        with pytest.raises(InvalidValueError):
            CommandQueue(ctx, gpu_device)


class TestProgramsAndKernels:
    def test_build_and_run(self, any_device):
        ctx = Context(any_device)
        q = CommandQueue(ctx, any_device)
        prog = Program(ctx, COPY_SRC).build()
        k = prog.create_kernel("copy_k")
        a = ctx.create_buffer(hostbuf=np.arange(256, dtype=np.int32))
        c = ctx.create_buffer(size=1024)
        k.set_args(a=a, c=c)
        ev = q.enqueue_nd_range_kernel(k, (256,))
        assert ev.command is CommandType.ND_RANGE_KERNEL
        assert ev.duration > 0
        assert np.array_equal(c.view(np.int32), np.arange(256))

    def test_build_error_has_log(self, cpu_device):
        ctx = Context(cpu_device)
        with pytest.raises(BuildError) as err:
            Program(ctx, "__kernel void f(__global int *a) { a[0] = oops; }").build()
        assert "oops" in str(err.value)

    def test_build_log_query(self, aocl_device):
        ctx = Context(aocl_device)
        prog = Program(ctx, COPY_SRC).build()
        assert "copy_k" in prog.build_log(aocl_device)

    def test_kernel_names(self, cpu_device):
        ctx = Context(cpu_device)
        prog = Program(ctx, COPY_SRC).build()
        assert prog.kernel_names() == ("copy_k",)

    def test_positional_args(self, cpu_device):
        ctx = Context(cpu_device)
        q = CommandQueue(ctx, cpu_device)
        prog = Program(ctx, COPY_SRC).build()
        k = prog.create_kernel("copy_k")
        a = ctx.create_buffer(hostbuf=np.arange(8, dtype=np.int32))
        c = ctx.create_buffer(size=32)
        k.set_arg(0, a)
        k.set_arg(1, c)
        q.enqueue_nd_range_kernel(k, (8,))
        assert np.array_equal(c.view(np.int32), np.arange(8))

    def test_unbound_args_rejected(self, cpu_device):
        ctx = Context(cpu_device)
        q = CommandQueue(ctx, cpu_device)
        k = Program(ctx, COPY_SRC).build().create_kernel("copy_k")
        k.set_arg(0, ctx.create_buffer(size=32))
        with pytest.raises(LaunchError):
            q.enqueue_nd_range_kernel(k, (8,))

    def test_scalar_arg_type_check(self, cpu_device):
        ctx = Context(cpu_device)
        src = "__kernel void f(__global int *a, const int n) { a[0] = n; }"
        k = Program(ctx, src).build().create_kernel("f")
        with pytest.raises(InvalidValueError):
            k.set_args(n=ctx.create_buffer(size=4))  # buffer for scalar
        with pytest.raises(InvalidValueError):
            k.set_args(a=5)  # scalar for buffer

    def test_misaligned_buffer_rejected(self, cpu_device):
        ctx = Context(cpu_device)
        src = "__kernel void f(__global int4 *a) { a[0] = (int4)(1); }"
        k = Program(ctx, src).build().create_kernel("f")
        with pytest.raises(InvalidValueError):
            k.set_args(a=ctx.create_buffer(size=12))  # not a whole int4

    def test_write_to_readonly_buffer_rejected(self, cpu_device):
        ctx = Context(cpu_device)
        q = CommandQueue(ctx, cpu_device)
        k = Program(ctx, COPY_SRC).build().create_kernel("copy_k")
        a = ctx.create_buffer(hostbuf=np.arange(8, dtype=np.int32))
        c = ctx.create_buffer(size=32, flags=MemFlags.READ_ONLY)
        k.set_args(a=a, c=c)
        with pytest.raises(LaunchError):
            q.enqueue_nd_range_kernel(k, (8,))

    def test_reqd_work_group_size_enforced(self, cpu_device):
        ctx = Context(cpu_device)
        q = CommandQueue(ctx, cpu_device)
        src = (
            "__kernel __attribute__((reqd_work_group_size(64, 1, 1)))"
            " void f(__global int *a) { a[get_global_id(0)] = 1; }"
        )
        k = Program(ctx, src).build().create_kernel("f")
        k.set_args(a=ctx.create_buffer(size=4 * 128))
        with pytest.raises(LaunchError):
            q.enqueue_nd_range_kernel(k, (128,), (32,))
        q.enqueue_nd_range_kernel(k, (128,), (64,))  # correct size passes

    def test_bad_ndrange(self, cpu_device):
        ctx = Context(cpu_device)
        q = CommandQueue(ctx, cpu_device)
        k = Program(ctx, COPY_SRC).build().create_kernel("copy_k")
        k.set_args(
            a=ctx.create_buffer(size=32),
            c=ctx.create_buffer(size=32),
        )
        with pytest.raises(LaunchError):
            q.enqueue_nd_range_kernel(k, (0,))
        with pytest.raises(LaunchError):
            q.enqueue_nd_range_kernel(k, (8,), (3,))


class TestEvents:
    def test_profile_counters(self, gpu_device):
        ctx = Context(gpu_device)
        q = CommandQueue(ctx, gpu_device)
        prog = Program(ctx, COPY_SRC).build()
        k = prog.create_kernel("copy_k")
        k.set_args(
            a=ctx.create_buffer(hostbuf=np.zeros(64, np.int32)),
            c=ctx.create_buffer(size=256),
        )
        ev = q.enqueue_nd_range_kernel(k, (64,))
        prof = ev.profile()
        assert prof["queued"] <= prof["submit"] <= prof["start"] <= prof["end"]
        assert ev.latency >= ev.duration

    def test_incomplete_event_raises(self):
        from repro.ocl.events import Event

        ev = Event(command=CommandType.MARKER)
        with pytest.raises(InvalidOperationError):
            _ = ev.duration
        with pytest.raises(InvalidOperationError):
            ev.profile()


class TestExecutionPaths:
    def test_control_flow_kernel_uses_interpreter(self, cpu_device):
        """Kernels the specializer refuses still execute (fallback)."""
        ctx = Context(cpu_device)
        q = CommandQueue(ctx, cpu_device)
        src = (
            "__kernel void k(__global int *a) {"
            " size_t i = get_global_id(0);"
            " if (i % 2 == 0) a[i] = 1; else a[i] = 2; }"
        )
        k = Program(ctx, src).build().create_kernel("k")
        buf = ctx.create_buffer(size=64)
        k.set_args(a=buf)
        q.enqueue_nd_range_kernel(k, (16,))
        got = buf.view(np.int32)
        assert np.array_equal(got, np.where(np.arange(16) % 2 == 0, 1, 2))

    def test_reduction_kernel_through_queue(self, aocl_device):
        ctx = Context(aocl_device)
        q = CommandQueue(ctx, aocl_device)
        src = (
            "__kernel void k(__global const int *a, __global int *c) {"
            " int acc = 0;"
            " for (int i = 0; i < 64; i++) acc += a[i];"
            " c[0] = acc; }"
        )
        k = Program(ctx, src).build().create_kernel("k")
        a = ctx.create_buffer(hostbuf=np.arange(64, dtype=np.int32))
        c = ctx.create_buffer(size=4)
        k.set_args(a=a, c=c)
        q.enqueue_nd_range_kernel(k, (1,))
        assert c.view(np.int32)[0] == 2016

    def test_specializer_cached_across_launches(self, cpu_device):
        ctx = Context(cpu_device)
        q = CommandQueue(ctx, cpu_device)
        k = Program(ctx, COPY_SRC).build().create_kernel("copy_k")
        a = ctx.create_buffer(hostbuf=np.arange(64, dtype=np.int32))
        c = ctx.create_buffer(size=256)
        k.set_args(a=a, c=c)
        q.enqueue_nd_range_kernel(k, (64,))
        assert len(q._specialized_cache) == 1
        q.enqueue_nd_range_kernel(k, (64,))
        assert len(q._specialized_cache) == 1

    def test_runner_cache_keeps_most_recently_used(self, cpu_device):
        from repro.obs import metrics as obs_metrics
        from repro.ocl.queue import _RUNNER_CACHE_SIZE

        ctx = Context(cpu_device)
        q = CommandQueue(ctx, cpu_device)
        a = ctx.create_buffer(hostbuf=np.arange(64, dtype=np.int32))
        c = ctx.create_buffer(size=256)
        kernels = [
            Program(
                ctx,
                "__kernel void add_k(__global const int *a, __global int *c) {"
                f" size_t i = get_global_id(0); c[i] = a[i] + {j}; }}",
            )
            .build()
            .create_kernel("add_k")
            .set_args(a=a, c=c)
            for j in range(_RUNNER_CACHE_SIZE + 2)
        ]

        def launch(j: int) -> None:
            q.enqueue_nd_range_kernel(kernels[j], (64,))
            assert np.array_equal(c.view(np.int32), np.arange(64) + j)

        def cached() -> set[int]:
            keys = {(id(k.program.checked), "add_k"): j for j, k in enumerate(kernels)}
            return {keys[key] for key in q._specialized_cache}

        reg = obs_metrics.MetricsRegistry()
        with obs_metrics.use_registry(reg):
            for j in range(_RUNNER_CACHE_SIZE):
                launch(j)
            launch(0)  # now the most recently used
            launch(_RUNNER_CACHE_SIZE)
            assert cached() == set(range(_RUNNER_CACHE_SIZE + 1)) - {1}
            launch(_RUNNER_CACHE_SIZE + 1)
            assert cached() == set(range(_RUNNER_CACHE_SIZE + 2)) - {1, 2}
            launch(1)  # evicted: rebuilt, same output
        assert len(q._specialized_cache) == _RUNNER_CACHE_SIZE
        assert 1 in cached() and 0 in cached()
        builds = reg.snapshot()["counters"]["fastpath.kernels.vectorized"]
        assert builds == _RUNNER_CACHE_SIZE + 3
