"""FPGA models: resources, fmax, pipeline synthesis, vendor quirks."""

from __future__ import annotations

import pytest

from repro.devices import Launch
from repro.devices.fpga import (
    AoclModel,
    SdaccelModel,
    estimate_fmax,
    estimate_resources,
    synthesize,
)
from repro.devices.specs import STRATIX_V_AOCL, VIRTEX7_SDACCEL
from repro.errors import ResourceError
from repro.oclc import analyze, compile_source
from repro.units import GB, MIB

FLAT_COPY = (
    "__kernel void k(__global const int *a, __global int *c)"
    "{ for (int i = 0; i < N; i++) c[i] = a[i]; }"
)
NESTED_COPY = (
    "__kernel void k(__global const int *a, __global int *c)"
    "{ for (int i = 0; i < NI; i++) for (int j = 0; j < NJ; j++)"
    "  { int idx = i * NJ + j; c[idx] = a[idx]; } }"
)
NDRANGE_COPY = (
    "__kernel void k(__global const int *a, __global int *c)"
    "{ size_t i = get_global_id(0); c[i] = a[i]; }"
)


def ir_of(src, defines=None):
    return analyze(compile_source(src, defines))


def bw(model, src, n_bytes, defines=None, n_items=1):
    checked = compile_source(src, defines)
    plan = model.build(checked)
    launch = Launch(
        global_size=(n_items,), buffer_bytes={"a": n_bytes, "c": n_bytes}
    )
    t = model.kernel_timing(plan, launch)
    return 2 * n_bytes / t.execution_s


class TestResources:
    def test_wider_lanes_cost_more_logic(self):
        ir = ir_of(FLAT_COPY, {"N": "1024"})
        r1 = estimate_resources(ir, STRATIX_V_AOCL, vector_width=1)
        r16 = estimate_resources(ir, STRATIX_V_AOCL, vector_width=16)
        assert r16.logic_cells > 4 * r1.logic_cells
        assert r16.bram_kbits > r1.bram_kbits

    def test_compute_units_cost_most(self):
        ir = ir_of(FLAT_COPY, {"N": "1024"})
        vec = estimate_resources(ir, STRATIX_V_AOCL, vector_width=8)
        cu = estimate_resources(ir, STRATIX_V_AOCL, compute_units=8)
        assert cu.logic_cells > vec.logic_cells

    def test_simd_costs_more_than_vec(self):
        ir = ir_of(NDRANGE_COPY)
        vec = estimate_resources(ir, STRATIX_V_AOCL, vector_width=8)
        simd = estimate_resources(ir, STRATIX_V_AOCL, simd=8)
        assert simd.logic_cells > vec.logic_cells

    def test_multipliers_use_dsp(self):
        triad = ir_of(
            "__kernel void k(__global const double *b, __global const double *c,"
            " __global double *a, const double q)"
            "{ for (int i = 0; i < 64; i++) a[i] = b[i] + q * c[i]; }"
        )
        r = estimate_resources(triad, STRATIX_V_AOCL, vector_width=4)
        assert r.dsp_blocks > 0

    def test_copy_uses_no_dsp(self):
        r = estimate_resources(ir_of(FLAT_COPY, {"N": "64"}), STRATIX_V_AOCL)
        assert r.dsp_blocks == 0

    def test_overflow_raises(self):
        ir = ir_of(FLAT_COPY, {"N": "64"})
        big = estimate_resources(ir, VIRTEX7_SDACCEL, vector_width=16, compute_units=4)
        with pytest.raises(ResourceError) as err:
            big.check("test design")
        assert err.value.used > err.value.available

    def test_report_summary(self):
        r = estimate_resources(ir_of(FLAT_COPY, {"N": "64"}), STRATIX_V_AOCL)
        assert "logic" in r.summary() and "%" in r.summary()
        assert r.fits


class TestFmax:
    def test_base_clock_for_minimal_kernel(self):
        ir = ir_of(FLAT_COPY, {"N": "64"})
        r = estimate_resources(ir, STRATIX_V_AOCL)
        f = estimate_fmax(STRATIX_V_AOCL, r)
        assert 0.9 * STRATIX_V_AOCL.base_fmax_hz < f <= STRATIX_V_AOCL.base_fmax_hz

    def test_fmax_falls_with_utilization(self):
        ir = ir_of(FLAT_COPY, {"N": "64"})
        f1 = estimate_fmax(
            STRATIX_V_AOCL, estimate_resources(ir, STRATIX_V_AOCL, vector_width=1)
        )
        f16 = estimate_fmax(
            STRATIX_V_AOCL, estimate_resources(ir, STRATIX_V_AOCL, vector_width=16)
        )
        assert f16 < 0.8 * f1


class TestPipelineSynthesis:
    def test_flat_loop_ii1_with_bursts_on_aocl(self):
        plan = synthesize(ir_of(FLAT_COPY, {"N": "1024"}), STRATIX_V_AOCL)
        assert plan.ii_cycles == 1.0
        assert plan.bursts

    def test_flat_loop_no_bursts_on_sdaccel(self):
        plan = synthesize(ir_of(FLAT_COPY, {"N": "1024"}), VIRTEX7_SDACCEL)
        assert not plan.bursts
        assert plan.ii_cycles > 1.0

    def test_nested_loop_restores_bursts_on_sdaccel(self):
        plan = synthesize(
            ir_of(NESTED_COPY, {"NI": "32", "NJ": "32"}), VIRTEX7_SDACCEL
        )
        assert plan.bursts
        assert plan.ii_cycles == 1.0

    def test_xcl_pipeline_loop_restores_bursts_on_flat(self):
        src = (
            "__kernel __attribute__((xcl_pipeline_loop)) void k"
            "(__global const int *a, __global int *c)"
            "{ for (int i = 0; i < 1024; i++) c[i] = a[i]; }"
        )
        plan = synthesize(ir_of(src), VIRTEX7_SDACCEL)
        assert plan.bursts

    def test_ndrange_ii_depends_on_reqd_wg(self):
        no_attr = synthesize(ir_of(NDRANGE_COPY), STRATIX_V_AOCL)
        with_attr = synthesize(
            ir_of(
                "__kernel __attribute__((reqd_work_group_size(256, 1, 1))) void k"
                "(__global const int *a, __global int *c)"
                "{ size_t i = get_global_id(0); c[i] = a[i]; }"
            ),
            STRATIX_V_AOCL,
        )
        assert with_attr.ii_cycles < no_attr.ii_cycles

    def test_simd_requires_reqd_wg(self):
        src = (
            "__kernel __attribute__((num_simd_work_items(4))) void k"
            "(__global const int *a, __global int *c)"
            "{ size_t i = get_global_id(0); c[i] = a[i]; }"
        )
        plan = synthesize(ir_of(src), STRATIX_V_AOCL)
        assert plan.simd == 1  # silently degraded, like aoc

    def test_strided_breaks_bursts(self):
        src = (
            "__kernel void k(__global const int *a, __global int *c)"
            "{ for (int j = 0; j < 32; j++) for (int i = 0; i < 32; i++)"
            "  { int idx = i * 32 + j; c[idx] = a[idx]; } }"
        )
        plan = synthesize(ir_of(src), STRATIX_V_AOCL)
        assert not plan.bursts


class TestVendorModels:
    def test_aocl_flat_copy_near_paper(self):
        model = AoclModel()
        n = 4 * MIB
        got = bw(model, FLAT_COPY, n, defines={"N": str(n // 4)})
        assert got == pytest.approx(2.45 * GB, rel=0.25)

    def test_sdaccel_nested_copy_near_paper(self):
        model = SdaccelModel()
        n = 4 * MIB
        got = bw(model, NESTED_COPY, n, defines={"NI": "1024", "NJ": "1024"})
        assert got == pytest.approx(0.76 * GB, rel=0.25)

    def test_sdaccel_nested_beats_flat(self):
        model = SdaccelModel()
        n = 4 * MIB
        nested = bw(model, NESTED_COPY, n, defines={"NI": "1024", "NJ": "1024"})
        flat = bw(model, FLAT_COPY, n, defines={"N": str(n // 4)})
        assert nested > 3 * flat

    def test_aocl_flat_beats_ndrange(self):
        model = AoclModel()
        n = 4 * MIB
        flat = bw(model, FLAT_COPY, n, defines={"N": str(n // 4)})
        nd = bw(model, NDRANGE_COPY, n, n_items=n // 4)
        assert flat > 3 * nd

    def test_vectorization_approaches_dram_limit(self):
        model = AoclModel()
        n = 4 * MIB
        src16 = (
            "__kernel void k(__global const int16 *a, __global int16 *c)"
            "{ for (int i = 0; i < N; i++) c[i] = a[i]; }"
        )
        w16 = bw(model, src16, n, defines={"N": str(n // 64)})
        w1 = bw(model, FLAT_COPY, n, defines={"N": str(n // 4)})
        assert 4 * w1 < w16 < 25.6 * GB

    def test_sdaccel_strided_collapse(self):
        model = SdaccelModel()
        n = 4 * MIB
        src = (
            "__kernel void k(__global const int *a, __global int *c)"
            "{ for (int j = 0; j < NJ; j++) for (int i = 0; i < NI; i++)"
            "  { int idx = i * NJ + j; c[idx] = a[idx]; } }"
        )
        strided = bw(model, src, n, defines={"NI": "1024", "NJ": "1024"})
        assert strided < 0.05 * GB  # the paper's 0.01 GB/s flat line

    def test_resource_overflow_fails_build(self):
        model = SdaccelModel()
        src = (
            "__kernel void k(__global const int16 *a, __global const int16 *b,"
            " __global int16 *c)"
            "{ for (int i = 0; i < 64; i++) c[i] = a[i] + b[i]; }"
        )
        checked = compile_source(src)
        with pytest.raises(ResourceError):
            model.build(checked)

    def test_build_logs_explain_quirks(self):
        sd = SdaccelModel()
        plan = sd.build(compile_source(FLAT_COPY, {"N": "64"}))
        assert "burst" in plan.build_log.lower()
        ao = AoclModel()
        plan = ao.build(compile_source(NDRANGE_COPY))
        assert "reqd_work_group_size" in plan.build_log

    def test_compute_units_replicate(self):
        model = AoclModel()
        src = (
            "__kernel __attribute__((reqd_work_group_size(256, 1, 1)))"
            "__attribute__((num_compute_units(4))) void k"
            "(__global const int *a, __global int *c)"
            "{ size_t i = get_global_id(0); c[i] = a[i]; }"
        )
        plan = model.build(compile_source(src))
        assert plan.payload.compute_units == 4
        n = 4 * MIB
        launch = Launch(global_size=(n // 4,), buffer_bytes={"a": n, "c": n})
        t = model.kernel_timing(plan, launch)
        assert t.execution_s > 0
