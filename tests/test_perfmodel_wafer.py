"""Tests for the CS-1 performance model: the paper's headline numbers."""

import dataclasses

import numpy as np
import pytest

from repro.perfmodel import HEADLINE_MESH, WaferPerfModel
from repro.perfmodel.wafer import (
    FLOPS_PER_POINT_PER_ITERATION,
    STORAGE_WORDS_PER_POINT,
)


@pytest.fixture(scope="module")
def model():
    return WaferPerfModel()


class TestHeadlineNumbers:
    def test_iteration_time_28_1_us(self, model):
        """Paper section V: mean 28.1 us between iterations."""
        t = model.iteration_time(HEADLINE_MESH)
        assert t == pytest.approx(28.1e-6, rel=0.01)

    def test_0_86_pflops(self, model):
        """Paper abstract/section V: 0.86 PFLOPS achieved."""
        assert model.pflops(HEADLINE_MESH) == pytest.approx(0.86, rel=0.01)

    def test_one_third_of_peak(self, model):
        """Paper abstract: 'about one third of the machine's peak'."""
        frac = model.fraction_of_peak(HEADLINE_MESH)
        assert 0.28 < frac < 0.37

    def test_44_flops_per_point(self, model):
        assert FLOPS_PER_POINT_PER_ITERATION == 44
        nx, ny, nz = HEADLINE_MESH
        assert model.flops_per_iteration(HEADLINE_MESH) == 44 * nx * ny * nz

    def test_storage_31kb_at_z1536(self, model):
        """Paper section IV: 'about 31KB out of 48KB'."""
        b = model.storage_bytes_per_tile(1536)
        assert b == 10 * 1536 * 2 == 30720
        assert b < 48 * 1024

    def test_max_z(self, model):
        assert model.max_z() == 48 * 1024 // (2 * STORAGE_WORDS_PER_POINT)
        assert model.max_z() >= 1536

    def test_gflops_per_watt(self, model):
        """0.86 PFLOPS at 20 kW = 43 GF/W — 'beyond what has been
        reported for conventional machines on comparable problems'."""
        g = model.gflops_per_watt(HEADLINE_MESH)
        assert g == pytest.approx(0.86e6 / 20_000, rel=0.02)
        assert g > 20  # HPCG-class CPU systems are well under 1 GF/W


class TestCalibration:
    def test_calibrate_recovers_default_overhead(self):
        cal = WaferPerfModel.calibrate()
        assert cal.compute_overhead == pytest.approx(1.37, abs=0.02)

    def test_calibrated_model_reproduces_measurement(self):
        cal = WaferPerfModel.calibrate(measured_seconds=30e-6)
        assert cal.iteration_time(HEADLINE_MESH) == pytest.approx(30e-6, rel=1e-6)

    def test_impossible_measurement_rejected(self):
        with pytest.raises(ValueError, match="AllReduce floor"):
            WaferPerfModel.calibrate(measured_seconds=1e-9)


class TestBreakdown:
    def test_components_sum(self, model):
        bd = model.iteration_breakdown(HEADLINE_MESH)
        assert bd.compute_cycles == pytest.approx(
            bd.spmv_cycles + bd.dot_compute_cycles + bd.axpy_cycles
        )
        assert bd.total_cycles == pytest.approx(
            bd.compute_cycles * bd.overhead_factor + bd.allreduce_cycles
        )

    def test_spmv_dominates_compute(self, model):
        """2 SpMVs at 12 ops/point dwarf 6 AXPYs at 2 ops/point."""
        bd = model.iteration_breakdown(HEADLINE_MESH)
        assert bd.spmv_cycles > bd.dot_compute_cycles > bd.axpy_cycles

    def test_allreduce_share_grows_as_z_shrinks(self, model):
        """Short columns are collective-latency-bound — the shape effect
        the paper's model predicts."""
        bd_long = model.iteration_breakdown((600, 595, 1536))
        bd_short = model.iteration_breakdown((600, 595, 64))
        share_long = bd_long.allreduce_cycles / bd_long.total_cycles
        share_short = bd_short.allreduce_cycles / bd_short.total_cycles
        assert share_short > share_long

    def test_pflops_increase_with_z(self, model):
        """Amortizing the AllReduce: deeper columns => higher efficiency."""
        assert model.pflops((600, 595, 1536)) > model.pflops((600, 595, 256))


class TestSweeps:
    def test_sweep_records(self, model):
        recs = model.sweep_mesh_shape([(100, 100, 256), (600, 595, 1536)])
        assert len(recs) == 2
        assert recs[1]["pflops"] > recs[0]["pflops"]
        for r in recs:
            assert set(r) >= {"mesh", "time_us", "pflops", "fraction_of_peak"}

    def test_smaller_fabric_footprint_lower_pflops(self, model):
        """Fewer tiles in use => fewer flops in the same time."""
        for side in (150, 300):
            assert (model.pflops((side, side, 1536))
                    < model.pflops((600, 595, 1536)))

    def test_memory_limit_corner_fits(self, model):
        """The deepest column the tile holds still fits in the sweep."""
        (rec,) = model.sweep_mesh_shape([(602, 595, 2457)])
        assert rec["tile_bytes"] <= 48 * 1024

    def test_infeasible_mesh_rejected_in_sweep(self, model):
        with pytest.raises(ValueError):
            model.sweep_mesh_shape([(1000, 1000, 64)])


class TestModelVsDiscreteSimulation:
    def test_spmv_cycle_envelope(self, model):
        """The DES (optimistic: all threads advance each cycle) must fall
        between the fabric-limited lower bound (~Z) and the calibrated
        model's per-SpMV budget (3Z x overhead)."""
        from repro.kernels import run_spmv_des
        from repro.problems import Stencil7

        z = 48
        op = Stencil7.from_random((3, 3, z), rng=np.random.default_rng(3))
        pre, _, _ = op.jacobi_precondition()
        _, cycles = run_spmv_des(pre, 0.1 * np.random.default_rng(4).standard_normal(pre.shape))
        lower = z
        upper = model.compute_overhead * 3 * z + 40
        assert lower <= cycles <= upper


class TestPrecisionVariants:
    """The abstract's 'memory capacity and floating point precision'."""

    def test_fp32_halves_capacity(self, model):
        assert model.max_z_for_precision("single") == model.max_z_for_precision("mixed") // 2
        assert model.max_z_for_precision("double") == model.max_z_for_precision("mixed") // 4

    def test_mixed_matches_baseline(self, model):
        assert model.iteration_time_for_precision(
            HEADLINE_MESH, "mixed"
        ) == model.iteration_time(HEADLINE_MESH)

    def test_fp32_slower_per_z(self, model):
        mesh = (600, 595, 1024)
        t16 = model.iteration_time_for_precision(mesh, "mixed")
        t32 = model.iteration_time_for_precision(mesh, "single")
        assert t32 > 1.5 * t16

    def test_fp32_charged_at_the_configured_fmac_rate(self, model):
        """Section II: 'one FMAC per core per cycle' in fp32 vs two mixed
        — the model reads both rates from ``MachineConfig``."""
        mesh = (600, 595, 1024)
        config = model.config
        assert (config.simd_width_fp16, config.mixed_fmacs_per_cycle,
                config.fp32_fmacs_per_cycle) == (4, 2, 1)

        def compute(m, prec):
            ar = 4 * m.allreduce_cycles(mesh) / m.config.clock_hz
            return m.iteration_time_for_precision(mesh, prec) - ar

        assert compute(model, "single") == pytest.approx(
            2 * compute(model, "mixed"), rel=1e-12)
        as_fast = WaferPerfModel(config=dataclasses.replace(
            config, fp32_fmacs_per_cycle=config.mixed_fmacs_per_cycle))
        assert as_fast.iteration_time_for_precision(mesh, "single") == \
            pytest.approx(model.iteration_time_for_precision(mesh, "mixed"))

    def test_oversized_z_rejected_per_precision(self, model):
        with pytest.raises(ValueError, match="exceeds tile memory"):
            model.iteration_time_for_precision((600, 595, 1536), "single")

    def test_half_charged_as_mixed(self, model):
        mesh = (600, 595, 512)
        assert model.iteration_time_for_precision(
            mesh, "half"
        ) == pytest.approx(model.iteration_time_for_precision(mesh, "mixed"))
