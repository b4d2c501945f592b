"""Tests for the functional wafer BiCGStab (mapping + precision + timing)."""

import numpy as np
import pytest

from repro.perfmodel import WaferPerfModel
from repro.api import RunOptions
from repro.kernels import DESBiCGStab
from repro.problems import (
    Stencil7,
    convection_diffusion_system,
    momentum_system,
    poisson_system,
)
from repro.solver import WaferBiCGStab, bicgstab
from repro.solver.wafer_bicgstab import fabric_tree_dot
from repro.precision import tree_sum
from repro.wse.allreduce import AllReduceEngine

RNG = np.random.default_rng(53)


class TestFabricTreeDot:
    def test_matches_fp64_dot(self):
        x = RNG.standard_normal((6, 6, 8)).astype(np.float16)
        got = fabric_tree_dot(x, x)
        ref = float(np.dot(x.astype(np.float64).ravel(), x.astype(np.float64).ravel()))
        assert got == pytest.approx(ref, rel=1e-4)

    def test_sum_and_dot_bit_equal_to_the_simulated_allreduce(self):
        """``tree_sum`` adds in the simulated Fig. 6 collective's order
        (the host's fp32 reduction below 2x2), so the functional dot and
        the DES dot agree bit for bit."""
        rng = np.random.default_rng(36)

        def bits(x) -> str:
            return float(x).hex()

        def spread(shape):   # magnitudes 1e-3..1e3: every order rounds
            mag = 10.0 ** rng.integers(-3, 4, shape)
            return (rng.standard_normal(shape) * mag).astype(np.float32)

        # Under replay each shape's first reduce is stepped live and
        # recorded; the other seven replay that schedule.
        replay = RunOptions(engine="replay")
        shapes = [(w, h) for w in range(2, 10) for h in range(2, 10)]
        for w, h in shapes + [(16, 8), (32, 16), (48, 48)]:
            eng = AllReduceEngine(w, h, options=replay)
            for _ in range(8):
                v = spread((h, w))
                assert bits(tree_sum(v)) == bits(eng.reduce(v)[0]), (w, h)
        for h, w in [(1, 4), (4, 1)]:
            for _ in range(8):
                v = spread((h, w))
                host = np.add.reduce(v.ravel(), dtype=np.float32)
                assert bits(tree_sum(v)) == bits(host)
        for engine in ("active", "replay"):
            for shape in [(5, 4, 3), (6, 6, 2), (3, 7, 5), (1, 4, 3), (4, 1, 3)]:
                des = DESBiCGStab(Stencil7.identity(shape),
                                  options=RunOptions(engine=engine))
                for _ in range(3):
                    a = rng.standard_normal(shape).astype(np.float16)
                    b = rng.standard_normal(shape).astype(np.float16)
                    assert bits(fabric_tree_dot(a, b)) == bits(des._dot(a, b))

    def test_fp32_accumulation_beats_fp16(self):
        n = 4096
        x = np.ones((4, 4, n // 16), dtype=np.float16)
        got = fabric_tree_dot(x, x)
        assert got == pytest.approx(16 * (n // 16), rel=1e-6)


class TestWaferSolve:
    def test_solves_momentum_system(self):
        sys_ = momentum_system((12, 12, 16), reynolds=100.0, dt=0.05)
        res = WaferBiCGStab().solve(sys_, rtol=2e-3, maxiter=100)
        assert res.converged
        assert sys_.relative_residual(res.x) < 0.05

    def test_auto_preconditions(self):
        sys_ = convection_diffusion_system((8, 8, 8))  # diag != 1
        res = WaferBiCGStab().solve(sys_, rtol=5e-3, maxiter=100)
        assert res.converged

    def test_bare_operator_and_rhs(self):
        sys_ = poisson_system((8, 8, 8))
        res = WaferBiCGStab().solve(sys_.operator, sys_.b, rtol=5e-3, maxiter=150)
        assert res.final_residual < 5e-2

    def test_bare_operator_requires_rhs(self):
        sys_ = poisson_system((4, 4, 4))
        with pytest.raises(ValueError, match="b is required"):
            WaferBiCGStab().solve(sys_.operator)

    def test_matches_reference_mixed_solver(self):
        """Functional wafer solve == reference bicgstab in mixed mode with
        the fabric dot injected: identical arithmetic, identical history."""
        sys_ = momentum_system((8, 8, 8), reynolds=50.0, dt=0.05)
        wres = WaferBiCGStab().solve(sys_, rtol=1e-3, maxiter=30)
        ref = bicgstab(
            sys_.operator, sys_.b, precision="mixed", rtol=1e-3, maxiter=30,
            dot_fn=fabric_tree_dot,
        )
        assert wres.iterations == ref.iterations
        np.testing.assert_array_equal(wres.x, ref.x)
        np.testing.assert_array_equal(wres.residuals, ref.residuals)

    def test_single_precision_mode(self):
        sys_ = momentum_system((8, 8, 8))
        res = WaferBiCGStab(precision="single").solve(sys_, rtol=1e-6, maxiter=200)
        assert res.final_residual < 1e-4
        assert res.precision == "single"


class TestFeasibilityChecks:
    def test_mesh_too_wide_for_fabric(self):
        model = WaferPerfModel()
        with pytest.raises(ValueError, match="fabric"):
            model.check_mesh((603, 10, 16))

    def test_mesh_too_tall_for_fabric(self):
        model = WaferPerfModel()
        with pytest.raises(ValueError, match="fabric"):
            model.check_mesh((10, 596, 16))

    def test_z_exceeding_memory(self):
        model = WaferPerfModel()
        with pytest.raises(ValueError, match="tile memory"):
            model.check_mesh((10, 10, 3000))

    def test_headline_mesh_feasible(self):
        WaferPerfModel().check_mesh((600, 595, 1536))  # must not raise


class TestModeledTiming:
    def test_result_carries_model_numbers(self):
        sys_ = momentum_system((10, 10, 12))
        res = WaferBiCGStab().solve(sys_, rtol=2e-3, maxiter=50)
        assert res.modeled_iteration_seconds > 0
        assert res.modeled_total_seconds == pytest.approx(
            res.modeled_iteration_seconds * res.iterations
        )
        assert res.modeled_pflops > 0
        assert res.tile_memory_bytes == 10 * 12 * 2
        assert "us/iter" in res.performance_summary()

    def test_bigger_z_costs_more_time(self):
        model = WaferPerfModel()
        t1 = model.iteration_time((10, 10, 64))
        t2 = model.iteration_time((10, 10, 512))
        assert t2 > t1
