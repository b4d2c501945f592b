"""Cross-module integration tests: the paper's end-to-end stories.

Each test here stitches several subsystems together the way the paper's
experiments do: wafer vs cluster on the same system, the Fig. 9
precision study, the SpMV kernels' three-way agreement, and the CFD
timestep projection fed by the calibrated solver model.
"""

import numpy as np
import pytest

from repro.clustersim import cluster_bicgstab
from repro.kernels import run_spmv_des, spmv_functional
from repro.perfmodel import ClusterModel, SimpleCostModel, WaferPerfModel
from repro.problems import momentum_system, poisson_system
from repro.solver import WaferBiCGStab, bicgstab, refined_solve

RNG = np.random.default_rng(67)


class TestThreeWaySpmvAgreement:
    def test_des_functional_csr(self):
        """Detailed simulator == functional kernel == CSR, at fp16 noise."""
        sys_ = momentum_system((4, 4, 8), reynolds=50.0)
        op = sys_.operator
        v = 0.1 * RNG.standard_normal(op.shape)
        v16 = np.asarray(v, np.float16).astype(np.float64)
        u_des, _ = run_spmv_des(op, v)
        u_fun = spmv_functional(op, v16).astype(np.float64)
        u_csr = (op.to_csr() @ v16.ravel()).reshape(op.shape)
        scale = np.max(np.abs(u_csr)) + 1.0
        tol = 8 * 2.0**-11 * scale
        assert np.max(np.abs(u_des - u_csr)) < tol
        assert np.max(np.abs(u_fun - u_csr)) < tol


class TestWaferVsCluster:
    def test_same_solution_different_machines(self):
        """Both targets solve the same preconditioned system; the wafer
        at fp16 accuracy, the cluster at fp64."""
        sys_ = momentum_system((10, 10, 10), reynolds=100.0, dt=0.05)
        wafer = WaferBiCGStab().solve(sys_, rtol=2e-3, maxiter=60)
        cluster = cluster_bicgstab(sys_.operator, sys_.b, nranks=4,
                                   rtol=1e-10, maxiter=300)
        assert wafer.converged and cluster.converged
        err = np.max(np.abs(wafer.x - cluster.x)) / (np.max(np.abs(cluster.x)) + 1e-30)
        assert err < 0.05  # fp16-level agreement on the solution

    def test_modeled_speedup_direction(self):
        """At comparable meshes the wafer's modeled per-iteration time is
        orders of magnitude below the cluster's."""
        wm = WaferPerfModel()
        cm = ClusterModel()
        t_wafer = wm.iteration_time((600, 595, 1536))
        t_cluster = cm.iteration_time((600, 600, 600), 16384)
        assert t_cluster / t_wafer > 100


class TestFig9Story:
    def test_mixed_tracks_then_plateaus(self):
        """Fig. 9: mixed tracks fp32 for the early iterations, then
        plateaus while fp32 keeps going (smaller surrogate system)."""
        sys_ = momentum_system((12, 24, 12), reynolds=200.0, dt=0.05)
        mixed = bicgstab(sys_.operator, sys_.b, precision="mixed",
                         rtol=0.0, maxiter=15, record_true_residual=True)
        single = bicgstab(sys_.operator, sys_.b, precision="single",
                          rtol=0.0, maxiter=15, record_true_residual=True)
        m = np.array(mixed.true_residuals)
        s = np.array(single.true_residuals)
        # early agreement (within 2x for the first few iterations)
        assert np.all(m[:3] < 2.5 * s[:3] + 1e-6)
        # late divergence: fp32 ends at least 10x lower
        assert s[-1] < m[-1] / 10
        # mixed plateau sits near fp16 precision, paper's 1e-2..1e-3 zone
        assert 1e-5 < m.min() < 5e-2

    def test_refinement_breaks_the_plateau(self):
        """Section VI.B's remedy, end to end on the same system class."""
        sys_ = momentum_system((8, 8, 8))
        direct = bicgstab(sys_.operator, sys_.b, precision="mixed",
                          rtol=0.0, maxiter=40)
        refined = refined_solve(sys_.operator, sys_.b, rtol=1e-9)
        assert refined.converged
        assert sys_.relative_residual(refined.x) < 1e-8 < sys_.relative_residual(direct.x)


class TestCfdProjectionPipeline:
    def test_solver_model_feeds_throughput(self):
        """The SIMPLE projection must use the calibrated solver model:
        doubling the solver's overhead must slow the projected rate."""
        slow_wafer = WaferPerfModel(compute_overhead=2.74)
        base = SimpleCostModel().timesteps_per_second()
        slow = SimpleCostModel(wafer=slow_wafer).timesteps_per_second()
        assert slow < base

    def test_full_story_numbers(self):
        """The paper's §VI.A narrative in one assertion chain."""
        sc = SimpleCostModel()
        lo, hi = sc.timesteps_per_second_range()
        assert lo < 100 < hi        # the 80-125 band overlaps our range
        assert sc.joule_speedup() > 200


class TestHeadlineEndToEnd:
    def test_scaled_headline_run(self):
        """A scaled-down headline run: same aspect ratio as 600x595x1536,
        wafer-mapped mixed solve converges to fp16 tolerance, and the
        model attaches the full-mesh numbers."""
        sys_ = momentum_system((30, 30, 76), reynolds=100.0, dt=0.05)
        res = WaferBiCGStab().solve(sys_, rtol=5e-3, maxiter=171)
        assert res.converged
        assert res.modeled_iteration_seconds < 28.1e-6  # smaller mesh, faster
        model = WaferPerfModel()
        assert model.iteration_time((600, 595, 1536)) == pytest.approx(28.1e-6, rel=0.01)
        assert model.pflops((600, 595, 1536)) == pytest.approx(0.86, rel=0.01)
        # rtol=0 never converges, so the solve runs exactly maxiter
        assert WaferBiCGStab().solve(sys_, rtol=0.0, maxiter=3).iterations == 3
