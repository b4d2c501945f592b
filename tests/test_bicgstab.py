"""Tests for the reference BiCGStab (paper Algorithm 1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.problems import Stencil7, convection_diffusion_system, poisson_system
from repro.solver import bicgstab, operation_counts

RNG = np.random.default_rng(31)


class TestConvergence:
    def test_spd_system(self):
        sys_ = poisson_system((6, 6, 6))
        res = bicgstab(sys_.operator, sys_.b, rtol=1e-10, maxiter=500)
        assert res.converged
        assert sys_.relative_residual(res.x) < 1e-8

    def test_nonsymmetric_system(self):
        sys_ = convection_diffusion_system((6, 6, 6), peclet=5.0)
        res = bicgstab(sys_.operator, sys_.b, rtol=1e-10, maxiter=500)
        assert res.converged
        assert sys_.relative_residual(res.x) < 1e-8

    def test_identity_converges_in_one(self):
        op = Stencil7.identity((3, 3, 3))
        b = RNG.standard_normal(op.shape)
        res = bicgstab(op, b, rtol=1e-12, maxiter=10)
        assert res.converged
        assert res.iterations == 1
        np.testing.assert_allclose(res.x, b, rtol=1e-12)

    def test_manufactured_solution_recovered(self):
        sys_ = convection_diffusion_system((5, 5, 5)).manufactured(RNG)
        res = bicgstab(sys_.operator, sys_.b, rtol=1e-12, maxiter=500)
        np.testing.assert_allclose(res.x, sys_.x_true, rtol=1e-6, atol=1e-8)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_random_dominant_systems_converge(self, seed):
        rng = np.random.default_rng(seed)
        op = Stencil7.from_random((4, 4, 4), rng=rng, dominance=1.5)
        x = rng.standard_normal(op.shape)
        b = op.apply(x)
        res = bicgstab(op, b, rtol=1e-10, maxiter=300)
        assert res.converged
        np.testing.assert_allclose(res.x, x, rtol=1e-5, atol=1e-7)


class TestEdgeCases:
    def test_zero_rhs(self):
        op = Stencil7.from_random((3, 3, 3), rng=RNG)
        res = bicgstab(op, np.zeros(op.shape))
        assert res.converged
        assert res.iterations == 0
        np.testing.assert_array_equal(res.x, 0.0)

    def test_initial_guess_exact(self):
        sys_ = poisson_system((4, 4, 4)).manufactured(RNG)
        res = bicgstab(
            sys_.operator, sys_.b, x0=sys_.x_true, rtol=1e-8, maxiter=50
        )
        assert res.converged
        assert res.iterations <= 2

    def test_initial_guess_helps(self):
        sys_ = convection_diffusion_system((5, 5, 5))
        cold = bicgstab(sys_.operator, sys_.b, rtol=1e-10, maxiter=500)
        near = cold.x + 1e-6 * RNG.standard_normal(sys_.shape)
        warm = bicgstab(sys_.operator, sys_.b, x0=near, rtol=1e-10, maxiter=500)
        assert warm.iterations <= cold.iterations

    def test_maxiter_respected(self):
        sys_ = poisson_system((6, 6, 6), source="random")
        res = bicgstab(sys_.operator, sys_.b, rtol=1e-14, maxiter=3)
        assert not res.converged
        assert res.iterations == 3
        assert len(res.residuals) == 3

    def test_callback_invoked(self):
        sys_ = poisson_system((4, 4, 4))
        seen = []
        bicgstab(
            sys_.operator, sys_.b, rtol=1e-8, maxiter=50,
            callback=lambda i, r: seen.append((i, r)),
        )
        assert seen
        assert seen[0][0] == 1
        assert all(r >= 0 for _, r in seen)

    def test_residual_history_monotone_overall(self):
        """BiCGStab is not monotone per-step, but the history must end
        far below where it starts on an easy system."""
        sys_ = poisson_system((6, 6, 6), source="random")
        res = bicgstab(sys_.operator, sys_.b, rtol=1e-10, maxiter=500)
        assert res.residuals[-1] < 1e-3 * res.residuals[0]


class TestPrecisionModes:
    def test_mixed_reaches_fp16_plateau(self):
        sys_ = convection_diffusion_system((6, 6, 6)).preconditioned()
        res = bicgstab(sys_.operator, sys_.b, precision="mixed",
                       rtol=5e-3, maxiter=60)
        assert res.final_residual < 5e-2

    def test_mixed_true_residual_plateaus(self):
        """The *recurrence* residual in fp16 can underflow toward zero,
        but the true residual plateaus near fp16 precision — the Fig. 9
        phenomenon.  (The paper's plotted 'measured normwise relative
        residuals' are the observable plateau.)"""
        sys_ = convection_diffusion_system((6, 6, 6)).preconditioned()
        res = bicgstab(sys_.operator, sys_.b, precision="mixed",
                       rtol=1e-12, maxiter=60, record_true_residual=True)
        assert min(res.true_residuals) > 1e-5  # cannot reach fp64 levels
        ref = bicgstab(sys_.operator, sys_.b, precision="double",
                       rtol=1e-12, maxiter=200)
        assert sys_.relative_residual(ref.x) < 1e-10

    def test_single_beats_mixed_true_residual(self):
        sys_ = convection_diffusion_system((6, 6, 6)).preconditioned()
        r32 = bicgstab(sys_.operator, sys_.b, precision="single",
                       rtol=0.0, maxiter=40, record_true_residual=True)
        rmx = bicgstab(sys_.operator, sys_.b, precision="mixed",
                       rtol=0.0, maxiter=40, record_true_residual=True)
        assert min(r32.true_residuals) < min(rmx.true_residuals)

    def test_storage_dtype_respected(self):
        sys_ = poisson_system((4, 4, 4)).preconditioned()
        res = bicgstab(sys_.operator, sys_.b, precision="mixed", maxiter=5,
                       rtol=0.0)
        # x is reported in fp64 but holds fp16-representable values.
        assert np.array_equal(
            res.x, res.x.astype(np.float16).astype(np.float64)
        )

    def test_true_residual_recording(self):
        sys_ = poisson_system((4, 4, 4))
        res = bicgstab(sys_.operator, sys_.b, rtol=1e-10, maxiter=50,
                       record_true_residual=True)
        assert res.true_residuals is not None
        assert len(res.true_residuals) == len(res.residuals)
        # In fp64 the recurrence and true residuals track closely.
        np.testing.assert_allclose(
            res.true_residuals[:5], res.residuals[:5], rtol=1e-6, atol=1e-12
        )


class TestDotInjection:
    def test_custom_dot_used(self):
        sys_ = poisson_system((4, 4, 4))
        calls = {"n": 0}

        def spy_dot(u, v):
            calls["n"] += 1
            return float(np.dot(u.ravel().astype(np.float64),
                                v.ravel().astype(np.float64)))

        res = bicgstab(sys_.operator, sys_.b, rtol=1e-8, maxiter=50,
                       dot_fn=spy_dot)
        assert res.converged
        # 1 (bnorm) + 1 (rho) + 5/iter (4 + norm); with x0 omitted the
        # initial residual is exactly 1 and costs no dot.
        assert calls["n"] == 2 + 5 * res.iterations


class TestOperationCounts:
    def test_counts_match_table1_structure(self):
        counts = operation_counts()
        assert counts == {"spmv": 2, "dot": 4, "axpy": 6}
