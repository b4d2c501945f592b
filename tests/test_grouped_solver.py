"""Tests for the communication-reduced (grouped-reduction) BiCGStab."""

import numpy as np
import pytest

from repro.problems import convection_diffusion_system, poisson_system
from repro.solver import bicgstab, bicgstab_grouped


class TestNumericalIdentity:
    def test_identical_to_standard_fp64(self):
        """Grouping only changes transport, not arithmetic: iterate
        histories must match the standard solver exactly."""
        sys_ = convection_diffusion_system((8, 8, 8))
        a = bicgstab(sys_.operator, sys_.b, rtol=1e-10, maxiter=200)
        g = bicgstab_grouped(sys_.operator, sys_.b, rtol=1e-10, maxiter=200)
        assert g.converged == a.converged
        assert g.iterations == a.iterations
        np.testing.assert_array_equal(g.x, a.x)
        np.testing.assert_allclose(g.residuals, a.residuals, rtol=1e-14)

    def test_identical_in_mixed_precision(self):
        sys_ = poisson_system((6, 6, 8), source="random").preconditioned()
        a = bicgstab(sys_.operator, sys_.b, precision="mixed", rtol=1e-2,
                     maxiter=50)
        g = bicgstab_grouped(sys_.operator, sys_.b, precision="mixed",
                             rtol=1e-2, maxiter=50)
        assert g.iterations == a.iterations
        np.testing.assert_array_equal(g.x, a.x)


class TestSynchronizationAccounting:
    def test_three_syncs_per_iteration(self):
        sys_ = convection_diffusion_system((8, 8, 8))
        g = bicgstab_grouped(sys_.operator, sys_.b, rtol=1e-10, maxiter=200)
        # 2 setup groups (bnorm; rho+init-check) + 3 per iteration.
        assert g.info["synchronizations"] == 2 + 3 * g.iterations
        assert g.info["synchronizations_per_iteration"] == pytest.approx(3.0)

    def test_five_scalars_per_iteration(self):
        sys_ = convection_diffusion_system((8, 8, 8))
        g = bicgstab_grouped(sys_.operator, sys_.b, rtol=1e-10, maxiter=200)
        # setup: 1 + 1 scalars; per iteration: 1 + 2 + 2.
        assert g.info["scalars_reduced"] == 2 + 5 * g.iterations

    def test_custom_grouped_dot_injected(self):
        sys_ = poisson_system((6, 6, 6), source="random")
        groups = []

        def spy(pairs):
            groups.append(len(pairs))
            return [float(np.dot(u.ravel().astype(np.float64),
                                 v.ravel().astype(np.float64)))
                    for u, v in pairs]

        g = bicgstab_grouped(sys_.operator, sys_.b, rtol=1e-8,
                             maxiter=100, grouped_dot=spy)
        assert g.converged
        # group sizes cycle 1, 2, 2 after the two setup groups (1 then 1)
        assert groups[0] == 1 and groups[1] == 1
        assert groups[2:][:3] == [1, 2, 2]

    def test_zero_rhs(self):
        from repro.problems import Stencil7

        op = Stencil7.identity((3, 3, 3))
        g = bicgstab_grouped(op, np.zeros(op.shape))
        assert g.converged and g.iterations == 0


class TestScheduleModel:
    def test_batched_schedule_faster(self):
        from repro.perfmodel import WaferPerfModel

        m = WaferPerfModel()
        mesh = (600, 595, 256)
        t4 = m.iteration_time_with_schedule(mesh, (1, 1, 1, 1))
        t3 = m.iteration_time_with_schedule(mesh, (1, 2, 2))
        assert t3 < t4

    def test_default_schedule_matches_iteration_time(self):
        from repro.perfmodel import HEADLINE_MESH, WaferPerfModel

        m = WaferPerfModel()
        assert m.iteration_time_with_schedule(
            HEADLINE_MESH, (1, 1, 1, 1)
        ) == pytest.approx(m.iteration_time(HEADLINE_MESH))

    def test_gain_largest_at_small_z(self):
        from repro.perfmodel import WaferPerfModel

        m = WaferPerfModel()

        def gain(z):
            mesh = (600, 595, z)
            return m.iteration_time_with_schedule(mesh, (1, 1, 1, 1)) / \
                m.iteration_time_with_schedule(mesh, (1, 2, 2))

        assert gain(64) > gain(1536) > 1.0

    def test_batched_scalar_cost_is_marginal(self):
        from repro.perfmodel import WaferPerfModel

        m = WaferPerfModel()
        mesh = (600, 595, 1536)
        single = m.collective_cycles(mesh, (1,))
        double = m.collective_cycles(mesh, (2,))
        assert double == single + 1  # one extra pipelined word
