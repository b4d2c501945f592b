"""Tests for BiCGStab with fully simulated data motion (DES mode)."""

import numpy as np
import pytest

from repro.api import RunOptions
from repro.kernels import DESBiCGStab
from repro.obs import ObsSession
from repro.perfmodel import WaferPerfModel
from repro.problems import Stencil7, momentum_system
from repro.solver import WaferBiCGStab

RNG = np.random.default_rng(71)


@pytest.fixture(scope="module")
def small_system():
    return momentum_system((4, 4, 8), reynolds=50.0, dt=0.02)


@pytest.fixture(scope="module")
def des_result(small_system):
    solver = DESBiCGStab(small_system.operator)
    res = solver.solve(small_system.b, rtol=5e-3, maxiter=25)
    return solver, res


class TestDESSolve:
    def test_converges(self, small_system, des_result):
        _, res = des_result
        assert res.converged
        assert small_system.relative_residual(res.x) < 0.05

    def test_solution_matches_functional_wafer_solver(self, small_system,
                                                      des_result):
        """The DES mode and the functional mode implement the same
        arithmetic; solutions agree at fp16 noise."""
        _, res = des_result
        fres = WaferBiCGStab().solve(small_system, rtol=5e-3, maxiter=25)
        scale = np.max(np.abs(fres.x)) + 1e-30
        assert np.max(np.abs(res.x - fres.x)) / scale < 0.02

    def test_deeper_column_converges_to_the_functional_solution(self):
        """The same agreement on a 12-deep column."""
        sys_ = momentum_system((4, 4, 12), reynolds=50.0, dt=0.02)
        res = DESBiCGStab(sys_.operator).solve(sys_.b, rtol=5e-3, maxiter=25)
        fres = WaferBiCGStab().solve(sys_, rtol=5e-3, maxiter=25)
        assert res.converged
        scale = np.max(np.abs(fres.x)) + 1e-30
        assert np.max(np.abs(res.x - fres.x)) / scale < 0.02

    def test_requires_unit_diagonal(self):
        op = Stencil7.from_random((3, 3, 4), rng=RNG)
        with pytest.raises(ValueError, match="preconditioned"):
            DESBiCGStab(op)

    def test_zero_rhs(self):
        op = Stencil7.identity((4, 4, 4))
        res = DESBiCGStab(op).solve(np.zeros(op.shape))
        assert res.converged and res.iterations == 0


class TestBreakdown:
    def test_rho_breakdown_at_zero_iterations(self):
        """Two x-neighbours coupled -1 both ways and b = c (e_i + e_j):
        A b == 0 exactly in fp16, so (r0, A r0) == 0 in the first
        iteration, functionally and on every engine."""
        shape = (2, 2, 2)
        xp, xm, b = np.zeros(shape), np.zeros(shape), np.zeros(shape)
        xp[0, 0, 0] = xm[1, 0, 0] = -1.0
        b[0, 0, 0] = b[1, 0, 0] = np.float16(RNG.uniform(0.5, 2.0))
        op = Stencil7({"xp": xp, "xm": xm})
        fres = WaferBiCGStab().solve(op, b, rtol=5e-3, maxiter=10)
        assert (fres.breakdown, fres.iterations) == ("rho", 0)
        for engine in ("active", "reference", "replay"):
            obs = ObsSession()
            solver = DESBiCGStab(op, options=RunOptions(engine=engine, obs=obs))
            res = solver.solve(b, rtol=5e-3, maxiter=10)
            assert (res.breakdown, res.iterations) == ("rho", 0), engine
            assert obs.telemetry[-1]["breakdown"] == "rho"
            spans = sorted((s for s in obs.tracer.spans if s.cat == "phase"),
                           key=lambda s: s.start)
            pos = 0
            for span in spans:
                assert span.start == pos
                pos = span.end
            assert pos == solver.report.total_cycles > 0


class TestCycleAccounting:
    def test_report_populated(self, des_result):
        solver, res = des_result
        rep = solver.report
        assert rep.spmv_runs == 2 * res.iterations
        # 7 dots per iteration (bnorm + rho once; 5 per iteration incl.
        # the norm check) -- every one through the simulated AllReduce.
        assert rep.allreduce_runs == 2 + 5 * res.iterations
        assert rep.spmv_cycles > 0
        assert rep.allreduce_cycles > 0
        assert rep.axpy_cycles > 0
        assert rep.total_cycles == (
            rep.spmv_cycles + rep.allreduce_cycles + rep.axpy_cycles
            + rep.dot_local_cycles
        )

    def test_active_set_skips_idle_cycles(self, small_system, des_result):
        """The persistent SpMV + AllReduce fabrics skip idle time on this
        sparse workload instead of sweeping every router every cycle."""
        solver, _ = des_result
        stats = [e.fabric.stats for e in (solver._spmv_eng, solver._ar_eng)
                 if e is not None]
        nx, ny, _ = small_system.operator.shape
        assert sum(st.skipped_cycles for st in stats) > 0
        assert max(st.peak_active_routers for st in stats) <= 2 * nx * ny

    def test_cycles_per_iteration_reported(self, des_result):
        _, res = des_result
        assert res.info["cycles_per_iteration"] > 0

    def test_des_cycles_vs_analytic_model(self, small_system, des_result):
        """The DES per-iteration cycles must land in the analytic
        model's envelope: above the no-overhead compute floor scaled by
        the optimistic DES issue model, below the calibrated budget
        inflated for the tiny fabric (where AllReduce fixed costs
        dominate relative to Z=8 columns)."""
        _, res = des_result
        per_iter = res.info["cycles_per_iteration"]
        z = small_system.shape[2]
        # Floor: two SpMVs at >= Z cycles each (fabric-limited).
        assert per_iter > 2 * z
        # Ceiling: generous multiple of the model's compute+collective
        # budget at this Z and 4x4 fabric.
        m = WaferPerfModel()
        ar = 7 * (m.allreduce_cycles((4, 4, z)))
        budget = 3 * (m.compute_overhead * 9.5 * z + ar)
        assert per_iter < budget
