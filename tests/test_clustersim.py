"""Tests for the executable cluster simulator: decomposition, virtual
communication, and the distributed BiCGStab."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustersim import (
    ClusterBiCGStab,
    Decomposition3D,
    VirtualComm,
    choose_rank_grid,
    cluster_bicgstab,
)
from repro.problems import Stencil7, convection_diffusion_system, poisson_system
from repro.solver import bicgstab

RNG = np.random.default_rng(59)


class TestDecomposition:
    def test_grid_product(self):
        g = choose_rank_grid(8, (16, 16, 16))
        assert g[0] * g[1] * g[2] == 8

    def test_prefers_cubic(self):
        assert sorted(choose_rank_grid(8, (64, 64, 64))) == [2, 2, 2]

    def test_impossible_decomposition(self):
        with pytest.raises(ValueError):
            choose_rank_grid(64, (2, 2, 2))

    def test_blocks_tile_exactly(self):
        d = Decomposition3D((10, 9, 8), (2, 3, 2))
        d.validate_cover()

    def test_uneven_split(self):
        d = Decomposition3D((7, 5, 3), (2, 2, 1))
        d.validate_cover()
        shapes = [d.block_shape(r) for r in range(d.nranks)]
        assert sum(np.prod(s) for s in shapes) == 7 * 5 * 3

    def test_rank_coords_roundtrip(self):
        d = Decomposition3D((8, 8, 8), (2, 2, 2))
        for r in range(8):
            assert d.rank_of(*d.rank_coords(r)) == r

    def test_neighbors_symmetric(self):
        d = Decomposition3D((8, 8, 8), (2, 2, 2))
        opposite = {"xp": "xm", "xm": "xp", "yp": "ym", "ym": "yp",
                    "zp": "zm", "zm": "zp"}
        for r in range(d.nranks):
            for direction, nb in d.neighbors(r).items():
                assert d.neighbors(nb)[opposite[direction]] == r

    def test_corner_rank_has_three_neighbors(self):
        d = Decomposition3D((8, 8, 8), (2, 2, 2))
        assert len(d.neighbors(0)) == 3

    def test_invalid_grid(self):
        with pytest.raises(ValueError):
            Decomposition3D((4, 4, 4), (8, 1, 1))

    @given(st.integers(1, 16), st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_cover_property(self, nranks, seed):
        rng = np.random.default_rng(seed)
        shape = tuple(int(rng.integers(4, 12)) for _ in range(3))
        try:
            grid = choose_rank_grid(nranks, shape)
        except ValueError:
            return
        Decomposition3D(shape, grid).validate_cover()


class TestVirtualComm:
    def test_allreduce_sum(self):
        comm = VirtualComm(8)
        vals = RNG.standard_normal(8)
        assert comm.allreduce(vals) == pytest.approx(vals.sum())

    def test_allreduce_synchronizes_clocks(self):
        comm = VirtualComm(4)
        comm.clocks[:] = [1.0, 2.0, 3.0, 4.0]
        comm.allreduce(np.ones(4))
        assert np.all(comm.clocks == comm.clocks[0])
        assert comm.clocks[0] > 4.0

    def test_allreduce_wrong_size(self):
        with pytest.raises(ValueError):
            VirtualComm(4).allreduce(np.ones(3))

    def test_compute_charge_advances_clock(self):
        comm = VirtualComm(2)
        comm.charge_compute(0, 1e9)
        assert comm.clocks[0] > 0
        assert comm.clocks[1] == 0

    def test_exchange_synchronizes_partners(self):
        comm = VirtualComm(3)
        comm.clocks[:] = [0.0, 5.0, 0.0]
        comm.exchange([(0, 1, 1000)])
        assert comm.clocks[0] >= 5.0  # waited for the slow partner
        assert comm.clocks[2] == 0.0  # uninvolved rank untouched

    def test_stats_tracked(self):
        comm = VirtualComm(2)
        comm.exchange([(0, 1, 100)])
        comm.allreduce(np.zeros(2))
        assert comm.messages_sent == 2
        assert comm.bytes_sent == 200
        assert comm.allreduces == 1

    def test_invalid_nranks(self):
        with pytest.raises(ValueError):
            VirtualComm(0)


class TestClusterBiCGStab:
    def test_matches_reference_solution(self):
        sys_ = convection_diffusion_system((12, 12, 12))
        ref = bicgstab(sys_.operator, sys_.b, rtol=1e-10, maxiter=400)
        dist = cluster_bicgstab(sys_.operator, sys_.b, nranks=8,
                                rtol=1e-10, maxiter=400)
        assert dist.converged
        np.testing.assert_allclose(dist.x, ref.x, rtol=1e-6, atol=1e-9)

    @pytest.mark.parametrize("nranks", [1, 2, 4, 6])
    def test_rank_count_invariance(self, nranks):
        """The answer must not depend on the decomposition."""
        sys_ = poisson_system((8, 8, 8), source="random")
        res = cluster_bicgstab(sys_.operator, sys_.b, nranks=nranks,
                               rtol=1e-10, maxiter=300)
        assert res.converged
        assert sys_.relative_residual(res.x) < 1e-8

    def test_scatter_gather_roundtrip(self):
        op = Stencil7.from_random((6, 6, 6), rng=RNG)
        solver = ClusterBiCGStab(op, nranks=4)
        g = RNG.standard_normal(op.shape)
        np.testing.assert_array_equal(solver.gather(solver.scatter(g)), g)

    def test_distributed_spmv_matches_operator(self):
        op = Stencil7.from_random((8, 7, 6), rng=RNG)
        solver = ClusterBiCGStab(op, nranks=4)
        v = RNG.standard_normal(op.shape)
        u = solver.gather(solver._spmv(solver.scatter(v)))
        np.testing.assert_allclose(u, op.apply(v), rtol=1e-12, atol=1e-12)

    def test_virtual_time_reported(self):
        sys_ = poisson_system((8, 8, 8), source="random")
        res = cluster_bicgstab(sys_.operator, sys_.b, nranks=4,
                               rtol=1e-8, maxiter=200)
        assert res.info["virtual_seconds"] > 0
        assert res.info["seconds_per_iteration"] > 0
        assert res.info["bytes_sent"] > 0
        assert res.info["allreduces"] >= 4 * res.iterations

    def test_more_ranks_less_virtual_time_big_problem(self):
        """Strong scaling holds while subdomains stay bandwidth-bound."""
        sys_ = poisson_system((16, 16, 16), source="random")
        t = {}
        for n in (1, 8):
            res = cluster_bicgstab(sys_.operator, sys_.b, nranks=n,
                                   rtol=1e-8, maxiter=100)
            t[n] = res.info["seconds_per_iteration"]
        assert t[8] < t[1]

    def test_grid_mismatch_rejected(self):
        op = Stencil7.from_random((8, 8, 8), rng=RNG)
        with pytest.raises(ValueError):
            ClusterBiCGStab(op, nranks=4, grid=(2, 2, 2))

    def test_zero_rhs(self):
        op = Stencil7.from_random((6, 6, 6), rng=RNG)
        res = ClusterBiCGStab(op, nranks=2).solve(np.zeros(op.shape))
        assert res.converged and res.iterations == 0


class TestClusterDrivesReference:
    """The cluster solver is :func:`repro.solver.bicgstab` with a
    distributed operator, AllReduce and charged AXPY plugged in."""

    # Figs. 7-8 inputs, pinned bit-for-bit: (residuals digest, x digest,
    # virtual_seconds, bytes_sent, messages, allreduces).
    PINS = {
        ("convection_diffusion", 8): (
            "b95cc82a94966b94", "8e918afd292f28c2",
            0.012367847908280202, 387072, 1344, 142),
        ("poisson", 1): (
            "24822ea6bc30f866", "f099687c7bd97c0c",
            0.008674267515923576, 0, 0, 142),
        ("poisson", 4): (
            "280fc8ef44c2a11b", "25f76ffe936bdb1f",
            0.008063317278980882, 114688, 448, 142),
        ("poisson", 6): (
            "812cdd142145d777", "8d574ed5c27f4fee",
            0.011060831959235571, 172032, 784, 142),
    }

    @pytest.mark.parametrize("system,nranks", sorted(PINS))
    def test_figure_inputs_pinned(self, system, nranks):
        import hashlib

        def digest(a):
            return hashlib.sha256(
                np.asarray(a, dtype=np.float64).tobytes()).hexdigest()[:16]

        sys_ = (convection_diffusion_system((12, 12, 12))
                if system == "convection_diffusion"
                else poisson_system((8, 8, 8), source="random"))
        res = cluster_bicgstab(sys_.operator, sys_.b, nranks=nranks,
                               rtol=1e-10, maxiter=400)
        i = res.info
        assert (digest(res.residuals), digest(res.x), i["virtual_seconds"],
                i["bytes_sent"], i["messages"], i["allreduces"]
                ) == self.PINS[system, nranks]

    @pytest.mark.parametrize("diag", [1.0, 4.0])
    def test_exact_half_step_converges(self, diag):
        """When the alpha half-step solves the system (y = A q = 0) the
        solve converges in one iteration, as the reference does; it is
        not an omega breakdown."""
        shape = (4, 4, 4)
        op = Stencil7({"diag": np.full(shape, diag)}, shape=shape)
        b = RNG.standard_normal(shape)
        ref = bicgstab(op, b)
        res = cluster_bicgstab(op, b, nranks=2)
        assert (ref.iterations, ref.converged, ref.breakdown) == (1, True, None)
        assert (res.iterations, res.converged, res.breakdown) == (1, True, None)
        np.testing.assert_array_equal(res.x, b / diag)
