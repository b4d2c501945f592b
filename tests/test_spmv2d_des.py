"""Tests for the 2D-mapping SpMV as a tile program (section IV.2 DES)."""

import numpy as np
import pytest

from repro.kernels.spmv2d_des import build_spmv2d_fabric, run_spmv2d_des
from repro.problems import Stencil9
from repro.wse.analyze.routing import routing_pass

RNG = np.random.default_rng(83)


def _pre(shape, seed=0):
    op = Stencil9.from_random(shape, rng=np.random.default_rng(seed))
    pre, _, _ = op.jacobi_precondition()
    return pre


def _tol(op, v):
    ref = op.apply(np.asarray(v, np.float16).astype(np.float64))
    return 16 * 2.0**-11 * (np.max(np.abs(ref)) + 1.0)


class TestCorrectness:
    @pytest.mark.parametrize("shape,block", [
        ((8, 8), (4, 4)),
        ((6, 9), (3, 3)),
        ((8, 4), (4, 4)),   # single block row
        ((4, 4), (4, 4)),   # single block: no exchange at all
        ((12, 8), (4, 4)),
        ((8, 8), (2, 4)),   # non-square blocks
    ])
    def test_matches_rowwise_apply(self, shape, block):
        op = _pre(shape)
        v = 0.1 * RNG.standard_normal(shape)
        u, _ = run_spmv2d_des(op, v, block)
        ref = op.apply(np.asarray(v, np.float16).astype(np.float64))
        assert np.max(np.abs(u - ref)) < _tol(op, v)

    def test_within_1e_2_on_a_2x2_fabric(self):
        """§IV.2's exchange at word level, 8x8 mesh in 4x4 blocks: fp16
        noise stays under 1e-2 absolute."""
        op = _pre((8, 8), seed=9)
        v = 0.1 * np.random.default_rng(9).standard_normal((8, 8))
        u, _ = run_spmv2d_des(op, v, (4, 4))
        ref = op.apply(np.asarray(v, np.float16).astype(np.float64))
        assert np.max(np.abs(u - ref)) < 1e-2

    def test_corner_coupling_crosses_two_rounds(self):
        """A unit ne-coupling across a block corner must arrive via the
        x-round then the y-round — the no-diagonal-sends property."""
        shape = (4, 4)
        ne = np.zeros(shape)
        ne[1, 1] = 2.0  # row (1,1) couples to its ne neighbour (2,2)
        op = Stencil9({"diag": np.ones(shape), "ne": ne})
        v = np.zeros(shape)
        v[2, 2] = 1.0  # lives in the other 2x2 block, across the corner
        u, _ = run_spmv2d_des(op, v, (2, 2))
        ref = op.apply(v)
        np.testing.assert_allclose(u, ref, atol=1e-3)
        assert ref[1, 1] == 2.0  # the cross-corner contribution is real

    def test_identity(self):
        op = Stencil9({"diag": np.ones((6, 6))})
        v = RNG.standard_normal((6, 6))
        u, _ = run_spmv2d_des(op, v, (3, 3))
        np.testing.assert_allclose(
            u, np.asarray(v, np.float16).astype(np.float64), atol=1e-7
        )

    def test_indivisible_rejected(self):
        op = _pre((8, 8))
        with pytest.raises(ValueError, match="does not tile"):
            run_spmv2d_des(op, np.zeros((8, 8)), (3, 3))


class TestProtocol:
    def test_routing_validates_clean(self):
        op = _pre((8, 8), seed=2)
        fabric, _ = build_spmv2d_fabric(op, np.zeros((8, 8)), (4, 4))
        assert routing_pass(fabric) == []

    def test_rounds_complete_once(self):
        op = _pre((8, 8), seed=3)
        fabric, programs = build_spmv2d_fabric(
            op, 0.1 * RNG.standard_normal((8, 8)), (4, 4)
        )
        fabric.run(max_cycles=100_000, until=lambda f: all(
            programs[j][i].done for j in range(2) for i in range(2)
        ) and f.quiescent())
        core = programs[0][0].core
        assert core.scheduler._tasks["x_done"].runs == 1
        assert core.scheduler._tasks["y_done"].runs == 1

    def test_memory_budget_matches_model(self):
        """The tile allocation must agree with the section IV.2 memory
        model's matrix term: 9 b^2 coefficient words + block + padded
        output."""
        b = 4
        op = _pre((8, 8), seed=4)
        fabric, programs = build_spmv2d_fabric(op, np.zeros((8, 8)), (b, b))
        mem = programs[0][0].core.memory
        expected = 2 * (9 * b * b + b * b + (b + 2) * (b + 2))
        assert mem.bytes_used == expected

    def test_cycles_scale_with_block(self):
        op_small = _pre((8, 8), seed=5)
        op_large = _pre((16, 16), seed=5)
        v8 = 0.1 * RNG.standard_normal((8, 8))
        v16 = 0.1 * RNG.standard_normal((16, 16))
        _, c_small = run_spmv2d_des(op_small, v8, (4, 4))
        _, c_large = run_spmv2d_des(op_large, v16, (8, 8))
        assert c_large > c_small
        assert c_large < 10 * c_small
