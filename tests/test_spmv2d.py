"""Tests for the 2D block mapping (section IV.2): the output-halo
exchange SpMV and the memory/overhead models behind the paper's claims."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import (
    Block2DModel,
    block_memory_words,
    block_spmv,
    halo_overhead_fraction,
    max_block_size,
    max_mesh_extent,
)
from repro.problems import Stencil9

RNG = np.random.default_rng(47)


class TestBlockSpmv:
    @pytest.mark.parametrize("shape,block", [
        ((8, 8), (4, 4)),
        ((12, 8), (4, 4)),
        ((6, 9), (3, 3)),
        ((8, 8), (8, 8)),   # single block
        ((10, 10), (2, 5)),  # non-square blocks
        ((64, 64), (8, 8)),  # interior blocks with all eight neighbours
    ])
    def test_matches_rowwise_apply(self, shape, block):
        op = Stencil9.from_random(shape, rng=RNG)
        v = RNG.standard_normal(shape)
        u = block_spmv(op, v, block)
        np.testing.assert_allclose(u, op.apply(v), rtol=1e-12, atol=1e-12)

    def test_preconditioned_operator(self):
        op, _, _ = Stencil9.from_random((8, 8), rng=RNG).jacobi_precondition()
        v = RNG.standard_normal((8, 8))
        np.testing.assert_allclose(
            block_spmv(op, v, (4, 4)), op.apply(v), rtol=1e-12
        )

    def test_indivisible_blocks_rejected(self):
        op = Stencil9.from_random((8, 8), rng=RNG)
        with pytest.raises(ValueError, match="does not tile"):
            block_spmv(op, np.zeros((8, 8)), (3, 3))

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_block_spmv_property(self, seed):
        rng = np.random.default_rng(seed)
        op = Stencil9.from_random((6, 6), rng=rng)
        v = rng.standard_normal((6, 6))
        np.testing.assert_allclose(
            block_spmv(op, v, (3, 3)), op.apply(v), rtol=1e-11, atol=1e-11
        )

    def test_corner_coupling_crosses_blocks(self):
        """A unit ne-coupling across a block corner must arrive via the
        two-round (x then y) halo exchange — no diagonal sends."""
        shape = (4, 4)
        ne = np.zeros(shape)
        ne[1, 1] = 1.0  # point (1,1) couples to (2,2): different 2x2 block
        op = Stencil9({"diag": np.ones(shape), "ne": ne})
        v = np.zeros(shape)
        v[2, 2] = 3.0
        u = block_spmv(op, v, (2, 2))
        assert u[1, 1] == pytest.approx(3.0 + 0.0)  # 1*v[1,1]=0 diag + 3
        np.testing.assert_allclose(u, op.apply(v))


class TestMemoryModel:
    def test_max_block_is_38(self):
        """Paper: 'a sub-block up-to 38x38 in size'."""
        assert max_block_size() == 38

    def test_38_fits_39_does_not(self):
        cap_words = 48 * 1024 // 2
        assert block_memory_words(38) <= cap_words
        assert block_memory_words(39) > cap_words

    def test_mesh_extent_22800(self):
        """Paper: 'corresponding to geometries of 22800x22800'."""
        assert max_mesh_extent(600) == 22800

    def test_memory_monotone(self):
        assert block_memory_words(8) < block_memory_words(16) < block_memory_words(38)

    def test_invalid_block(self):
        with pytest.raises(ValueError):
            block_memory_words(0)


class TestOverheadModel:
    def test_under_20_percent_at_8x8(self):
        """Paper: 'When a core holds only an 8x8 region ... the overhead
        remains less than 20%'."""
        assert halo_overhead_fraction(8) < 0.20

    def test_overhead_decreases_with_block_size(self):
        assert (
            halo_overhead_fraction(38)
            < halo_overhead_fraction(16)
            < halo_overhead_fraction(8)
            < halo_overhead_fraction(4)
        )

    def test_small_blocks_are_expensive(self):
        assert halo_overhead_fraction(2) > 0.3

    def test_invalid(self):
        with pytest.raises(ValueError):
            halo_overhead_fraction(0)


class TestBlock2DModel:
    def test_for_block_38(self):
        m = Block2DModel.for_block(38)
        assert m.fits
        assert m.mesh_extent_600 == 22800
        assert m.memory_bytes <= 48 * 1024

    def test_for_block_39_does_not_fit(self):
        assert not Block2DModel.for_block(39).fits
