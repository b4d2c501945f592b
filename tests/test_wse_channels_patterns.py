"""Tests for the Fig. 5 tessellation colouring and the Fig. 6b pattern
combinators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.wse import (
    N_SPMV_CHANNELS,
    channel_map,
    tile_channel,
    verify_tessellation,
)
from repro.wse.patterns import (
    Pattern,
    hflip,
    hrep,
    hstack,
    merge,
    rot180,
    single,
    vflip,
    vrep,
    vstack,
)


class TestTessellation:
    def test_five_channels(self):
        colors = channel_map(20, 20)
        assert set(np.unique(colors)) == set(range(N_SPMV_CHANNELS))

    def test_paper_property_on_cs1_sized_patch(self):
        verify_tessellation(channel_map(64, 64))

    def test_full_cs1_fabric(self):
        """Fig. 5's colouring over the whole 602 x 595 fabric."""
        from repro.wse import CS1_GEOMETRY

        colors = channel_map(CS1_GEOMETRY.fabric_width,
                             CS1_GEOMETRY.fabric_height)
        assert colors.shape == (595, 602)
        assert set(np.unique(colors)) == set(range(N_SPMV_CHANNELS))
        verify_tessellation(colors[:50, :50])

    def test_tile_channel_matches_map(self):
        cm = channel_map(10, 7)
        for y in range(7):
            for x in range(10):
                assert cm[y, x] == tile_channel(x, y)

    @given(st.integers(1, 40), st.integers(1, 40))
    @settings(max_examples=40, deadline=None)
    def test_property_any_size(self, w, h):
        verify_tessellation(channel_map(w, h))

    def test_violation_detected(self):
        bad = np.zeros((3, 3), dtype=int)  # all one colour
        with pytest.raises(AssertionError):
            verify_tessellation(bad)

    def test_neighbour_colors_are_pm1_pm2(self):
        """The incoming colours at any tile are c+-1, c+-2 mod 5."""
        c = tile_channel(7, 9)
        neigh = {
            tile_channel(8, 9), tile_channel(6, 9),
            tile_channel(7, 10), tile_channel(7, 8),
        }
        assert neigh == {(c + 1) % 5, (c - 1) % 5, (c + 2) % 5, (c - 2) % 5}


class TestPatternCombinators:
    def test_single_shape(self):
        p = single({(0, "C"): ("E",)})
        assert (p.width, p.height) == (1, 1)

    def test_hstack_and_hrep(self):
        p = hrep(single({(0, "C"): ("E",)}), 3)
        assert (p.width, p.height) == (3, 1)
        assert p.at(2, 0) == {(0, "C"): ("E",)}

    def test_vstack_and_vrep(self):
        p = vrep(single({(0, "C"): ("N",)}), 4)
        assert (p.width, p.height) == (1, 4)

    def test_stack_shape_mismatch(self):
        with pytest.raises(ValueError):
            hstack(single({}), vrep(single({}), 2))
        with pytest.raises(ValueError):
            vstack(single({}), hrep(single({}), 2))

    def test_hflip_swaps_ew(self):
        p = hstack(single({(0, "W"): ("E",)}), single({(0, "C"): ("W", "N")}))
        q = hflip(p)
        assert q.at(0, 0) == {(0, "C"): ("E", "N")}
        assert q.at(1, 0) == {(0, "E"): ("W",)}

    def test_vflip_swaps_ns(self):
        p = vstack(single({(0, "S"): ("N",)}), single({(0, "C"): ("S",)}))
        q = vflip(p)
        assert q.at(0, 0) == {(0, "C"): ("N",)}
        assert q.at(0, 1) == {(0, "N"): ("S",)}

    def test_flips_are_involutions(self):
        p = hstack(single({(1, "W"): ("E", "C")}), single({(2, "N"): ("S",)}))
        assert hflip(hflip(p)).tiles == p.tiles
        assert vflip(vflip(p)).tiles == p.tiles
        assert rot180(rot180(p)).tiles == p.tiles

    def test_merge_disjoint(self):
        a = single({(0, "C"): ("E",)})
        b = single({(1, "C"): ("N",)})
        m = merge(a, b)
        assert m.at(0, 0) == {(0, "C"): ("E",), (1, "C"): ("N",)}

    def test_merge_conflict_rejected(self):
        a = single({(0, "C"): ("E",)})
        b = single({(0, "C"): ("N",)})
        with pytest.raises(ValueError, match="conflicting"):
            merge(a, b)

    def test_merge_identical_route_allowed(self):
        a = single({(0, "C"): ("E",)})
        m = merge(a, a)
        assert m.at(0, 0) == {(0, "C"): ("E",)}

    def test_merge_shape_mismatch(self):
        with pytest.raises(ValueError):
            merge(single({}), hrep(single({}), 2))

    def test_zero_rep(self):
        assert hrep(single({}), 0).width == 0
        assert vrep(single({}), 0).height == 0

    def test_negative_rep_rejected(self):
        with pytest.raises(ValueError):
            hrep(single({}), -1)

    def test_compile_shape_mismatch(self):
        from repro.wse import Fabric
        from repro.wse.patterns import compile_to_fabric

        with pytest.raises(ValueError, match="does not match"):
            compile_to_fabric(single({}), Fabric(2, 2))
