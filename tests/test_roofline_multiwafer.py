"""Tests for the roofline analysis and the multi-wafer clustering model."""

import pytest

from repro.perfmodel import (
    MultiWaferModel,
    RooflineMachine,
    attainable_fraction,
    bicgstab_intensity,
    cs1_core_roofline,
    roofline_table,
    xeon_socket_roofline,
)


class TestRoofline:
    def test_intensity_by_precision(self):
        """~1 flop per word: 0.125 flop/B at fp64, 0.5 at fp16."""
        assert bicgstab_intensity("double") == pytest.approx(0.125)
        assert bicgstab_intensity("mixed") == pytest.approx(0.5)
        assert bicgstab_intensity("single") == pytest.approx(0.25)

    def test_xeon_is_bandwidth_bound(self):
        """The intro's regime: the solver sits far left of the Xeon
        ridge, attainable ~1% of peak — the HPCG phenomenon."""
        xeon = xeon_socket_roofline()
        ai = bicgstab_intensity("double")
        assert xeon.bandwidth_bound(ai)
        frac = xeon.fraction_of_peak(ai)
        assert 0.003 < frac < 0.03

    def test_cs1_is_compute_bound(self):
        """The wafer's balance puts the fp16 solver past the ridge."""
        cs1 = cs1_core_roofline()
        ai = bicgstab_intensity("mixed")
        assert not cs1.bandwidth_bound(ai)
        assert cs1.fraction_of_peak(ai) == 1.0

    def test_ridge_points(self):
        assert xeon_socket_roofline().ridge_point == pytest.approx(12.0)
        assert cs1_core_roofline().ridge_point == pytest.approx(1 / 3, rel=1e-6)

    def test_attainable_caps_at_peak(self):
        m = RooflineMachine("m", peak_flops=100.0, mem_bandwidth=10.0)
        assert m.attainable(1000.0) == 100.0
        assert m.attainable(1.0) == 10.0

    def test_invalid_intensity(self):
        with pytest.raises(ValueError):
            cs1_core_roofline().attainable(0.0)

    def test_table_shape(self):
        rows = roofline_table()
        assert len(rows) == 3
        bounds = {r["machine"]: r["bound"] for r in rows}
        assert bounds["Xeon 6148 socket (fp64)"] == "bandwidth"
        assert bounds["V100 GPU (fp64)"] == "bandwidth"
        assert bounds["CS-1 core (fp16)"] == "compute"

    def test_roofline_consistent_with_measured_fractions(self):
        """The roofline bound must sit above what the calibrated models
        actually achieve (it is an upper bound)."""
        from repro.perfmodel import ClusterModel, HEADLINE_MESH, WaferPerfModel

        xeon_bound = attainable_fraction(xeon_socket_roofline(), "double")
        measured = ClusterModel().fraction_of_peak((600, 600, 600), 1024)
        assert measured <= xeon_bound * 1.05
        wafer_bound = attainable_fraction(cs1_core_roofline(), "mixed")
        wafer_measured = WaferPerfModel().fraction_of_peak(HEADLINE_MESH)
        assert wafer_measured <= wafer_bound


class TestMultiWafer:
    def test_capacity_linear(self):
        m = MultiWaferModel()
        assert m.capacity_meshpoints(4) == 4 * m.capacity_meshpoints(1)

    def test_single_wafer_no_overhead(self):
        m = MultiWaferModel()
        pt = m.point(1, 595)
        assert pt.efficiency == 1.0
        assert pt.interwafer_seconds == 0.0

    def test_weak_scaling_efficiency_with_good_links(self):
        """Up to §VIII.B's eight-wafer cluster on the default links."""
        m = MultiWaferModel(link_bandwidth=300e9)
        for wafers in (4, 8):
            assert all(pt.efficiency > 0.9 for pt in m.scaling_curve(wafers))

    def test_insufficient_bandwidth_hurts(self):
        slow = MultiWaferModel(link_bandwidth=50e9)
        fast = MultiWaferModel(link_bandwidth=500e9)
        assert slow.point(2, 595).efficiency < 0.5
        assert fast.point(2, 595).efficiency > 0.9

    def test_sufficient_bandwidth_threshold(self):
        """At exactly the 'sufficient' rate, halo == compute; above it
        the exposed halo is zero."""
        m = MultiWaferModel()
        bw = m.sufficient_bandwidth()
        assert 100e9 < bw < 1e12
        above = MultiWaferModel(link_bandwidth=bw * 1.2)
        pt = above.point(2, 595)
        assert pt.interwafer_seconds == pytest.approx(
            above.collective_penalty()
        )

    def test_meshpoints_grow_with_wafers(self):
        m = MultiWaferModel()
        for wafers in (3, 8):
            pts = [c.total_meshpoints for c in m.scaling_curve(wafers)]
            assert pts == [n * pts[0] for n in range(1, wafers + 1)]

    def test_slab_too_tall_rejected(self):
        with pytest.raises(ValueError):
            MultiWaferModel().point(2, 700)

    def test_invalid_wafer_count(self):
        with pytest.raises(ValueError):
            MultiWaferModel().capacity_meshpoints(0)
