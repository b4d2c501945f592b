"""Tests for the Fig. 6 AllReduce: routing construction, the discrete
simulation, and the latency model (the <1.5 us claim)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import RunOptions
from repro.wse import (
    CS1,
    allreduce_latency_cycles,
    allreduce_latency_seconds,
    allreduce_pattern,
    simulate_allreduce,
)
from repro.wse.allreduce import CH_BCAST, AllReduceEngine, ReduceCore
from repro.wse.patterns import Pattern

RNG = np.random.default_rng(41)


class TestPatternConstruction:
    @pytest.mark.parametrize("w,h", [(2, 2), (4, 4), (8, 8), (5, 7), (6, 3)])
    def test_every_core_reachable_by_broadcast(self, w, h):
        """Every tile's config must include a CH_BCAST delivery to 'C'."""
        p = allreduce_pattern(w, h)
        for y in range(h):
            for x in range(w):
                cfg = p.at(x, y)
                delivered = any(
                    ch == CH_BCAST and "C" in outs
                    for (ch, _), outs in cfg.items()
                )
                is_root = (x, y) == (w // 2 - 1, h // 2 - 1)
                assert delivered or is_root, f"tile ({x},{y}) never receives"

    def test_too_small_fabric_rejected(self):
        with pytest.raises(ValueError):
            allreduce_pattern(1, 4)

    def test_pattern_is_pattern(self):
        assert isinstance(allreduce_pattern(4, 4), Pattern)


class TestSimulation:
    @pytest.mark.parametrize("w,h", [(2, 2), (4, 4), (8, 8), (3, 5), (7, 4), (12, 6),
                                     (16, 16)])
    def test_sum_correct(self, w, h):
        vals = RNG.standard_normal((h, w)).astype(np.float32)
        result, _ = simulate_allreduce(vals)
        assert result == pytest.approx(float(vals.astype(np.float64).sum()),
                                       abs=1e-4)

    def test_fig6_example_size(self):
        """The paper's illustration uses X=8, Y=8."""
        vals = np.ones((8, 8), dtype=np.float32)
        result, cycles = simulate_allreduce(vals)
        assert result == 64.0
        assert cycles < 100

    def test_latency_scales_with_diameter(self):
        _, c_small = simulate_allreduce(np.ones((4, 4)))
        _, c_large = simulate_allreduce(np.ones((16, 16)))
        assert c_large > c_small
        # roughly linear in the fabric extent, not quadratic
        assert c_large < 6 * c_small

    @given(
        st.integers(2, 10), st.integers(2, 10), st.integers(0, 2**31 - 1)
    )
    @settings(max_examples=20, deadline=None)
    def test_sum_property(self, w, h, seed):
        rng = np.random.default_rng(seed)
        vals = rng.uniform(-10, 10, size=(h, w)).astype(np.float32)
        result, _ = simulate_allreduce(vals)
        assert result == pytest.approx(float(vals.astype(np.float64).sum()),
                                       rel=1e-4, abs=1e-3)

    def test_des_within_model_envelope(self):
        """The analytic model (zero overhead) should bound the DES within
        a small additive margin on small fabrics."""
        for w, h in [(4, 4), (8, 8), (10, 6)]:
            _, cycles = simulate_allreduce(np.ones((h, w)))
            model = allreduce_latency_cycles(w, h, stage_overhead=0)
            assert abs(cycles - model) <= max(6, 0.4 * model)


class _UntappedCore(ReduceCore):
    """A producer no instrument taps: it refuses the recorder, strips the
    tag off what it receives and sends plain floats."""

    recorder = property(lambda self: None, lambda self, _v: None)

    def deliver(self, channel, value):
        super().deliver(channel, getattr(value, "v", value))


class TestUninstrumentedProducer:
    """One corner tile (a non-sink: it sends a single CH_ROW word) is
    not instrumented; the instrumented sink that receives its plain
    float must keep the collective running and say what it lost."""

    W, H = 5, 4

    def _engine(self, engine):
        eng = AllReduceEngine(self.W, self.H,
                              options=RunOptions(engine=engine))
        stray = _UntappedCore(0, 0, self.W, self.H, 0.0)
        eng.fabric.attach_core(0, 0, stray)
        eng.cores[0] = stray
        return eng

    def _expected(self, values):
        return AllReduceEngine(self.W, self.H).reduce(values)

    def test_recording_is_voided_and_falls_back_live(self):
        values = RNG.uniform(-4, 4, size=(self.H, self.W))
        eng = self._engine("replay")
        sess = eng.replay
        assert sess.enabled
        assert eng.reduce(values) == self._expected(values)
        assert (sess.records, sess.replays, sess.fallbacks) == (0, 0, 1)
        assert sess.schedule is None
        assert any("recording failed" in d and "unattributed word" in d
                   for d in sess.diagnostics)
        # The next reduce runs live again and is still right.
        assert eng.reduce(2 * values) == self._expected(2 * values)
        assert sess.replays == 0


class TestLatencyModel:
    def test_cs1_under_1_5_microseconds(self):
        """Paper section IV.3 / abstract: AllReduce 'takes under 1.5
        microseconds' on the full fabric."""
        t = allreduce_latency_seconds()
        assert t < 1.5e-6
        assert t > 0.5e-6  # and not trivially small

    def test_about_ten_percent_over_diameter(self):
        """Paper: 'a cycle count only about 10% greater than the
        diameter of the system'."""
        g = CS1.geometry
        cycles = allreduce_latency_cycles(g.fabric_width, g.fabric_height)
        ratio = cycles / g.diameter
        assert 1.02 < ratio < 1.25

    def test_monotone_in_size(self):
        a = allreduce_latency_cycles(8, 8)
        b = allreduce_latency_cycles(64, 64)
        c = allreduce_latency_cycles(602, 595)
        assert a < b < c

    def test_custom_shape(self):
        assert allreduce_latency_seconds(10, 10) < allreduce_latency_seconds()
