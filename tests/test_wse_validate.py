"""Tests for the analyzer's routing pass on hand-set routes.

The real system's routes are "configured offline, as part of
compilation" (paper section II.A), so a misroute is a compile-time
finding: ``routing_pass`` reports completeness (``missing-core``,
``off-fabric``, ``dead-end``) and one ``cycle`` per distinct forwarding
loop, each anchored to a tile and a channel.
"""

import dataclasses

import numpy as np
import pytest

from repro.wse import Fabric, Port
from repro.wse.allreduce import allreduce_pattern
from repro.wse.analyze.routing import routing_pass
from repro.wse.patterns import compile_to_fabric


class _Core:
    def deliver(self, channel, value):
        pass

    def poll_tx(self, channel):
        return None

    def tx_channels(self):
        return []


def _fabric_with_cores(w, h):
    f = Fabric(w, h)
    for y in range(h):
        for x in range(w):
            f.attach_core(x, y, _Core())
    return f


class TestValidate:
    def test_clean_line_route(self):
        f = _fabric_with_cores(3, 1)
        f.router(0, 0).set_route(0, Port.CORE, (Port.EAST,))
        f.router(1, 0).set_route(0, Port.WEST, (Port.EAST,))
        f.router(2, 0).set_route(0, Port.WEST, (Port.CORE,))
        assert routing_pass(f) == []

    def test_dead_end_detected(self):
        f = _fabric_with_cores(3, 1)
        f.router(0, 0).set_route(0, Port.CORE, (Port.EAST,))
        # no continuation at (1,0)
        issues = routing_pass(f)
        assert [(i.kind, i.channel, i.where) for i in issues] == [
            ("dead-end", 0, (1, 0))]

    def test_off_fabric_detected(self):
        f = _fabric_with_cores(2, 1)
        f.router(0, 0).set_route(0, Port.CORE, (Port.WEST,))
        issues = routing_pass(f)
        assert any(i.kind == "off-fabric" for i in issues)

    def test_missing_core_detected(self):
        f = Fabric(2, 1)  # no cores attached
        f.router(0, 0).set_route(0, Port.CORE, (Port.EAST,))
        f.router(1, 0).set_route(0, Port.WEST, (Port.CORE,))
        issues = routing_pass(f)
        assert any(i.kind == "missing-core" for i in issues)

    def test_cycle_detected(self):
        f = _fabric_with_cores(2, 2)
        # A ring: (0,0) -> E -> (1,0) -> N -> (1,1) -> W -> (0,1) -> S -> (0,0).
        # A word sent south arrives on the receiver's NORTH port, etc.
        f.router(0, 0).set_route(0, Port.NORTH, (Port.EAST,))
        f.router(0, 0).set_route(0, Port.CORE, (Port.EAST,))
        f.router(1, 0).set_route(0, Port.WEST, (Port.NORTH,))
        f.router(1, 1).set_route(0, Port.SOUTH, (Port.WEST,))
        f.router(0, 1).set_route(0, Port.EAST, (Port.SOUTH,))
        issues = routing_pass(f)
        assert any(i.kind == "cycle" for i in issues)

    def test_fanout_with_core_exit_is_not_a_cycle(self):
        """A path that delivers to cores along the way and terminates is
        clean even with fanout."""
        f = _fabric_with_cores(3, 1)
        f.router(1, 0).set_route(7, Port.CORE, (Port.EAST, Port.WEST, Port.CORE))
        f.router(0, 0).set_route(7, Port.EAST, (Port.CORE,))
        f.router(2, 0).set_route(7, Port.WEST, (Port.CORE,))
        assert routing_pass(f) == []

    @pytest.mark.parametrize("w,h", [(4, 4), (8, 8), (5, 7)])
    def test_allreduce_pattern_validates_clean(self, w, h):
        """The Fig. 6 construction must pass static validation."""
        f = _fabric_with_cores(w, h)
        compile_to_fabric(allreduce_pattern(w, h), f)
        assert routing_pass(f) == []

    def test_spmv_fabric_validates_clean(self):
        """The Listing 1 program's routes must pass static validation."""
        from repro.kernels import build_spmv_fabric
        from repro.problems import Stencil7

        op = Stencil7.identity((4, 4, 4))
        fabric, _ = build_spmv_fabric(op, np.zeros(op.shape))
        assert routing_pass(fabric) == []

    def test_empty_fabric_clean(self):
        assert routing_pass(Fabric(3, 3)) == []


class TestRoutingIssueValues:
    def test_value_equality(self):
        """Findings are values: assert on kind, channel, position and
        message, not reprs."""
        f = _fabric_with_cores(3, 1)
        f.router(0, 0).set_route(0, Port.CORE, (Port.EAST,))
        issues = routing_pass(f)
        assert [(i.kind, i.channel, i.where, i.message) for i in issues] == [(
            "dead-end", 0, (1, 0),
            "words arriving on port W (sent from (0, 0) via E) have no route",
        )]

    def test_frozen(self):
        f = _fabric_with_cores(3, 1)
        f.router(0, 0).set_route(0, Port.CORE, (Port.EAST,))
        (issue,) = routing_pass(f)
        with pytest.raises(dataclasses.FrozenInstanceError):
            issue.kind = "cycle"

    def test_every_distinct_loop_reported(self):
        """Two disjoint forwarding rings on one channel: two findings."""
        f = _fabric_with_cores(4, 1)
        f.router(0, 0).set_route(0, Port.EAST, (Port.EAST,))
        f.router(1, 0).set_route(0, Port.WEST, (Port.WEST,))
        f.router(2, 0).set_route(0, Port.EAST, (Port.EAST,))
        f.router(3, 0).set_route(0, Port.WEST, (Port.WEST,))
        issues = [i for i in routing_pass(f) if i.kind == "cycle"]
        assert len(issues) == 2
        assert sorted(i.where for i in issues) == [(0, 0), (2, 0)]
