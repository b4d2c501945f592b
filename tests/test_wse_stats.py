"""Tests for fabric traffic statistics."""

import numpy as np

from repro.kernels import build_spmv_fabric
from repro.obs import ObsSession
from repro.problems import Stencil7

RNG = np.random.default_rng(101)


class TestSpmvTraffic:
    def test_spmv_moves_expected_words(self):
        """Each tile broadcasts Z words; fanout copies count per hop:
        interior tiles deliver to 4 neighbours + loopback."""
        shape = (3, 3, 8)
        op = Stencil7.identity(shape)
        fabric, programs = build_spmv_fabric(op, RNG.standard_normal(shape))
        fo = ObsSession().observe_fabric("spmv", fabric)
        fabric.run(
            until=lambda f: all(
                programs[j][i].done for j in range(3) for i in range(3)
            ) and f.quiescent(),
        )
        # Every tile injects Z words into its router (one router "move"
        # each as the fanout is a single move), plus one hop per
        # neighbour delivery.
        assert fo.total_words >= 9 * 8  # at least the injections
        assert fo.peak_occupancy <= 8  # bounded queues: no pile-up
