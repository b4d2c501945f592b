"""The paper's claims, asserted on the rows its reports print.

Each test reads the blocks a report in ``repro.analysis.reports``
returns — the same rows ``python -m repro <name>`` renders — through the
session-wide ``built_report`` fixture, so a report is built once however
many claims read it (``test_cli_reports.py`` renders the same objects).
A claim that no report prints, or that a model test already asserts at
the same bound, is asserted only next to the model it exercises;
``docs/paper_claims_checklist.md`` maps every claim to its test.
"""

import numpy as np
import pytest


def _tables(blocks):
    from repro.analysis.reporting import Table

    return [b for b in blocks if isinstance(b, Table)]


def _band(cell: str) -> tuple[int, int]:
    lo, hi = cell.split("-")
    return int(lo), int(hi)


class TestTable2:
    @pytest.mark.parametrize("phase", ["Momentum", "Continuity",
                                       "Field Update"])
    def test_measured_cycles_near_paper_range(self, built_report, phase):
        """Our single-phase incompressible assembly lands within the
        paper's ranges (which cover MFIX's full generality) up to a
        1.5x / 0.1x margin."""
        row = _tables(built_report("table2"))[0].row(phase)
        lo, hi = _band(row["paper cycles/point"])
        assert 0.1 * lo <= row["measured (our assembly)"] <= 1.5 * hi


class TestFig1Balance:
    def test_modern_systems_in_the_hundreds(self, built_report):
        table = _tables(built_report("fig1"))[0]
        modern = [r for r in table.rows
                  if r[1] >= 2016 and not r[0].startswith("Cerebras")]
        assert modern
        assert all(mem > 100 for _, _, mem, _ in modern)


class TestFigs78Cluster:
    def test_wafer_vs_cluster_gap(self, built_report):
        """§V.A: the 16K-core cluster iteration over the CS-1's, from the
        two reports' rows (the paper's ratio is about 214)."""
        table = _tables(built_report("figs78"))[0]
        wafer_us = _tables(built_report("headline"))[0].row(
            "time / iteration (us)")["measured"]
        assert table.row(16384)["600^3 ms/iter"] * 1e3 / wafer_us > 150

    def test_cs1_problem_is_larger_and_narrower(self):
        """§V.A: the CS-1 problem has more than twice the meshpoints of
        the 600^3 Joule one, in arithmetic 4x narrower (fp16 vs fp64)."""
        from repro.perfmodel import HEADLINE_MESH
        from repro.precision import spec_for

        assert np.prod(HEADLINE_MESH) / 600**3 > 2
        assert (spec_for("double").bytes_per_word
                == 4 * spec_for("mixed").bytes_per_word)


class TestFig9:
    """Mixed tracks fp32 early, then plateaus near fp16 precision while
    fp32 keeps going down (the 50x200x50 half-scale system)."""

    @pytest.fixture(scope="class")
    def histories(self, built_report):
        table = _tables(built_report("fig9"))[0]
        return np.array(table.column("single")), np.array(table.column("mixed"))

    def test_mixed_tracks_fp32_early(self, histories):
        s, m = histories
        assert np.all(m[:3] < 3 * s[:3] + 1e-6)

    def test_fp32_ends_well_below_the_mixed_plateau(self, histories):
        s, m = histories
        assert s[-1] < m[-1] / 5

    def test_mixed_plateau_near_fp16_precision(self, histories):
        _, m = histories
        assert 1e-5 < m.min() < 5e-2


class TestMeshShapeSweep:
    def test_deeper_z_amortizes_the_collectives(self, built_report):
        table = _tables(built_report("sweep"))[0]
        assert (table.row("600x595x2048")["frac of peak"]
                > table.row("600x595x256")["frac of peak"])


class TestCommAblation:
    """§IV.3's blocking collectives: batching costs little at Z = 1536
    (< 10 %) and matters at short columns (> 20 % at Z = 64)."""

    def test_gain_small_at_headline_depth_large_at_short_z(self, built_report):
        table = _tables(built_report("ablation"))[0]
        blocking, batched = ("4 blocking AllReduces (us)", "3 batched (us)")
        short, deep = table.row(64), table.row(1536)
        assert short[blocking] / short[batched] > 1.2
        assert deep[blocking] / deep[batched] < 1.10


class TestEnergy:
    """Abstract: performance per rack."""

    def test_energy_ratio_and_racks(self, built_report):
        table = _tables(built_report("energy"))[0]
        racks = table.row("racks")["Joule @16K cores"]
        assert racks > 1
        assert table.row("energy ratio / iteration")["Joule @16K cores"] > racks


class TestIntro:
    """§I: HPCG-class machines reach a few percent of peak at most; the
    CS-1 about a third."""

    def test_cluster_low_wafer_high(self, built_report):
        fractions, pvm = _tables(built_report("intro"))
        cluster = fractions.column("% of fp64 peak")
        wafer = pvm.row("CS-1 % of peak")["measured"]
        assert all(f < 4 for f in cluster)
        assert wafer > 25
        assert wafer / max(cluster) > 10


class TestSpmv3dDes:
    """Listing 1 on the tile simulator: CSR-exact at fp16 noise, cycles
    between the fabric floor (Z) and the calibrated budget."""

    def test_cycles_in_model_envelope(self, built_report):
        table = _tables(built_report("spmv3d"))[0]
        cycles = table.row("discrete simulation (cycles)")["value"]
        assert (table.row("fabric-limited lower bound (Z)")["value"]
                <= cycles
                <= table.row("calibrated model budget")["value"] + 40)

    def test_matches_csr(self, built_report):
        table = _tables(built_report("spmv3d"))[0]
        assert table.row("max |DES - CSR|")["value"] < 0.05


class TestTileStream:
    """§II.A: copy and AXPY stream at SIMD-4, the mixed dot at 2 FMAC
    per cycle, at every length."""

    def test_rates_at_the_architectural_bounds(self, built_report):
        table = _tables(built_report("stream"))[0]
        for row in table.rows:
            r = dict(zip(table.headers, row))
            assert r["utilization"] > 0.9, r
            assert r["bound"] == (2 if r["kernel"] == "dot" else 4)


class TestPrecisionTrade:
    """Abstract: memory capacity and floating-point precision."""

    @pytest.fixture(scope="class")
    def table(self, built_report):
        return _tables(built_report("precision"))[0]

    def test_accuracy_ordering(self, table):
        best = dict(zip(table.column("precision"),
                        table.column("best true residual")))
        assert best["mixed"] < 2e-2
        assert best["single"] < best["mixed"] / 10
        assert best["double"] < best["single"] / 10
        assert best["half"] > best["single"]

    def test_fp32_slower_per_iteration(self, table):
        assert table.row("single")["us/iter"] > table.row("mixed")["us/iter"]
