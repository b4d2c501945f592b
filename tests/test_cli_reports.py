"""Tests for the report generators and the CLI."""

import pytest

from repro.analysis.reporting import render
from repro.analysis.reports import REPORTS
from repro.cli import main


class TestReports:
    @pytest.mark.parametrize("name", sorted(REPORTS))
    def test_every_report_renders(self, name, built_report):
        out = render(built_report(name))
        assert isinstance(out, str)
        assert len(out.splitlines()) >= 3

    def test_headline_contains_numbers(self, built_report):
        out = render(built_report("headline"))
        assert "28.1" in out
        assert "0.86" in out or "0.859" in out

    def test_allreduce_mentions_claim(self, built_report):
        out = render(built_report("allreduce"))
        assert "< 1.5" in out

    def test_cluster_mentions_214(self, built_report):
        out = render(built_report("figs78"))
        assert "214" in out

    def test_capacity_lists_roadmap(self, built_report):
        out = render(built_report("capacity"))
        assert "7 nm" in out and "5 nm" in out
        assert "helicopter" in out

    def test_table1_totals(self, built_report):
        out = render(built_report("table1"))
        assert "44" in out or "Total" in out


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "headline" in out and "fig9" in out

    def test_default_is_list(self, capsys):
        assert main([]) == 0
        assert "available reports" in capsys.readouterr().out

    def test_known_report(self, capsys):
        assert main(["fig5"]) == 0
        assert "mod 5" in capsys.readouterr().out

    def test_unknown_report(self, capsys):
        assert main(["nonsense"]) == 2
        err = capsys.readouterr().err
        assert "unknown report" in err

    def test_quick_reports_run(self, capsys):
        for name in ("table2", "spmv2d", "cfd", "sweep", "ablation"):
            assert main([name]) == 0
        assert capsys.readouterr().out
