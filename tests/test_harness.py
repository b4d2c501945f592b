"""Tests for the report loop (``rendered``) and write-report."""

import pytest

from repro.analysis.reports import REPORTS, rendered, write_report
from repro.cli import main


class TestCollect:
    def test_subset(self):
        out = dict(rendered(["fig5", "spmv2d"]))
        assert set(out) == {"fig5", "spmv2d"}
        assert "mod 5" in out["fig5"]

    def test_no_errors_in_fast_subset(self):
        fast = ["fig5", "spmv2d", "cfd", "sweep", "ablation", "roofline",
                "multiwafer", "energy", "capacity", "fig1"]
        out = dict(rendered(fast))
        assert set(out) == set(fast)
        assert not any(text.startswith("ERROR") for text in out.values())


class TestWriteReport:
    def test_writes_markdown(self, tmp_path):
        p = write_report(tmp_path / "r.md", names={"fig5", "energy"})
        text = p.read_text()
        assert text.startswith("# Regenerated experiment reports")
        assert "## fig5" in text and "## energy" in text
        assert "```text" in text

    def test_cli_write_report(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "cli.md"
        # Patch the registry down to a fast subset for the CLI test.
        monkeypatch.setattr("repro.analysis.reports.REPORTS",
                            {"fig5": REPORTS["fig5"]})
        assert main(["write-report", "--output", str(out)]) == 0
        assert out.exists()
        assert "fig5" in out.read_text()

    @pytest.mark.parametrize("command", ["write-report", "all"])
    def test_failing_report_fails_the_command(self, command, tmp_path,
                                              monkeypatch):
        """A report that raises is not written up as a section: the
        exception leaves ``main`` (a non-zero exit), and write-report
        writes no file."""
        def broken():
            raise RuntimeError("model diverged")

        monkeypatch.setattr("repro.analysis.reports.REPORTS",
                            {"fig5": REPORTS["fig5"], "broken": broken})
        out = tmp_path / "broken.md"
        with pytest.raises(RuntimeError, match="model diverged"):
            main([command, "--output", str(out)])
        assert not out.exists()
