"""Smoke tests for the ``python -m repro lint`` CLI path."""

import json

from repro.cli import main
from repro.wse.analyze.lint import (
    lint_json_lines,
    lint_report_text,
    lint_reports,
)

#: The stable machine-readable schema: every --json line has exactly
#: these keys (documented in docs/static_analysis.md).
JSON_KEYS = {"schema_version", "severity", "pass", "kind", "message",
             "where", "channel", "hint", "data", "program"}


class TestLintCli:
    def test_lint_exit_code_zero(self, capsys):
        assert main(["lint"]) == 0
        out = capsys.readouterr().out
        assert "LINT OK" in out
        assert "clean (0 diagnostics)" in out

    def test_every_shipped_program_listed(self, capsys):
        main(["lint"])
        out = capsys.readouterr().out
        for name in ("spmv3d-3x3x6", "spmv3d-two-sum-tasks", "spmv3d-1x1x8",
                     "spmv2d-6x6-b3x3", "axpy-32", "dot-32", "allreduce-6x4"):
            assert name in out

    def test_lint_reports_all_clean(self):
        reports = lint_reports()
        assert len(reports) == 7
        for name, report in reports:
            assert report.ok, f"{name}:\n{report.format()}"

    def test_report_registry_entry(self):
        from repro.analysis.reporting import render
        from repro.analysis.reports import REPORTS

        assert "lint" in REPORTS
        assert "LINT OK" in render(REPORTS["lint"]())

    def test_listed_in_help(self, capsys):
        main(["list"])
        assert "lint" in capsys.readouterr().out

    def test_text_and_cli_agree(self):
        assert lint_report_text().endswith("LINT OK")


class TestLintJson:
    def test_clean_programs_emit_nothing(self, capsys):
        """--json prints one object per *diagnostic*; a clean tree
        prints nothing and exits 0."""
        assert main(["lint", "--json"]) == 0
        assert capsys.readouterr().out == ""

    def test_json_lines_schema_and_exit(self, monkeypatch, capsys):
        """A seeded defect yields valid JSON lines with the stable
        schema and a non-zero exit."""
        import numpy as np

        import repro.wse.analyze.lint as lint_mod
        from repro.wse import CS1, Core, Fabric, Port

        f = Fabric(3, 1)
        for x in range(3):
            f.attach_core(x, 0, Core(x, 0, CS1))
        f.router(0, 0).set_route(0, Port.CORE, (Port.EAST,))  # dead-end
        f.router(1, 0).set_route(7, Port.EAST, (Port.EAST,))  # credit ring
        f.router(2, 0).set_route(7, Port.WEST, (Port.WEST,))
        monkeypatch.setattr(lint_mod, "shipped_programs",
                            lambda: [("broken", f)])
        assert lint_mod.lint_main(["--json"]) == 1
        lines = capsys.readouterr().out.strip().splitlines()
        objs = [json.loads(line) for line in lines]
        assert objs
        from repro.wse.analyze.diagnostics import SCHEMA_VERSION

        for obj in objs:
            assert set(obj) == JSON_KEYS
            assert obj["schema_version"] == SCHEMA_VERSION == 1
            assert obj["program"] == "broken"
            assert obj["severity"] in ("error", "warning", "info")
        kinds = {o["kind"] for o in objs}
        assert {"dead-end", "credit-cycle"} <= kinds
        # The cdg finding's data field carries the JSON-able cycle.
        (cdg,) = [o for o in objs if o["kind"] == "credit-cycle"]
        assert isinstance(cdg["data"], list) and len(cdg["data"]) == 2

    def test_helper_matches_cli(self):
        lines, any_error = lint_json_lines()
        assert lines == [] and not any_error
