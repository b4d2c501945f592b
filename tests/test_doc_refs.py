"""Every benchmark script, make target and CLI subcommand the docs name
exists: a deletion PR has to take the prose with it.

Scanned: ``README.md``, ``docs/*.md``, the ``Makefile`` and the CI
workflow.  Not scanned: ``benchmarks/perf/`` (owned by the benchmark),
``CHANGES.md`` and ``ROADMAP.md`` (history names things that are gone).
"""

import re
from pathlib import Path

import pytest

from repro import cli

ROOT = Path(__file__).resolve().parent.parent
DOCS = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md")),
        ROOT / "Makefile", ROOT / ".github" / "workflows" / "ci.yml"]
TARGETS = set(re.findall(r"^([a-z][\w-]*):", (ROOT / "Makefile").read_text(),
                         re.MULTILINE))
COMMANDS = {*cli.SUBCOMMANDS, *cli.REPORTS, *cli._BUILTINS}


@pytest.mark.parametrize("doc", DOCS, ids=lambda p: p.name)
def test_named_scripts_targets_and_subcommands_exist(doc):
    text = doc.read_text()
    scripts = set(re.findall(r"\bbenchmarks/[\w/]+\.py\b", text))
    # A target is `make X` in backticks, at the start of a code line,
    # or a CI `run:` step -- not the English verb.
    targets = set(re.findall(r"(?:`|^|run: )make ([a-z][\w-]*)", text,
                             re.MULTILINE))
    commands = set(re.findall(r"python3? -m repro ([a-z][\w-]*)", text))
    missing = ([s for s in sorted(scripts) if not (ROOT / s).is_file()]
               + [f"make {t}" for t in sorted(targets - TARGETS)]
               + [f"python -m repro {c}" for c in sorted(commands - COMMANDS)])
    assert not missing, f"{doc.name} names things that do not exist: {missing}"
