"""Every benchmark script, source or test file, test node, make target and
CLI subcommand the docs name exists: a deletion PR has to take the prose
with it.

Scanned: ``README.md``, ``DESIGN.md``, ``EXPERIMENTS.md``,
``docs/*.md``, the ``Makefile``, the CI workflow, the verify skill and
every ``src/**/*.py``.  Not scanned: ``benchmarks/perf/`` (owned by the
benchmark), ``CHANGES.md`` and ``ROADMAP.md`` (history names things that
are gone).
"""

import re
from pathlib import Path

import pytest

from repro import cli

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DOCS = [ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md",
        *sorted((ROOT / "docs").glob("*.md")),
        ROOT / "Makefile", ROOT / ".github" / "workflows" / "ci.yml",
        ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
        *sorted(SRC.rglob("*.py"))]
TARGETS = set(re.findall(r"^([a-z][\w-]*):", (ROOT / "Makefile").read_text(),
                         re.MULTILINE))
COMMANDS = {*cli.SUBCOMMANDS, *cli.REPORTS, *cli._BUILTINS}


def _defines(path: Path, name: str) -> bool:
    """``path`` has a ``def`` or ``class`` called ``name``."""
    pattern = rf"^\s*(?:def|class) {re.escape(name)}\b"
    return re.search(pattern, path.read_text(), re.MULTILINE) is not None


def _missing_nodes(text: str) -> list[str]:
    """``tests/<file>.py::A::b`` references whose file lacks ``A`` or ``b``
    (a parametrize id such as ``[fig9]`` is not part of the name)."""
    missing = []
    for ref in sorted(set(re.findall(r"\btests/[\w/]+\.py(?:::\w+)+", text))):
        path, *names = ref.split("::")
        if (ROOT / path).is_file() and not all(
                _defines(ROOT / path, n) for n in names):
            missing.append(ref)
    return missing


@pytest.mark.parametrize(
    "doc", DOCS,
    ids=lambda p: str(p.relative_to(SRC)) if SRC in p.parents else p.name)
def test_named_scripts_targets_and_subcommands_exist(doc):
    text = doc.read_text()
    scripts = set(re.findall(r"\bbenchmarks/[\w/]+\.py\b", text))
    # A bare ``bench_<name>`` names ``benchmarks/bench_<name>.py``
    # (``.bench_out/`` is the output directory, not a script).
    scripts |= {f"benchmarks/{b}.py"
                for b in re.findall(r"(?<![\w./])bench_\w+", text)}
    # Package paths are written relative to ``src/``.
    sources = {f"src/{p}" for p in re.findall(r"\brepro/[\w/]+\.py\b", text)}
    tests = set(re.findall(r"\btests/[\w/]+\.py\b", text))
    # A target is `make X` in backticks, at the start of a code line,
    # or a CI `run:` step -- not the English verb.
    targets = set(re.findall(r"(?:`|^|run: )make ([a-z][\w-]*)", text,
                             re.MULTILINE))
    commands = set(re.findall(r"python3? -m repro ([a-z][\w-]*)", text))
    missing = ([s for s in sorted(scripts | sources | tests)
                if not (ROOT / s).is_file()]
               + _missing_nodes(text)
               + [f"make {t}" for t in sorted(targets - TARGETS)]
               + [f"python -m repro {c}" for c in sorted(commands - COMMANDS)])
    assert not missing, f"{doc.name} names things that do not exist: {missing}"
