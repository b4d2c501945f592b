"""Tests for :mod:`repro.wse.engines` and the shipped-program table.

* the capability table is the behaviour: wherever a row says an engine
  cannot carry an instrument, ``RunOptions`` raises and the instrument's
  CLI exits 2; wherever it says it can, both run;
* one per-tile ``tile_done`` answer yields a whole-fabric predicate and
  rect-local shard predicates that agree;
* a fabric cannot be labelled with an engine it does not step on;
* every row of the shipped table reaches the gates that claim it, under
  the names and counts the gates have always reported;
* nothing outside ``wse/engines.py`` and ``Fabric`` compares an
  engine-name literal (a source scan).
"""

import ast
import functools
import itertools
from pathlib import Path

import pytest

import repro
from repro.api import RunOptions
from repro.obs import ObsSession
from repro.wse import Fabric
from repro.wse.engines import (
    ENGINE_TABLE,
    ENGINES,
    fabric_until,
    shard_until_factory,
    stepper,
    supporting,
    unsupported,
)
from repro.wse.shard import plan_shards


# ----------------------------------------------------------------------
# Capability table <=> behaviour
# ----------------------------------------------------------------------
#: ``certify-numerics``' fp64 shadow evaluation of each run's tape needs
#: the whole fabric in-process, like the profiler: it rides that column.
_COLUMN = {"sanitize": "sanitize", "profile": "profile", "shadow": "profile"}


def _cli(instrument):
    if instrument == "sanitize":
        from repro.wse.analyze.sanitize import sanitize_main

        return sanitize_main, []
    if instrument == "shadow":
        from repro.wse.analyze.certify import certify_main

        return certify_main, []
    from repro.obs.cli import profile_main

    return profile_main, ["--shape", "3", "3", "4", "--maxiter", "2",
                          "--no-files"]


class TestCapabilityTable:
    def test_table_covers_every_engine(self):
        assert tuple(ENGINE_TABLE) == ENGINES
        assert {stepper(e) for e in ENGINES} == {"active", "reference"}
        assert stepper("reference") == "reference"

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("instrument", ["sanitize", "profile"])
    def test_run_options_raise_exactly_where_unsupported(
            self, engine, instrument):
        fields = {"engine": engine, instrument: True, "obs": ObsSession()}
        if getattr(ENGINE_TABLE[engine], instrument):
            assert getattr(RunOptions(**fields), instrument)
        else:
            with pytest.raises(ValueError, match=instrument):
                RunOptions(**fields)

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("instrument",
                             ["sanitize", "profile", "shadow"])
    def test_cli_exits_2_exactly_where_unsupported(
            self, engine, instrument, capsys):
        main, extra = _cli(instrument)
        status = main(["--engine", engine] + extra)
        out = capsys.readouterr().out
        column = _COLUMN[instrument]
        if getattr(ENGINE_TABLE[engine], column):
            assert status == 0, out
        else:
            assert status == 2
            assert unsupported(engine, column) in out

    def test_one_message_names_the_alternatives(self):
        assert unsupported("active", "sanitize") is None
        why = unsupported("sharded", "profile")
        for engine in supporting("profile"):
            assert repr(engine) in why
        assert "'sharded'" in why and "profile" in why

    def test_only_forking_engines_take_workers(self):
        for engine in ENGINES:
            if ENGINE_TABLE[engine].forks:
                assert RunOptions(engine=engine, workers=2).workers == 2
            else:
                with pytest.raises(ValueError, match="workers"):
                    RunOptions(engine=engine, workers=2)


# ----------------------------------------------------------------------
# tile_done -> whole-fabric and rect-local predicates
# ----------------------------------------------------------------------
class TestCompletionPredicates:
    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_rect_local_predicates_agree_with_global(self, axis):
        fabric = Fabric(4, 2)          # no cores, no words: quiescent
        tiles = [(x, y) for y in range(2) for x in range(4)]
        rects = plan_shards(4, 2, 2, axis=axis)
        assert len(rects) == 2
        done = set()
        whole = fabric_until(fabric, lambda x, y: (x, y) in done)
        local = [shard_until_factory(lambda x, y: (x, y) in done)(rect)
                 for rect in rects]
        for k in range(len(tiles) + 1):
            for subset in itertools.islice(
                    itertools.combinations(tiles, k), 12):
                done.clear()
                done.update(subset)
                assert whole(fabric) == all(p(fabric) for p in local)
                for rect, p in zip(rects, local):
                    mine = {t for t in tiles if rect.contains(*t)}
                    assert p(fabric) == (mine <= done)
        assert whole(fabric)           # every tile done

    def test_predicates_require_a_drained_fabric(self):
        fabric = Fabric(2, 1)
        fabric.quiescent = lambda: False
        assert not fabric_until(fabric, lambda x, y: True)(fabric)


# ----------------------------------------------------------------------
# A mislabelled run is not possible
# ----------------------------------------------------------------------
class TestFabricEngineLabel:
    @pytest.mark.parametrize("name", ["replay", "sharded", "turbo"])
    def test_orchestration_names_rejected(self, name):
        fabric = Fabric(1, 1)
        with pytest.raises(ValueError, match="Fabric.engine"):
            fabric.engine = name
        assert fabric.engine == "active"

    def test_steppers_accepted(self):
        fabric = Fabric(1, 1)
        for name in ("reference", "active"):
            fabric.engine = name
            assert fabric.engine == name

    def test_replay_certification_really_records(self, monkeypatch):
        """``certify_all(engine="replay")`` used to set
        ``fabric.engine = "replay"`` on six programs and step them on
        the active engine without a replay session; now every program
        goes through the replay orchestration, and the session's own
        schedule is the observation: no run falls back live, a one-shot
        program's one run is recorded, and a persistent program's runs
        after its recording replay."""
        from repro.wse.analyze.certify import certify_all
        from repro.wse.replay import ReplaySession

        sessions = []
        init = ReplaySession.__init__

        def watched(self, *args, **kwargs):
            sessions.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ReplaySession, "__init__", watched)
        checks = certify_all(engine="replay")
        assert all(c.ok for c in checks)
        assert len(sessions) == len(checks)
        persistent = {"spmv3d-3x3x6", "spmv3d-1x1x8", "allreduce-6x4"}
        for check, session in zip(checks, sessions):
            assert session.fabric.engine == "active"
            assert session.fallbacks == 0, session.diagnostics
            assert session.records == 1
            assert (session.replays > 0) == (check.name in persistent)


# ----------------------------------------------------------------------
# The shipped table feeds all four gates
# ----------------------------------------------------------------------
_SEVEN = ["spmv3d-3x3x6", "spmv3d-two-sum-tasks", "spmv3d-1x1x8",
          "spmv2d-6x6-b3x3", "axpy-32", "dot-32", "allreduce-6x4"]


class TestShippedTable:
    def test_every_row_names_its_gates(self):
        from repro.wse.analyze.shipped import SHIPPED, shipped

        gates = ("lint", "verify", "certify", "sanitize")
        assert len({p.name for p in SHIPPED}) == len(SHIPPED) == 10
        for program in SHIPPED:
            assert program.gates and set(program.gates) <= set(gates)
            assert (program.build is not None) or "lint" not in program.gates
        assert [len(shipped(g)) for g in gates] == [7, 8, 9, 8]

    def test_gates_report_todays_names_and_counts(self):
        from repro.wse.analyze.certify import certify_all
        from repro.wse.analyze.lint import lint_reports
        from repro.wse.analyze.sanitize import sanitize_all
        from repro.wse.analyze.verify_contracts import verify_contracts

        assert [name for name, _ in lint_reports()] == _SEVEN
        verify = [c.program for c in verify_contracts("active")]
        assert verify == [
            "spmv3d-3x3x6", "spmv3d-3x3x6-two-sum", "spmv3d-1x1x8",
            "spmv2d-6x6-b3x3", "axpy-32", "dot-32", "allreduce-6x4",
            "bicgstab[1it]-spmv", "bicgstab[1it]-allreduce",
        ]
        assert [c.name for c in certify_all()] == _SEVEN + [
            "mfix-fig9-scaled", "mfix-fig9-unscaled"]
        assert [c.program for c in sanitize_all()] == _SEVEN + [
            "bicgstab[1it]"]


# ----------------------------------------------------------------------
# Source scans: engine names are interpreted, and the collector is
# touched, in one place each
# ----------------------------------------------------------------------
SRC = Path(repro.__file__).parent
ENGINES_PY = SRC / "wse" / "engines.py"


@functools.lru_cache(maxsize=None)
def _source_trees() -> tuple:
    """``(path, parsed module)`` for every file of the package."""
    return tuple((path, ast.parse(path.read_text()))
                 for path in sorted(SRC.rglob("*.py")))


def _engine_comparisons(tree):
    """Every ``==`` / ``!=`` / ``in`` whose operands mention an
    engine-name literal."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare) and any(
                isinstance(sub, ast.Constant) and sub.value in ENGINES
                for side in [node.left, *node.comparators]
                for sub in ast.walk(side)):
            yield node


def test_no_engine_name_comparison_outside_engines_module():
    """A comparison against an engine-name literal is how back-end
    knowledge leaks into a kernel, gate or CLI.  Allowed: the engines
    module itself, and in ``fabric.py`` the validated ``Fabric.engine``
    property plus ``Fabric.step``'s two-way stepper switch.  The CLIs'
    ``both`` / ``all`` aggregates are not engine names and expand to
    tuples."""
    offenders = []
    for path, tree in _source_trees():
        if path == ENGINES_PY:
            continue
        allowed = set()
        if path == SRC / "wse" / "fabric.py":
            for fn in ast.walk(tree):
                if isinstance(fn, ast.FunctionDef) \
                        and fn.name in ("engine", "step"):
                    allowed.update(_engine_comparisons(fn))
        offenders += [
            f"{path.relative_to(SRC)}:{node.lineno}: {ast.unparse(node)}"
            for node in _engine_comparisons(tree) if node not in allowed
        ]
    assert not offenders, "\n".join(offenders)


def test_only_collector_paused_touches_the_collector():
    """``gc.disable`` / ``enable`` / ``freeze`` / ``set_threshold`` /
    ``collect`` anywhere else would fight the one pause that set-up
    relies on (and that restores what it found).  Stronger than a list
    of names: only the engines module imports ``gc``, and there every
    ``gc.<name>`` sits inside ``_CollectorPaused``."""
    for path, tree in _source_trees():
        imports = [
            node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            and any(alias.name == "gc" for alias in node.names)
            or isinstance(node, ast.ImportFrom) and node.module == "gc"
        ]
        if path != ENGINES_PY:
            assert not imports, f"{path.relative_to(SRC)}:{imports[0]}"
            continue
        assert len(imports) == 1
        (pause,) = [node for node in tree.body if isinstance(node, ast.ClassDef)
                    and node.name == "_CollectorPaused"]
        inside = {id(node) for node in ast.walk(pause)}
        uses = [node for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name) and node.value.id == "gc"]
        assert {node.attr for node in uses} == {
            "isenabled", "disable", "enable"}
        outside = [node.lineno for node in uses if id(node) not in inside]
        assert not outside, f"wse/engines.py:{outside}"
