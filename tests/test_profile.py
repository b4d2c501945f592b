"""Tests for the causal cycle profiler (`repro.obs.profile`).

The profiler's contract is *conservation*: every non-busy core cycle is
classified (``busy + wait_rx + wait_credit + idle == stepped`` on every
tile), the extracted critical path partitions the profiled window
exactly, and the slack decomposition against a program's
:class:`StaticContract` sums exactly to ``observed - bound`` — under
the active engine, the reference engine, and the record/replay engine.
"""

import json

import numpy as np
import pytest

from repro.api import RunOptions
from repro.kernels.bicgstab_des import DESBiCGStab
from repro.kernels.spmv3d import SpmvEngine, run_spmv_des
from repro.obs import (
    CycleProfiler,
    ObsSession,
    STATE_NAMES,
    bottleneck_table,
    slack_table,
    top_bottleneck,
)
from repro.problems import momentum_system
from repro.problems.stencil7 import Stencil7
from repro.wse.allreduce import AllReduceEngine

RNG = np.random.default_rng(11)


def _assert_conserved(prof):
    """Every tile's states sum to the profiler's stepped clock, and the
    critical path partitions the window exactly."""
    taxonomy = prof.taxonomy()
    assert taxonomy, "profiler saw no tiles"
    for coord, states in taxonomy.items():
        assert set(states) == set(STATE_NAMES)
        assert sum(states.values()) == prof.stepped, coord
    path = prof.critical_path()
    assert sum(s["cycles"] for s in path) == prof.stepped
    fpath = prof.critical_path_fabric()
    assert sum(s["cycles"] for s in fpath) == prof.fabric.cycle - prof.cycle0


def _spmv_op(shape=(3, 3, 8)):
    op, _b, _dinv = Stencil7.from_random(
        shape, rng=np.random.default_rng(3)).jacobi_precondition()
    return op


# ----------------------------------------------------------------------
class TestConservation:
    def test_spmv_active(self):
        obs = ObsSession(profile=True)
        eng = SpmvEngine(_spmv_op(),
                         options=RunOptions(engine="active", obs=obs))
        v = 0.1 * RNG.standard_normal(eng.op.shape)
        eng.run(v)
        eng.run(v)
        _assert_conserved(obs.profiles["spmv"])

    def test_allreduce_active(self):
        eng = AllReduceEngine(5, 3, options=RunOptions(engine="active"))
        obs = ObsSession(profile=True)
        obs.observe_fabric("allreduce", eng.fabric)
        values = np.arange(15, dtype=np.float64).reshape(3, 5)
        eng.reduce(values)
        prof = obs.profiles["allreduce"]
        _assert_conserved(prof)
        # A reduce genuinely waits on upstream partials somewhere.
        assert prof.totals()["wait_rx"] > 0

    def test_reference_engine(self):
        eng = AllReduceEngine(4, 3, options=RunOptions(engine="reference"))
        obs = ObsSession(profile=True)
        obs.observe_fabric("allreduce", eng.fabric)
        eng.reduce(np.ones((3, 4)))
        _assert_conserved(obs.profiles["allreduce"])

    def test_sanitized_run_profiles_like_unsanitized(self):
        """The race sanitizer and the profiler share one stepping body:
        attaching the sanitizer must not blank the wait-state ledger."""
        op = _spmv_op((4, 4, 6))
        v = 0.1 * np.random.default_rng(5).standard_normal(op.shape)
        profs, outs = {}, {}
        for sanitize in (False, True):
            obs = ObsSession(profile=True)
            outs[sanitize] = run_spmv_des(op, v, options=RunOptions(
                sanitize=sanitize, profile=True, obs=obs))
            profs[sanitize] = obs.profiles["spmv"]
            _assert_conserved(profs[sanitize])
        assert outs[True][1] == outs[False][1]
        assert np.array_equal(outs[True][0], outs[False][0])
        assert profs[False].totals()["busy"] > 0
        assert profs[True].totals() == profs[False].totals()
        assert profs[True].taxonomy() == profs[False].taxonomy()

    def test_solver_both_fabrics(self):
        sys_ = momentum_system((6, 6, 8), reynolds=50.0, dt=0.02)
        obs = ObsSession(profile=True)
        solver = DESBiCGStab(sys_.operator, options=RunOptions(obs=obs))
        res = solver.solve(sys_.b, rtol=5e-3, maxiter=8)
        assert set(obs.profiles) == {"spmv", "allreduce"}
        for prof in obs.profiles.values():
            _assert_conserved(prof)
        # Profiling a whole solve never perturbs it.
        bare = DESBiCGStab(sys_.operator)
        bare_res = bare.solve(sys_.b, rtol=5e-3, maxiter=8)
        assert bare_res.x.tobytes() == res.x.tobytes()
        assert bare_res.residuals == res.residuals
        assert bare.report == solver.report


class TestReplayFold:
    def test_replay_taxonomy_bit_identical_to_live(self):
        op = _spmv_op()
        vs = [0.1 * np.random.default_rng(7).standard_normal(op.shape)
              for _ in range(3)]
        sessions = {}
        for engine in ("active", "replay"):
            obs = ObsSession(profile=True)
            eng = SpmvEngine(op, options=RunOptions(engine=engine, obs=obs))
            for v in vs:
                eng.run(v)
            sessions[engine] = obs
        live = sessions["active"].profiles["spmv"]
        rep = sessions["replay"].profiles["spmv"]
        _assert_conserved(rep)
        assert rep.stepped == live.stepped
        assert rep.taxonomy() == live.taxonomy()
        assert rep.totals() == live.totals()

    def test_replay_solve_conserves_and_matches(self):
        sys_ = momentum_system((6, 6, 8), reynolds=50.0, dt=0.02)
        results, profs = {}, {}
        for engine in ("active", "replay"):
            obs = ObsSession(profile=True)
            solver = DESBiCGStab(sys_.operator,
                                 options=RunOptions(engine=engine, obs=obs))
            results[engine] = solver.solve(sys_.b, rtol=5e-3, maxiter=8)
            profs[engine] = obs.profiles
        assert np.array_equal(results["active"].x, results["replay"].x)
        for name in ("spmv", "allreduce"):
            _assert_conserved(profs["replay"][name])
            assert (profs["replay"][name].taxonomy()
                    == profs["active"][name].taxonomy())

    def test_foreign_tape_fold_opaque_conserves(self):
        """A profiler attached after recording still conserves: the
        replayed window folds opaquely into each tile's frozen state."""
        op = _spmv_op()
        v = 0.1 * RNG.standard_normal(op.shape)
        # Records unprofiled.
        eng = SpmvEngine(op, options=RunOptions(engine="replay"))
        eng.run(v)
        prof = CycleProfiler("late", eng.fabric).attach()
        eng.run(v)  # replays; profiler folds opaquely
        _assert_conserved(prof)
        prof.detach()


class TestProfilerMechanics:
    def test_attach_detach_restores(self):
        eng = AllReduceEngine(4, 2, options=RunOptions(engine="active"))
        prof = CycleProfiler("ar", eng.fabric).attach()
        assert eng.fabric.profiler is prof
        eng.reduce(np.ones((2, 4)))
        prof.detach()
        assert eng.fabric.profiler is None
        assert eng.fabric.obs is None
        for row in eng.fabric.cores:
            for core in row:
                if core is not None:
                    assert core.profiler is None
        # A second reduce leaves the ledgers untouched.
        before = prof.stepped
        eng.reduce(np.ones((2, 4)))
        assert prof.stepped == before

    def test_double_attach_conflict(self):
        eng = AllReduceEngine(3, 2, options=RunOptions(engine="active"))
        CycleProfiler("a", eng.fabric).attach()
        with pytest.raises(RuntimeError, match="already"):
            CycleProfiler("b", eng.fabric).attach()

    def test_mark_windows_the_run(self):
        eng = AllReduceEngine(4, 3, options=RunOptions(engine="active"))
        obs = ObsSession(profile=True)
        obs.observe_fabric("allreduce", eng.fabric)
        prof = obs.profiles["allreduce"]
        eng.reduce(np.ones((3, 4)))
        mark = prof.mark()
        eng.reduce(np.ones((3, 4)))
        window = prof.stepped - mark.stepped
        assert window > 0
        path = prof.critical_path(mark)
        assert sum(s["cycles"] for s in path) == window
        tax = prof.taxonomy(mark)
        for states in tax.values():
            assert sum(states.values()) == window

    def test_harvest_exposes_counters(self):
        eng = AllReduceEngine(4, 2, options=RunOptions(engine="active"))
        obs = ObsSession(profile=True)
        obs.observe_fabric("allreduce", eng.fabric)
        eng.reduce(np.ones((2, 4)))
        obs.harvest()
        d = obs.metrics.as_dict()
        total = sum(d[f"allreduce.profile.{s}_cycles"]["value"]
                    for s in STATE_NAMES)
        prof = obs.profiles["allreduce"]
        assert total == prof.stepped * len(prof.taxonomy())


class TestSlackAttribution:
    @pytest.mark.parametrize("engine", ["active", "replay"])
    def test_all_programs_slack_sums_exactly(self, engine):
        """Acceptance criterion: for every verify-contracts program the
        profiled slack decomposition sums exactly to observed - bound,
        under both the active and the replay engine."""
        from repro.wse.analyze.verify_contracts import verify_contracts

        checks = verify_contracts(engine, profile=True)
        assert len(checks) == 9
        for c in checks:
            assert c.slack_breakdown, c.program
            assert c.slack_breakdown_ok, c.program
            assert sum(v for _k, v in c.slack_breakdown) == c.slack
            assert c.ok, c.summary()

    def test_breakdown_excluded_from_key(self):
        from repro.wse.analyze.verify_contracts import ContractCheck

        kw = dict(program="p", engine="active", runs=1, expected_words=0,
                  observed_words=0, metrics_words=0, router_mismatches=(),
                  cycle_lower_bound=3, observed_cycles=5, cdg_clean=True)
        plain = ContractCheck(**kw)
        profiled = ContractCheck(
            **kw, slack_breakdown=(("compute_overhang", 2),))
        assert plain.key() == profiled.key()
        assert profiled.slack_breakdown_ok
        bad = ContractCheck(**kw, slack_breakdown=(("idle", 1),))
        assert not bad.slack_breakdown_ok and not bad.ok


class TestReportsAndExports:
    @pytest.fixture(scope="class")
    def profiled_solve(self):
        sys_ = momentum_system((6, 6, 8), reynolds=50.0, dt=0.02)
        obs = ObsSession(profile=True)
        solver = DESBiCGStab(sys_.operator, options=RunOptions(obs=obs))
        result = solver.solve(sys_.b, rtol=5e-3, maxiter=8)
        obs.harvest()
        return obs, solver, result

    def test_top_bottleneck_names_cause(self, profiled_solve):
        obs, _, _ = profiled_solve
        bn = top_bottleneck(obs)
        assert bn is not None
        assert bn["state"] not in ("busy", "idle_skipped")
        assert bn["fabric"] in ("spmv", "allreduce")
        assert bn["phase"] in ("spmv", "allreduce", "axpy", "dot_local")
        assert bn["cycles"] > 0 and 0 < bn["share"] <= 1

    def test_bottleneck_table_accounts_all_path_cycles(self, profiled_solve):
        obs, solver, _ = profiled_solve
        table = bottleneck_table(obs)
        # Both fabrics tick through every timeline cycle, so the path
        # total is fabrics x timeline.
        expect = len(obs.profiles) * solver.report.total_cycles
        assert f"total{'':<0}" in table and str(expect) in table
        assert "100.0%" in table

    def test_slack_table_sums(self, profiled_solve):
        obs, solver, _ = profiled_solve
        from repro.obs.cli import _contract_bounds

        bounds = _contract_bounds(obs, solver)
        assert set(bounds) == {"spmv", "allreduce"}
        text = slack_table(obs, bounds)
        for name, (bound, observed) in bounds.items():
            assert f"{name}: observed {observed} cycles vs bound {bound}" in text
            comp = obs.profiles[name].slack_attribution(
                bound, observed=observed)
            assert sum(comp.values()) == observed - bound

    def test_flamegraph_collapsed_stack_format(self, profiled_solve, tmp_path):
        obs, solver, _ = profiled_solve
        path = obs.write_flamegraph(tmp_path / "flame.txt")
        lines = path.read_text().splitlines()
        assert lines
        total = 0
        for line in lines:
            stack, n = line.rsplit(" ", 1)
            total += int(n)
            frames = stack.split(";")
            assert 2 <= len(frames) <= 4
            assert frames[-1] in STATE_NAMES + ("idle_skipped",)
        # Stacks cover every profiled tile-cycle plus skipped spans.
        expect = sum(
            prof.stepped * len(prof.taxonomy())
            + (prof.fabric.cycle - prof.cycle0 - prof.stepped)
            for prof in obs.profiles.values()
        )
        assert total == expect

    def test_chrome_trace_critical_path_tracks(self, profiled_solve,
                                               tmp_path):
        obs, solver, _ = profiled_solve
        path = obs.write_chrome_trace(tmp_path / "p.json")
        data = json.loads(path.read_text())
        events = data["traceEvents"]
        cp = [e for e in events if e.get("cat") == "critical_path"]
        assert cp
        # Per fabric, the highlight track durations sum to the timeline.
        tid_name = {e["tid"]: e["args"]["name"] for e in events
                    if e["ph"] == "M" and e["name"] == "thread_name"}
        per_track: dict[str, int] = {}
        for e in cp:
            track = tid_name[e["tid"]]
            per_track[track] = per_track.get(track, 0) + e["dur"]
        for track, dur in per_track.items():
            assert track.startswith("critical-path:")
            assert dur == solver.report.total_cycles
        # Harvested metric counter tracks rode along (satellite 4).
        names = {e["name"] for e in events if e["ph"] == "C"}
        assert any(n.endswith("router_words_moved") for n in names)

    def test_profile_cli_no_files(self, capsys):
        from repro.obs.cli import profile_main

        rc = profile_main(["--shape", "6", "6", "8", "--maxiter", "4",
                           "--no-files"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "top bottleneck:" in out
        assert "critical-path bottlenecks" in out
        assert "slack attribution" in out

    def test_unprofiled_session_renders_hint(self):
        obs = ObsSession()
        assert "profile=True" in bottleneck_table(obs)
        assert top_bottleneck(obs) is None
