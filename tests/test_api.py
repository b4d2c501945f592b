"""Tests for :mod:`repro.api` — RunOptions, Session, the CLI fragment.

Three contracts live here: the :class:`RunOptions` value object rejects
every inconsistent combination at construction (so runners never have
to re-validate), every runner takes its execution options as one
``options=RunOptions(...)`` argument and nothing else (the PR-10 keyword
shims are gone), and the shared CLI fragment spells
``--engine``/``--workers``/``--json`` identically for every subcommand.
"""

import argparse

import numpy as np
import pytest

from repro.api import (
    ENGINES,
    AllReduce,
    Axpy,
    Dot,
    RunOptions,
    Session,
    Spmv3D,
    add_engine_arguments,
    options_from_args,
)


class TestRunOptions:
    def test_defaults(self):
        opts = RunOptions()
        assert (opts.engine, opts.workers) == ("active", 1)
        assert not opts.sanitize and not opts.analyze and not opts.profile
        assert opts.obs is None

    def test_engine_must_be_known(self):
        assert ENGINES == ("reference", "active", "replay", "sharded")
        with pytest.raises(ValueError, match="engine"):
            RunOptions(engine="turbo")

    @pytest.mark.parametrize("workers", [0, -1, 1.5, "2"])
    def test_workers_must_be_positive_int(self, workers):
        with pytest.raises(ValueError, match="workers"):
            RunOptions(engine="sharded", workers=workers)

    def test_workers_above_one_require_sharded(self):
        with pytest.raises(ValueError, match="requires engine='sharded'"):
            RunOptions(engine="active", workers=2)
        assert RunOptions(engine="sharded", workers=4).workers == 4

    def test_sharded_rejects_sanitize_and_profile(self):
        with pytest.raises(ValueError, match="sanitize"):
            RunOptions(engine="sharded", sanitize=True)
        with pytest.raises(ValueError, match="profile"):
            RunOptions(engine="sharded", profile=True, obs=object())

    def test_profile_requires_obs(self):
        with pytest.raises(ValueError, match="obs"):
            RunOptions(profile=True)
        assert RunOptions(profile=True, obs=object()).profile

    def test_frozen(self):
        with pytest.raises(AttributeError):
            RunOptions().engine = "replay"

    def test_replace_revalidates(self):
        opts = RunOptions(engine="sharded", workers=4)
        assert opts.replace(workers=2) == RunOptions(engine="sharded",
                                                     workers=2)
        assert opts.workers == 4  # original untouched
        with pytest.raises(ValueError):
            opts.replace(engine="active")  # workers=4 now inconsistent

    def test_detached_drops_obs_and_profile_together(self):
        opts = RunOptions(engine="replay", obs=object(), profile=True,
                          analyze=True)
        assert opts.detached() == RunOptions(engine="replay", analyze=True)
        assert opts.detached(analyze=False) == RunOptions(engine="replay")
        assert opts.profile  # original untouched

    def test_bicgstab_runs_with_profile_option(self):
        """``RunOptions(obs=o, profile=True)`` used to raise from the
        solver's unobserved inner runs (``replace(obs=None)`` kept
        ``profile=True``); it must solve, bit-identically to the
        ``ObsSession(profile=True)`` spelling."""
        from repro.kernels.bicgstab_des import DESBiCGStab
        from repro.obs import ObsSession
        from repro.problems import momentum_system

        system = momentum_system((3, 3, 4), reynolds=50.0, dt=0.02)
        results = []
        for options in (
            RunOptions(obs=ObsSession(profile=True), profile=True),
            RunOptions(obs=ObsSession(profile=True)),
        ):
            solver = DESBiCGStab(system.operator, options=options)
            try:
                res = solver.solve(system.b, rtol=5e-3, maxiter=25)
            finally:
                solver.close()
            results.append((res.x.tobytes(), list(res.residuals),
                            res.iterations, solver.report))
        assert results[0] == results[1]


def _tiny_operator():
    from repro.problems import momentum_system

    return momentum_system((2, 2, 4), reynolds=50.0, dt=0.02).operator


class TestCoerceOptions:
    """What a runner does with its ``options`` argument."""

    def test_no_arguments_yields_defaults(self):
        from repro.kernels.bicgstab_des import DESBiCGStab

        assert DESBiCGStab(_tiny_operator()).options == RunOptions()

    def test_options_passed_through_unchanged(self):
        from repro.kernels.bicgstab_des import DESBiCGStab

        opts = RunOptions(engine="replay")
        assert DESBiCGStab(_tiny_operator(), options=opts).options is opts

    def test_options_type_checked(self):
        from repro.kernels import run_dot_des

        with pytest.raises(TypeError, match="run_dot_des.*RunOptions"):
            run_dot_des(np.ones(4), np.ones(4), options={"engine": "active"})


class TestRunnerShims:
    """The pre-PR-10 keyword spellings are gone: an ``engine=`` keyword
    is a plain ``TypeError``, never a warning and never a silent run."""

    def test_run_spmv_des_engine_kwarg(self):
        from repro.kernels import run_spmv_des

        op = _tiny_operator()
        with pytest.raises(TypeError, match="engine"):
            run_spmv_des(op, np.ones(op.shape), engine="active")

    def test_allreduce_engine_kwarg(self):
        from repro.wse.allreduce import AllReduceEngine

        with pytest.raises(TypeError, match="engine"):
            AllReduceEngine(2, 2, engine="active")

    def test_bicgstab_engine_kwarg(self):
        from repro.kernels.bicgstab_des import DESBiCGStab

        with pytest.raises(TypeError, match="engine"):
            DESBiCGStab(_tiny_operator(), engine="active")


class TestSession:
    def test_default_options(self):
        assert Session().options == RunOptions()
        with pytest.raises(TypeError):
            Session(options={"engine": "active"})

    def test_run_rejects_non_options_override(self):
        with pytest.raises(TypeError):
            Session().run(Axpy(1.0, np.ones(4), np.ones(4)),
                          options="active")

    def test_facade_matches_direct_runners(self):
        from repro.kernels import run_dot_des
        from repro.problems import Stencil7

        x = np.random.default_rng(1).random(9).astype(np.float16)
        y = np.random.default_rng(2).random(9).astype(np.float16)
        session = Session()
        d_facade, c_facade = session.run(Dot(x, y))
        d_direct, c_direct = run_dot_des(x, y, options=RunOptions())
        assert (d_facade, c_facade) == (d_direct, c_direct)

        op, _, _ = Stencil7.from_random(
            (2, 2, 4), rng=np.random.default_rng(3)).jacobi_precondition()
        v = 0.1 * np.random.default_rng(4).standard_normal(op.shape)
        u_act, c_act = session.run(Spmv3D(op, v))
        u_sh, c_sh = session.run(
            Spmv3D(op, v), options=RunOptions(engine="sharded", workers=2))
        assert c_sh == c_act
        np.testing.assert_array_equal(u_sh, u_act)

    def test_session_pins_engine_across_programs(self):
        session = Session(RunOptions(engine="sharded", workers=2))
        vals = np.arange(6, dtype=np.float64).reshape(2, 3)
        total, cycles = session.run(AllReduce(vals))
        assert total == pytest.approx(vals.sum())
        assert cycles > 0


class TestCliFragment:
    def _parser(self, **kw):
        parser = argparse.ArgumentParser()
        add_engine_arguments(parser, **kw)
        return parser

    def test_engine_and_workers_spelling(self):
        args = self._parser().parse_args(
            ["--engine", "sharded", "--workers", "4"])
        opts = options_from_args(args)
        assert opts == RunOptions(engine="sharded", workers=4)

    def test_workers_ignored_without_sharded(self):
        args = self._parser().parse_args(["--engine", "active",
                                          "--workers", "4"])
        assert options_from_args(args) == RunOptions()

    def test_unknown_engine_rejected_at_parse_time(self):
        with pytest.raises(SystemExit):
            self._parser().parse_args(["--engine", "turbo"])

    def test_extra_choices(self):
        parser = self._parser(extra_choices=("both", "all"))
        assert parser.parse_args(["--engine", "all"]).engine == "all"

    def test_json_flag_opt_in(self):
        parser = self._parser(json_flag=True)
        assert parser.parse_args(["--json"]).json is True
        with pytest.raises(SystemExit):
            self._parser().parse_args(["--json"])

    def test_engine_and_workers_opt_out(self):
        parser = self._parser(engine=False, workers=False, json_flag=True)
        args = parser.parse_args(["--json"])
        assert not hasattr(args, "engine") and not hasattr(args, "workers")
        # options_from_args degrades to defaults for such subcommands.
        assert options_from_args(args) == RunOptions()

    def test_overrides(self):
        args = self._parser().parse_args(["--engine", "replay"])
        opts = options_from_args(args, analyze=True)
        assert opts == RunOptions(engine="replay", analyze=True)
