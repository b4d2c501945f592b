"""Unified run-session API: one options object for every kernel runner.

Every DES entry point in this repo answers two separate questions:
*what* to execute (an operator, a vector, a block shape — the program)
and *how* to execute it (which stepping engine, how many shard workers,
whether to race-sanitize, observe, or profile).  Historically the
"how" leaked into each runner as an ad-hoc kwarg set (``engine=``,
``analyze=``, ``obs=``) that drifted between entry points; with the
sharded engine adding ``workers=`` the drift would have doubled.

:class:`RunOptions` freezes the "how" into a single validated value
object, and :class:`Session` provides the one-call facade::

    from repro.api import RunOptions, Session, Spmv3D

    opts = RunOptions(engine="sharded", workers=4)
    u, cycles = Session(opts).run(Spmv3D(op, v))

All shipped runners (``run_spmv_des``, ``run_spmv2d_des``,
``run_axpy_des``, ``run_dot_des``, :class:`~repro.kernels.spmv3d.SpmvEngine`,
:class:`~repro.wse.allreduce.AllReduceEngine`,
:class:`~repro.kernels.bicgstab_des.DESBiCGStab`) consume
:class:`RunOptions` and nothing else: ``options=None`` means the
defaults, any other type is a ``TypeError``.  What each engine name
means — which stepper it runs on, which instruments it can carry — is
data in :mod:`repro.wse.engines` (see ``docs/architecture.md``,
"Engines"); :class:`RunOptions` validates against that table.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any

from .wse.engines import (
    ENGINE_TABLE,
    ENGINES,
    resolve_options,
    supporting,
    unsupported,
)

__all__ = [
    "ENGINES",
    "RunOptions",
    "Session",
    "Spmv3D",
    "Spmv2D",
    "Axpy",
    "Dot",
    "AllReduce",
    "add_engine_arguments",
    "options_from_args",
]


@dataclass(frozen=True)
class RunOptions:
    """How to execute a kernel program (immutable, validated).

    Parameters
    ----------
    engine:
        One of :data:`ENGINES`.  ``"sharded"`` partitions the fabric
        into contiguous rectangles and steps each in its own process
        (:mod:`repro.wse.shard`); results are bit-identical to
        ``"active"``.
    sanitize:
        Attach the runtime race sanitizer for the run; rejected for the
        engines whose :data:`~repro.wse.engines.ENGINE_TABLE` row says
        they cannot carry it (run the sanitized pass under
        ``engine="active"`` — every engine is bit-identical to it).
    analyze:
        Statically verify the tile program at build time
        (:func:`repro.wse.analyze.analyze_program`) instead of only
        computing its contract.
    obs:
        Optional :class:`repro.obs.ObsSession` receiving fabric
        observers and kernel trace spans.
    profile:
        Attach the cycle profiler (requires ``obs``); rejected per the
        engine table, like ``sanitize``.
    workers:
        Shard-worker process count; only meaningful (and only legal
        above 1) with ``engine="sharded"``.  Clamped to the fabric's
        splittable extent at run time.
    """

    engine: str = "active"
    sanitize: bool = False
    analyze: bool = False
    obs: Any = None
    profile: bool = False
    workers: int = 1

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ValueError(
                f"engine must be one of {ENGINES}, got {self.engine!r}"
            )
        if not isinstance(self.workers, int) or self.workers < 1:
            raise ValueError(f"workers must be a positive int, got "
                             f"{self.workers!r}")
        for instrument in ("sanitize", "profile"):
            if getattr(self, instrument):
                why = unsupported(self.engine, instrument)
                if why:
                    raise ValueError(why)
        if self.workers != 1 and not ENGINE_TABLE[self.engine].forks:
            raise ValueError(
                f"workers={self.workers} requires engine="
                f"{' or '.join(repr(e) for e in supporting('forks'))} "
                f"(got engine={self.engine!r})"
            )
        if self.profile and self.obs is None:
            raise ValueError("profile=True requires an obs session")

    def replace(self, **changes) -> "RunOptions":
        """A copy with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)

    def detached(self, **changes) -> "RunOptions":
        """A copy for an unobserved inner run: no ``obs`` session, and so
        no ``profile`` either (it requires one), plus ``changes``."""
        return self.replace(obs=None, profile=False, **changes)


# ----------------------------------------------------------------------
# Shared CLI fragment — one spelling of --engine/--workers/--json for
# every ``python -m repro`` subcommand that runs fabric programs.
# ----------------------------------------------------------------------
def add_engine_arguments(parser, *, default: str = "active",
                         extra_choices: tuple = (),
                         engine: bool = True,
                         workers: bool = True,
                         json_flag: bool = False) -> None:
    """Install the standard execution flags on an argparse parser.

    ``--engine`` offers the four engines (plus any subcommand
    aggregates like ``both``/``all`` via ``extra_choices``),
    ``--workers N`` selects the shard process count, and ``--json``
    (opt-in per subcommand) requests machine-readable output.  Flag
    spellings are frozen here so every subcommand stays consistent;
    subcommands that cannot execute a particular engine reject it after
    parsing with an explanation rather than hiding the choice.
    """
    if engine:
        parser.add_argument(
            "--engine", choices=ENGINES + tuple(extra_choices),
            default=default,
            help=f"fabric stepping engine (default: {default})",
        )
    if workers:
        parser.add_argument(
            "--workers", type=int, default=1, metavar="N",
            help="shard worker processes for --engine sharded "
            "(default: 1; clamped to the fabric's splittable extent)",
        )
    if json_flag:
        parser.add_argument(
            "--json", action="store_true",
            help="emit machine-readable JSON instead of the text report",
        )


def options_from_args(args, **overrides) -> RunOptions:
    """Build a :class:`RunOptions` from a parsed argparse namespace.

    Reads ``engine`` and ``workers`` (when present) and applies
    ``overrides`` on top.  Aggregate engine spellings (``both``/``all``)
    must be expanded by the subcommand before calling this.
    """
    fields = {"engine": getattr(args, "engine", "active")}
    w = getattr(args, "workers", 1)
    fields["workers"] = w if ENGINE_TABLE[fields["engine"]].forks else 1
    fields.update(overrides)
    return RunOptions(**fields)


# ----------------------------------------------------------------------
# Program specs — the "what" half of Session.run(program, options)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Spmv3D:
    """One 3D (Fig. 3 mapping) SpMV: ``run`` returns ``(u, cycles)``."""

    op: Any
    v: Any
    fifo_capacity: int = 20
    two_sum_tasks: bool = False
    max_cycles: int = 200_000

    def run(self, options: RunOptions):
        from .kernels.spmv3d import run_spmv_des

        return run_spmv_des(
            self.op, self.v, fifo_capacity=self.fifo_capacity,
            max_cycles=self.max_cycles, two_sum_tasks=self.two_sum_tasks,
            options=options,
        )


@dataclass(frozen=True)
class Spmv2D:
    """One 2D block-mapped SpMV: ``run`` returns ``(u, cycles)``."""

    op: Any
    v: Any
    block_shape: tuple
    max_cycles: int = 500_000

    def run(self, options: RunOptions):
        from .kernels.spmv2d_des import run_spmv2d_des

        return run_spmv2d_des(
            self.op, self.v, self.block_shape,
            max_cycles=self.max_cycles, options=options,
        )


@dataclass(frozen=True)
class Axpy:
    """Core-local SIMD-4 ``y + a*x``: ``run`` returns ``(out, cycles)``."""

    a: float
    x: Any
    y: Any

    def run(self, options: RunOptions):
        from .kernels.blas_des import run_axpy_des

        return run_axpy_des(self.a, self.x, self.y, options=options)


@dataclass(frozen=True)
class Dot:
    """The mixed-precision local dot: ``run`` returns ``(value, cycles)``."""

    x: Any
    y: Any

    def run(self, options: RunOptions):
        from .kernels.blas_des import run_dot_des

        return run_dot_des(self.x, self.y, options=options)


@dataclass(frozen=True)
class AllReduce:
    """One Fig. 6 collective over ``values`` (shape ``(height, width)``):
    ``run`` returns ``(sum, cycles)``."""

    values: Any
    queue_capacity: int = 8

    def run(self, options: RunOptions):
        from .wse.allreduce import simulate_allreduce

        return simulate_allreduce(
            self.values, queue_capacity=self.queue_capacity, options=options,
        )


class Session:
    """The one-call facade: ``Session(options).run(program)``.

    A session pins a default :class:`RunOptions`; ``run`` executes any
    program spec under it (or a per-call override).  Program specs are
    anything with a ``run(options)`` method — the dataclasses above
    cover the shipped kernels.
    """

    def __init__(self, options: RunOptions | None = None):
        self.options = resolve_options(options, "Session")

    def run(self, program, options: RunOptions | None = None):
        if options is None:
            return program.run(self.options)
        return program.run(resolve_options(options, "Session.run"))
