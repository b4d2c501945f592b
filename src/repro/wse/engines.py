"""Engine selection: the one module that interprets an engine *name*.

A kernel builds a fabric program (routes, cores, ``ProgramDecl``); how
that program is stepped is decided here and nowhere else.  The four
engine names are four ways of driving the same program:

* ``"reference"`` — the naive full-grid sweep, kept as the oracle the
  others are held bit-identical to;
* ``"active"`` — the event-driven active-set stepper (the default);
* ``"replay"`` — record one live run on the active stepper, replay
  later runs as the compiled schedule (:mod:`repro.wse.replay`);
* ``"sharded"`` — the active stepper partitioned across worker
  processes (:mod:`repro.wse.shard`).

:data:`ENGINE_TABLE` states what each name means as data: which of the
two :attr:`Fabric.engine <repro.wse.fabric.Fabric.engine>` steppers it
runs on and which instruments it can carry.  ``RunOptions`` validates
against it, the CLIs turn an unsupported combination into exit status 2
through :func:`unsupported`, and the two drivers below — :func:`run_once`
for a program that runs one time, :class:`Runner` for a persistent one —
are the only code that replays, forks, or records for an engine.

This module imports nothing from the rest of the package at import time
(``repro.api`` imports it, and the replay and shard layers load only
when an engine that needs them is selected).
"""

from __future__ import annotations

import gc
from contextlib import ContextDecorator
from dataclasses import dataclass

__all__ = [
    "ENGINES",
    "ENGINE_TABLE",
    "EngineSpec",
    "Runner",
    "collector_paused",
    "fabric_until",
    "resolve_options",
    "run_once",
    "shard_until_factory",
    "stepper",
    "supporting",
    "unsupported",
]


@dataclass(frozen=True)
class EngineSpec:
    """What one engine name means."""

    #: ``Fabric.engine`` value the program steps on.
    stepper: str
    #: Can run with the race sanitizer attached.
    sanitize: bool
    #: Holds the whole fabric in-process, as the cycle profiler and
    #: ``certify-numerics`` need.
    profile: bool
    #: Fast-forwards a quiescent fabric in O(1) (``Runner.sync``); the
    #: reference sweep has no such notion and keeps its own clock.
    skip_idle: bool
    #: Records a live run and replays it as a compiled schedule.
    records: bool = False
    #: Forks shard workers (and so accepts ``workers`` above 1).
    forks: bool = False


#: Engine name -> meaning, in fidelity order.
ENGINE_TABLE = {
    "reference": EngineSpec("reference", sanitize=True, profile=True,
                            skip_idle=False),
    "active": EngineSpec("active", sanitize=True, profile=True,
                         skip_idle=True),
    "replay": EngineSpec("active", sanitize=False, profile=True,
                         skip_idle=True, records=True),
    "sharded": EngineSpec("active", sanitize=False, profile=False,
                          skip_idle=True, forks=True),
}

ENGINES = tuple(ENGINE_TABLE)

#: Why an instrument is tied to the engines that support it.
_NEEDS = {
    "sanitize": "the race sanitizer instruments live whole-fabric stepping",
    "profile": "the cycle profiler needs the whole fabric in-process",
}


def stepper(engine: str) -> str:
    """The ``Fabric.engine`` value a program steps on under ``engine``."""
    return ENGINE_TABLE[engine].stepper


def supporting(capability: str) -> tuple:
    """The engine names whose table row has ``capability`` set."""
    return tuple(name for name, spec in ENGINE_TABLE.items()
                 if getattr(spec, capability))


def unsupported(engine: str, capability: str) -> str | None:
    """``None`` when ``engine`` supports ``capability``, else the one
    message saying why not and what to use instead."""
    if getattr(ENGINE_TABLE[engine], capability):
        return None
    return (
        f"engine {engine!r} does not support {capability}: "
        f"{_NEEDS[capability]}; use "
        f"{' or '.join(repr(e) for e in supporting(capability))} "
        "(every engine is bit-identical to them)"
    )


def resolve_options(options, caller: str):
    """``options=None`` means defaults; anything else must be a
    :class:`repro.api.RunOptions`."""
    from ..api import RunOptions

    if options is None:
        return RunOptions()
    if not isinstance(options, RunOptions):
        raise TypeError(
            f"{caller}: options must be a repro.api.RunOptions, "
            f"got {type(options).__name__}"
        )
    return options


class _CollectorPaused(ContextDecorator):
    """Pause the cyclic collector while a program is built or recorded:
    neither makes cyclic garbage (``tests/test_cold_start.py``), so each
    pass walks a growing heap for nothing.  The only code that touches
    ``gc``.  Re-entrant; the outermost exit restores the state found.
    """

    def __init__(self) -> None:
        self._found: list[bool] = []    # collector state at each entry

    def __enter__(self) -> None:
        self._found.append(gc.isenabled())
        gc.disable()

    def __exit__(self, *exc) -> None:
        if self._found.pop():
            gc.enable()

    def forked(self) -> None:
        """First call in a child forked inside the region: nothing there
        unwinds the parent's ``with`` blocks, so leave them now."""
        while self._found:
            self.__exit__()


#: Context manager and decorator; one instance, like the switch it flips.
collector_paused = _CollectorPaused()


# ----------------------------------------------------------------------
# Completion predicates: one per-tile answer, two shapes
# ----------------------------------------------------------------------
def _until(tile_done, x0: int, y0: int, x1: int, y1: int):
    tiles = [(x, y) for y in range(y0, y1) for x in range(x0, x1)]

    def done(fabric) -> bool:
        # quiescent() first: under the active-set stepper it rejects in
        # O(1) while work is in flight (same conjunction).
        return fabric.quiescent() and all(tile_done(x, y) for x, y in tiles)

    return done


def fabric_until(fabric, tile_done):
    """Whole-fabric ``until``: drained, and ``tile_done(x, y)`` on every
    tile."""
    return _until(tile_done, 0, 0, fabric.width, fabric.height)


def shard_until_factory(tile_done):
    """Rect-local ``until`` predicates for the shard workers: the same
    conjunction restricted to each worker's rectangle."""
    return lambda rect: _until(tile_done, rect.x0, rect.y0, rect.x1, rect.y1)


# ----------------------------------------------------------------------
# One-shot driver
# ----------------------------------------------------------------------
def run_once(fabric, options, tile_done, *, label: str,
             max_cycles: int, session=None) -> int:
    """Run a freshly built program to completion under ``options``.

    Returns the cycles it took.  Per engine: the two steppers call
    ``fabric.run`` (sanitized when ``options.sanitize``); ``"replay"``
    records that one live run and proves the compiled schedule
    reproduces it bit-for-bit — or, when the determinism proof or the
    recorder refuses (a sanitizer is attached), just runs live;
    ``"sharded"`` steps the program through ``options.workers``
    processes and harvests the state back.  A recording engine records
    into ``session`` (a fresh :class:`~repro.wse.replay.ReplaySession`
    when None), where a caller can read the checked schedule back.
    """
    spec = ENGINE_TABLE[options.engine]
    fabric.engine = spec.stepper
    start = fabric.cycle
    if spec.forks:
        from .shard import run_sharded

        run_sharded(fabric, shard_until_factory(tile_done),
                    workers=options.workers, max_cycles=max_cycles)
        return fabric.cycle - start
    until = fabric_until(fabric, tile_done)
    if spec.records and session is None:
        from .replay import ReplaySession

        session = ReplaySession(fabric, label=label)
    if session is not None and session.enabled:
        with collector_paused, session.record():
            fabric.run(max_cycles=max_cycles, until=until)
        if session.schedule is not None:
            bad = session.schedule.check()
            if bad:
                raise AssertionError(
                    "replay self-check diverged from the live run: "
                    + "; ".join(bad[:5])
                )
    else:
        fabric.run(max_cycles=max_cycles, until=until,
                   sanitize=options.sanitize)
    return fabric.cycle - start


# ----------------------------------------------------------------------
# Persistent driver
# ----------------------------------------------------------------------
class Runner:
    """How one persistent fabric program is re-run under one engine.

    Built once the program is complete (routes compiled, cores attached,
    observers hooked): under ``"replay"`` it proves schedule determinism
    on that pristine program, under ``"sharded"`` it forks the workers
    so the program state rides the fork.  After that the owner only
    calls :meth:`live` / :meth:`run`, :meth:`sync` and :meth:`close`.
    """

    def __init__(self, fabric, options, tile_done, *, label: str,
                 max_cycles: int, configure=None):
        spec = ENGINE_TABLE[options.engine]
        self.fabric = fabric
        self._skip_idle = spec.skip_idle
        self._max_cycles = max_cycles
        self._configure = configure
        fabric.engine = spec.stepper
        #: The :class:`~repro.wse.replay.ReplaySession` (``"replay"``
        #: only): its counters and diagnostics are part of the report.
        self.replay = None
        #: True when the most recent :meth:`run` was a compiled replay.
        self.replayed = False
        self._executor = None
        self._until = None
        if spec.records:
            from .replay import ReplaySession

            self.replay = ReplaySession(fabric, label=label)
        if spec.forks:
            from .shard import ShardedExecutor

            self._executor = ShardedExecutor(
                fabric, workers=options.workers,
                until_factory=shard_until_factory(tile_done),
            )
        else:
            self._until = fabric_until(fabric, tile_done)

    def _step(self) -> int:
        """Step the armed program to completion; returns the cycles."""
        fabric = self.fabric
        start = fabric.cycle
        if self._executor is not None:
            self._executor.run(max_cycles=self._max_cycles)
            self._executor.harvest()
        else:
            fabric.run(max_cycles=self._max_cycles, until=self._until)
        return fabric.cycle - start

    def _record(self, arm) -> int:
        """One live run under the recorder, compiled on the way out."""
        with collector_paused, self.replay.record(configure=self._configure):
            # Inside the recording: re-arming is where a run's fresh
            # operands enter the tape.
            if arm is not None:
                arm(self._executor)
            return self._step()

    def live(self) -> int:
        """The owner's constructor run of the program its build armed.

        Recorded when the session can record, so that every :meth:`run`
        replays: operands are live leaves of the memory planes and a
        re-arm only rewinds to this state, so this is the tape a
        re-armed run would give.  Otherwise (engine does not record,
        proof refused, sanitizer attached) stepped bare.
        """
        if self.replay is None or not self.replay.enabled \
                or self.fabric.sanitizer is not None:
            return self._step()
        return self._record(None)

    def run(self, arm, externs=None) -> int:
        """One execution; returns the cycles.

        With a valid compiled schedule this is its replay on ``externs``
        and ``arm`` is not called.  Otherwise ``arm(executor)`` re-arms
        the program — ``executor`` is the shard coordinator whose
        workers hold the authoritative state and must be poked, or
        ``None`` in-process — and the live run (re-arm included) is
        recorded when the session can record.
        """
        session = self.replay
        if session is not None and session.valid():
            self.replayed = True
            return session.replay(externs)
        self.replayed = False
        if session is not None:
            if session.enabled:
                return self._record(arm)
            session.note_fallback()
        arm(self._executor)
        return self._step()

    def sync(self, now: int) -> None:
        """Fast-forward the idle fabric to wafer cycle ``now``.

        Several persistent fabrics share one wafer clock: while one runs
        a kernel the others sit idle, and the active-set stepper proves
        those cycles inert and skips them in O(1)
        (``FabricStats.skipped_cycles``).  The reference sweep would
        have to step each one, so its fabrics keep their own clocks.
        """
        fabric = self.fabric
        behind = now - fabric.cycle
        if not self._skip_idle or behind <= 0:
            return
        ex = self._executor
        if fabric.stats.cycles == 0:
            # Never stepped: a persistent fabric idles unarmed until its
            # first kernel, so aligning the clock is pure bookkeeping.
            fabric.cycle = now
            fabric.stats.cycles += behind
            fabric.stats.skipped_cycles += behind
            if fabric.obs is not None:
                fabric.obs.on_skip(behind)
            if ex is not None:
                ex.align_clock(behind)
        elif ex is not None:
            ex.skip(behind)
        else:
            fabric.skip_cycles(behind)

    def close(self) -> None:
        """Release shard workers (no-op for in-process engines)."""
        if self._executor is not None:
            self._executor.close()
