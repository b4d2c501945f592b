"""Record-once / replay-many orchestration with static validity gating.

:class:`ReplaySession` owns the lifecycle of one fabric's compiled
schedule:

* at construction it asks the analyzer
  (:func:`repro.wse.analyze.schedule.prove_schedule_deterministic`) to
  prove the program's event schedule data-independent.  A program it
  cannot prove — any attached core without a complete declaration, any
  structural defect — permanently *refuses* replay: every run falls
  back to the live engine, with the proof's reasons kept as
  diagnostics;
* :meth:`record` wraps one live execution in a
  :class:`~repro.wse.replay.record.ScheduleRecorder` and compiles the
  tape into a :class:`~repro.wse.replay.compile.CompiledSchedule`
  stamped with the program fingerprint and a cheap mutation token;
* :meth:`valid` re-checks the token before each replay: any routing
  reconfiguration or core re-attachment bumps a version counter, and
  any sanitizer attach (including ``Fabric.run(sanitize=True)``) bumps
  the fabric's sanitize epoch — all of which invalidate the cache, so
  the next run records afresh on the live engine.

The session never *decides* to replay; kernel runners ask ``valid()``
and choose.  That keeps the fallback policy (re-record vs. plain live)
in the runner, next to its operand plumbing.
"""

from __future__ import annotations

from contextlib import contextmanager

from ..analyze.schedule import prove_schedule_deterministic
from .compile import CompiledSchedule, compile_tape
from .record import RecordingError, ScheduleRecorder

__all__ = ["ReplaySession"]


class ReplaySession:
    """Replay-cache manager for one fabric's program."""

    def __init__(self, fabric, label: str = ""):
        self.fabric = fabric
        self.label = label
        self.proof = prove_schedule_deterministic(fabric)
        #: Why replay is currently unavailable (refusal or invalidation
        #: reasons, most recent last); exposed for tests and reports.
        self.diagnostics: list[str] = list(self.proof.reasons)
        if not self.proof.ok:
            self.diagnostics.insert(
                0,
                f"replay refused for {label or 'program'}: schedule "
                "determinism not provable; using live engine",
            )
        self.schedule: CompiledSchedule | None = None
        self._token = None
        self.records = 0
        self.replays = 0
        self.fallbacks = 0
        self.invalidations = 0
        self._record_failures = 0

    #: After this many failed recording attempts the session stops
    #: retrying and runs live permanently (a recording that keeps
    #: failing would otherwise re-tape every run for nothing).
    MAX_RECORD_FAILURES = 3

    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        """False when the analyzer refused to prove the program (or
        recording failed too many times to keep trying)."""
        return self.proof.ok and self._record_failures < self.MAX_RECORD_FAILURES

    def _mutation_token(self):
        """Cheap per-run summary of everything that can change the
        static schedule: core attachments, router topology versions,
        and the sanitizer epoch."""
        fabric = self.fabric
        return (
            fabric._core_version,
            fabric._topology_version,
            fabric._sanitize_epoch,
        )

    def valid(self) -> bool:
        """Whether the compiled schedule may replay right now."""
        if self.schedule is None:
            return False
        if self.fabric.sanitizer is not None:
            self.invalidate("sanitizer attached; replaying would skip it")
            return False
        if self._mutation_token() != self._token:
            self.invalidate("program mutated since recording")
            return False
        return True

    def invalidate(self, reason: str) -> None:
        if self.schedule is not None:
            self.schedule = None
            self._token = None
            self.invalidations += 1
            self.diagnostics.append(
                f"replay cache invalidated for {self.label or 'program'}: {reason}"
            )

    def note_fallback(self, reason: str = "") -> None:
        self.fallbacks += 1
        if reason:
            self.diagnostics.append(reason)

    # ------------------------------------------------------------------
    @contextmanager
    def record(self, configure=None):
        """Context manager around one live run: attach a recorder, let
        the caller execute the kernel, compile the tape on exit.

        ``configure(recorder)`` registers extern/static arrays before
        the recorder attaches.  On a failed recording the session keeps
        running live (the executed run itself is always valid) and the
        failure joins the diagnostics.
        """
        if not self.proof.ok:
            raise RecordingError("session is disabled (proof refused)")
        rec = ScheduleRecorder(self.fabric)
        if configure is not None:
            configure(rec)
        if not self.fabric._prebound:
            # The stepper's lazy first-step bind creates router queues,
            # which would read as a mutation of the program mid-recording.
            self.fabric.prebind()
        token_before = self._mutation_token()
        try:
            rec.attach()
        except RecordingError as exc:
            # Transient inability to record (a sanitizer is attached,
            # words already in flight): run live this time and try
            # again on a later run — not a failed recording.
            self.note_fallback(f"recording unavailable: {exc}")
            yield None
            return
        try:
            yield rec
        except BaseException:
            rec.detach()
            raise
        try:
            tape = rec.finalize()
        except RecordingError as exc:
            self._record_failures += 1
            self.note_fallback(f"recording failed: {exc}")
            return
        if self._mutation_token() != token_before:
            self._record_failures += 1
            self.note_fallback("program mutated during recording; tape discarded")
            return
        self.schedule = compile_tape(tape, self.fabric)
        self._token = token_before
        self.records += 1

    def replay(self, externs=None) -> int:
        """Execute the compiled schedule; returns the cycle delta."""
        schedule = self.schedule
        if schedule is None:
            raise RecordingError("no compiled schedule to replay")
        self.replays += 1
        return schedule.execute(externs)
