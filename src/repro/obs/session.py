"""The observation facade: one tracer + one registry + fabric observers.

An :class:`ObsSession` is what callers hand to the DES kernels and
solver (``DESBiCGStab(op, options=RunOptions(obs=session))``): it owns the
:class:`~repro.obs.span.SpanTracer` for the unified wafer timeline, the
:class:`~repro.obs.metrics.MetricsRegistry` shared by every fabric, the
per-fabric :class:`~repro.obs.fabric_obs.FabricObserver` attachments,
and solver-level iteration telemetry (residual, rho, omega, breakdown
flags).  Export it whole with :meth:`write_chrome_trace`, or read the
derived reports in :mod:`repro.obs.report`.

Pass ``profile=True`` to also attach a
:class:`~repro.obs.profile.CycleProfiler` to every observed fabric:
per-tile wait-state taxonomy, critical-path extraction, and slack
attribution become available under :attr:`ObsSession.profiles` without
any kernel-runner signature changes.
"""

from __future__ import annotations

from .export import write_chrome_trace, write_flamegraph
from .fabric_obs import FabricObserver
from .metrics import MetricsRegistry
from .profile import CycleProfiler
from .span import SpanTracer

__all__ = ["ObsSession"]


class ObsSession:
    """A complete observation of one (or more) simulated runs."""

    def __init__(self, clock=None, keep_series: bool = True,
                 profile: bool = False):
        self.tracer = SpanTracer(clock)
        self.metrics = MetricsRegistry()
        #: name -> FabricObserver for every observed fabric.
        self.fabrics: dict[str, FabricObserver] = {}
        #: name -> CycleProfiler (populated when ``profile=True``).
        self.profiles: dict[str, CycleProfiler] = {}
        #: Per-iteration solver telemetry dicts, in iteration order.
        self.telemetry: list[dict] = []
        self._keep_series = keep_series
        self.profile = profile

    # ------------------------------------------------------------------
    def observe_fabric(self, name: str, fabric) -> FabricObserver:
        """Attach (or return the existing) observer for ``fabric``.

        Sets ``fabric.obs`` so the engine's single hot-path guard starts
        forwarding per-cycle callbacks; idempotent per (name, fabric).
        With ``profile=True`` a :class:`CycleProfiler` is chained in
        front of the observer as well.
        """
        obs = self.fabrics.get(name)
        if obs is not None and obs.fabric is fabric:
            return obs
        if obs is not None:
            raise ValueError(
                f"fabric name {name!r} already observed on another fabric"
            )
        obs = FabricObserver(name, fabric, self.metrics,
                             keep_series=self._keep_series)
        self.fabrics[name] = obs
        fabric.obs = obs
        if self.profile:
            self.profiles[name] = CycleProfiler(name, fabric).attach()
        return obs

    def unique_fabric_name(self, base: str) -> str:
        """First unused observer name among ``base``, ``base.1``, ...
        (one-shot kernel runners build a fresh fabric per call)."""
        if base not in self.fabrics:
            return base
        k = 1
        while f"{base}.{k}" in self.fabrics:
            k += 1
        return f"{base}.{k}"

    def detach(self) -> None:
        """Unhook every observed fabric (restores zero-overhead mode)."""
        for prof in self.profiles.values():
            prof.detach()
        for obs in self.fabrics.values():
            if getattr(obs.fabric, "obs", None) is obs:
                obs.fabric.obs = None

    def harvest(self) -> None:
        """Fold component-resident counters (per-router words, FIFO
        high-water, profiler wait-state taxonomy) into the registry on
        every observed fabric."""
        for obs in self.fabrics.values():
            obs.harvest()
        for prof in self.profiles.values():
            prof.harvest(self.metrics)

    # ------------------------------------------------------------------
    def record_iteration(self, **fields) -> None:
        """Append one iteration's solver telemetry."""
        self.telemetry.append(dict(fields))

    # ------------------------------------------------------------------
    def phase_totals(self) -> dict[str, int]:
        """Summed cycles per phase span (the Figure 4 quantities)."""
        return self.tracer.totals(cat="phase")

    def phase_spans(self) -> list[tuple[int, int, str]]:
        """Phase spans as sorted ``(start, end, name)`` triples on the
        unified wafer timeline (flamegraph / slack-table input)."""
        spans = [
            (s.start, s.start + s.dur, s.name)
            for s in self.tracer.spans
            if s.cat == "phase"
        ]
        spans.sort()
        return spans

    def write_chrome_trace(self, path):
        """Export everything recorded so far as Chrome-trace JSON."""
        return write_chrome_trace(self, path)

    def write_flamegraph(self, path):
        """Export collapsed wait-state stacks (speedscope/FlameGraph
        compatible); requires ``profile=True``."""
        return write_flamegraph(self, path)
