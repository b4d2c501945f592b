"""repro.obs — the wafer-scale observability layer.

The paper's claims are *per-phase timing* claims (28.1 µs BiCGStab
iterations decomposed into SpMV / AXPY / dot+AllReduce; a sub-1.5 µs
wafer AllReduce).  This package makes the simulator report at that
granularity:

* :mod:`~repro.obs.span` — nestable, cycle-stamped spans on the unified
  wafer timeline (``iteration[k]`` > ``spmv`` / ``allreduce`` / ...);
* :mod:`~repro.obs.metrics` — named counters, gauges, and streaming
  histograms (words moved, router queue occupancy, core stall cycles,
  FIFO high-water marks);
* :mod:`~repro.obs.fabric_obs` — the per-cycle fabric hook behind the
  single ``fabric.obs is None`` hot-path guard;
* :mod:`~repro.obs.session` — :class:`ObsSession`, the facade the DES
  kernels and :class:`~repro.kernels.bicgstab_des.DESBiCGStab` accept;
* :mod:`~repro.obs.export` — Chrome-trace/Perfetto JSON export
  (open a whole solve in ``chrome://tracing``);
* :mod:`~repro.obs.report` — the Figure 4-style phase table, per-tile
  utilization heatmaps (.npy/CSV), iteration telemetry;
* :mod:`~repro.obs.profile` — :class:`CycleProfiler`, the causal cycle
  profiler: per-tile wait-state taxonomy (``busy`` / ``wait_rx`` /
  ``wait_credit`` / ``idle``, conserving every cycle), critical-path
  extraction, slack attribution against the static contracts, and
  flamegraph export.

Entry points: ``python -m repro trace`` / ``profile`` and ``make
trace`` / ``make profile``; docs in ``docs/observability.md``.
"""

from .export import (
    chrome_trace_events,
    collapsed_stacks,
    write_chrome_trace,
    write_flamegraph,
)
from .fabric_obs import FabricObserver
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .profile import STATE_NAMES, CycleProfiler
from .report import (
    bottleneck_table,
    export_heatmaps,
    phase_table,
    slack_table,
    telemetry_table,
    top_bottleneck,
)
from .session import ObsSession
from .span import Span, SpanTracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "SpanTracer",
    "FabricObserver",
    "ObsSession",
    "CycleProfiler",
    "STATE_NAMES",
    "chrome_trace_events",
    "write_chrome_trace",
    "collapsed_stacks",
    "write_flamegraph",
    "phase_table",
    "export_heatmaps",
    "telemetry_table",
    "bottleneck_table",
    "top_bottleneck",
    "slack_table",
]
