"""Observability overhead benchmark: tracer off vs tracer on.

Measures the DES BiCGStab workload of ``bench_des_engine`` (persistent
fabrics, active-set engine, unified wafer timeline) in two
configurations and writes ``BENCH_obs.json``:

``off`` — no :class:`repro.obs.ObsSession` attached.  The entire cost
    of the observability layer in this mode is one ``fabric.obs is
    None`` test per stepped cycle, so cycles simulated per second must
    stay within 5% of the untraced engine (the gate enforced here, and
    the regression guard for ``BENCH_des.json``'s headline).

``on`` — a full :class:`~repro.obs.ObsSession` attached: per-cycle
    fabric metrics (words, queue occupancy over the active set, stall
    samples), phase and iteration spans, telemetry, and a final
    harvest + Chrome-trace export (export timed separately).

Both runs must produce bit-identical numerics and identical per-kernel
cycle counts — observation may never perturb the simulation (gated
here; the deeper engine equivalence lives in
``tests/test_engine_equivalence.py``).

Run directly (``python benchmarks/bench_obs_overhead.py``) or via
``make bench-smoke``; ``--quick`` shrinks the mesh for CI smoke runs.
"""

from __future__ import annotations

import argparse
import json
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.api import RunOptions
from repro.kernels.bicgstab_des import DESBiCGStab
from repro.obs import ObsSession
from repro.problems import momentum_system

SHAPE = (48, 48, 2)
QUICK_SHAPE = (6, 6, 8)
RTOL = 5e-3
MAXITER = 25

#: Maximum tolerated slowdown of the detached (tracer-off) hot path,
#: and of the measured run against an existing BENCH_des.json baseline.
MAX_OFF_SLOWDOWN = 0.05


def _fabric_cycles(solver: DESBiCGStab) -> int:
    """Summed cycles over the persistent fabrics — the same definition
    ``bench_des_engine`` uses for its cycles/sec headline (both fabrics
    advance through every timeline cycle, so this is ~2x the timeline).
    """
    return sum(
        eng.fabric.stats.cycles
        for eng in (solver._spmv_eng, solver._ar_eng)
        if eng is not None
    )


def _measure(op, b, obs: ObsSession | None) -> dict:
    """One warmed, measured solve; returns timing plus checkables."""
    solver = DESBiCGStab(op, options=RunOptions(engine="active", obs=obs))
    solver.solve(b, rtol=RTOL, maxiter=MAXITER)  # build + warm engines
    before = _fabric_cycles(solver)
    t0 = time.perf_counter()
    res = solver.solve(b, rtol=RTOL, maxiter=MAXITER)
    wall = time.perf_counter() - t0
    cycles = _fabric_cycles(solver) - before
    out = {
        "wall_seconds": round(wall, 4),
        "fabric_cycles_simulated": cycles,
        "cycles_per_second": round(cycles / wall, 1),
        "iterations": res.iterations,
        "_res": res,
        "_report": solver.report,
    }
    return out


def run(shape=SHAPE, out_path: str | Path = "BENCH_obs.json") -> dict:
    sys_ = momentum_system(shape, reynolds=50.0, dt=0.02)
    op, b = sys_.operator, sys_.b

    off = _measure(op, b, obs=None)

    obs = ObsSession()
    on = _measure(op, b, obs=obs)
    obs.harvest()
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        trace_path = obs.write_chrome_trace(Path(tmp) / "trace.json")
        trace_bytes = trace_path.stat().st_size
    export_seconds = time.perf_counter() - t0

    res_off, res_on = off.pop("_res"), on.pop("_res")
    rep_off, rep_on = off.pop("_report"), on.pop("_report")
    equivalence = {
        "x_identical": bool(np.array_equal(res_off.x, res_on.x)),
        "residuals_identical": res_off.residuals == res_on.residuals,
        # Both reports accumulate two solves (warm-up + measured).
        "spmv_cycles_match": rep_off.spmv_cycles == rep_on.spmv_cycles,
        "allreduce_cycles_match":
            rep_off.allreduce_cycles == rep_on.allreduce_cycles,
        "phase_spans_tile_timeline":
            sum(obs.phase_totals().values()) == rep_on.total_cycles,
    }

    on["spans_recorded"] = len(obs.tracer.spans)
    on["metrics_recorded"] = len(obs.metrics.as_dict())
    on["export_seconds"] = round(export_seconds, 4)
    on["trace_json_bytes"] = trace_bytes

    overhead_on = off["wall_seconds"] and (
        on["wall_seconds"] / off["wall_seconds"] - 1.0
    )
    result = {
        "benchmark": "obs_overhead",
        "workload": {
            "mesh": list(shape),
            "tiles_per_fabric": shape[0] * shape[1],
            "rtol": RTOL,
            "maxiter": MAXITER,
            "iterations": res_on.iterations,
        },
        "off": off,
        "on": on,
        "tracing_overhead_fraction": round(overhead_on, 4),
        "equivalence": equivalence,
    }

    # Gate the detached hot path against the engine benchmark's
    # baseline when one exists for the same workload.
    baseline = Path(out_path).parent / "BENCH_des.json"
    if baseline.exists():
        base = json.loads(baseline.read_text())
        if base.get("workload", {}).get("mesh") == list(shape):
            base_cps = base["active"]["cycles_per_second"]
            slowdown = 1.0 - off["cycles_per_second"] / base_cps
            result["baseline_cycles_per_second"] = base_cps
            result["off_slowdown_vs_baseline"] = round(slowdown, 4)
    Path(out_path).write_text(json.dumps(result, indent=2) + "\n")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help=f"small mesh {QUICK_SHAPE} for smoke runs")
    ap.add_argument("--out", default="BENCH_obs.json")
    args = ap.parse_args(argv)
    shape = QUICK_SHAPE if args.quick else SHAPE
    result = run(shape=shape, out_path=args.out)
    print(json.dumps(result, indent=2))
    eq = result["equivalence"]
    if not all(eq.values()):
        print("EQUIVALENCE FAILURE under observation:", eq)
        return 1
    slowdown = result.get("off_slowdown_vs_baseline")
    if slowdown is not None and slowdown > MAX_OFF_SLOWDOWN:
        print(
            f"HOT-PATH REGRESSION: tracer-off run is {slowdown:.1%} slower "
            f"than the BENCH_des.json baseline (gate: {MAX_OFF_SLOWDOWN:.0%})"
        )
        return 1
    print(
        f"\ntracer off {result['off']['cycles_per_second']:.0f} cycles/s, "
        f"on {result['on']['cycles_per_second']:.0f} cycles/s "
        f"({result['tracing_overhead_fraction']:+.1%} when attached); "
        f"{result['on']['spans_recorded']} spans, "
        f"{result['on']['trace_json_bytes']} bytes of trace JSON"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
