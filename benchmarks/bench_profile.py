"""Cycle-profiler overhead benchmark: profiler off vs attached.

Measures the DES BiCGStab workload of ``bench_des_engine`` in two
configurations and writes ``BENCH_profile.json``:

``off`` — no session attached at all: the profiler's entire cost in
    this mode is one ``self.profiler is None`` test per core step (the
    same zero-cost-when-detached discipline the observer holds to, and
    still covered by ``bench_obs_overhead``'s <5% gate).

``profiled`` — an ``ObsSession(profile=True)`` attached: every stepped
    core cycle classified busy / wait_rx / wait_credit / idle, plus the
    regular per-cycle fabric metrics, spans, and telemetry.

Gates (exit 1 on violation):

* numerics must be **bit-identical** with and without the profiler, and
  per-kernel cycle counts must match — profiling may never perturb the
  simulation;
* conservation must hold on every tile of every profiled fabric
  (``busy + wait_rx + wait_credit + idle == stepped``) and each
  fabric's critical path must sum exactly to its elapsed cycles —
  a profile that cannot explain 100% of the run is a bug, not a report;
* the profiled run must stay within ``MAX_PROFILED_OVERHEAD`` (25%) of
  the unprofiled active engine.

Run directly (``python benchmarks/bench_profile.py``) or via ``make
bench-smoke``; ``--quick`` shrinks the mesh for CI smoke runs.
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

#: Maximum tolerated slowdown of the profiled run vs the plain active
#: engine (the profiler does real per-cycle classification work; the
#: point of the gate is that it stays cheap enough to leave on).
MAX_PROFILED_OVERHEAD = 0.25


def _fabric_cycles(solver: DESBiCGStab) -> int:
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
    return {
        "wall_seconds": round(wall, 4),
        "fabric_cycles_simulated": cycles,
        "cycles_per_second": round(cycles / wall, 1),
        "iterations": res.iterations,
        "_res": res,
        "_report": solver.report,
    }


def _conservation(obs: ObsSession) -> dict:
    """Per-fabric conservation and critical-path exactness checks."""
    out = {}
    for name, prof in obs.profiles.items():
        taxonomy = prof.taxonomy()
        bad_tiles = sum(
            1 for states in taxonomy.values()
            if sum(states.values()) != prof.stepped
        )
        path = prof.critical_path()
        fpath = prof.critical_path_fabric()
        out[name] = {
            "tiles": len(taxonomy),
            "stepped": prof.stepped,
            "conservation_violations": bad_tiles,
            "path_sums_to_stepped":
                sum(s["cycles"] for s in path) == prof.stepped,
            "fabric_path_sums_to_cycles":
                sum(s["cycles"] for s in fpath)
                == prof.fabric.cycle - prof.cycle0,
        }
    return out


def run(shape=SHAPE, out_path: str | Path = "BENCH_profile.json") -> dict:
    sys_ = momentum_system(shape, reynolds=50.0, dt=0.02)
    op, b = sys_.operator, sys_.b

    off = _measure(op, b, obs=None)

    obs = ObsSession(profile=True)
    profiled = _measure(op, b, obs=obs)
    obs.harvest()
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        trace_path = obs.write_chrome_trace(Path(tmp) / "trace.json")
        flame_path = obs.write_flamegraph(Path(tmp) / "flame.txt")
        trace_bytes = trace_path.stat().st_size
        flame_lines = len(flame_path.read_text().splitlines())
    export_seconds = time.perf_counter() - t0

    res_off, res_on = off.pop("_res"), profiled.pop("_res")
    rep_off, rep_on = off.pop("_report"), profiled.pop("_report")
    conservation = _conservation(obs)
    equivalence = {
        "x_identical": bool(np.array_equal(res_off.x, res_on.x)),
        "residuals_identical": res_off.residuals == res_on.residuals,
        "spmv_cycles_match": rep_off.spmv_cycles == rep_on.spmv_cycles,
        "allreduce_cycles_match":
            rep_off.allreduce_cycles == rep_on.allreduce_cycles,
        "conservation_holds": all(
            c["conservation_violations"] == 0
            and c["path_sums_to_stepped"]
            and c["fabric_path_sums_to_cycles"]
            for c in conservation.values()
        ),
    }

    profiled["export_seconds"] = round(export_seconds, 4)
    profiled["trace_json_bytes"] = trace_bytes
    profiled["flamegraph_lines"] = flame_lines

    overhead = off["wall_seconds"] and (
        profiled["wall_seconds"] / off["wall_seconds"] - 1.0
    )
    result = {
        "benchmark": "profile_overhead",
        "workload": {
            "mesh": list(shape),
            "tiles_per_fabric": shape[0] * shape[1],
            "rtol": RTOL,
            "maxiter": MAXITER,
            "iterations": res_on.iterations,
        },
        "off": off,
        "profiled": profiled,
        "profiled_overhead_fraction": round(overhead, 4),
        "conservation": conservation,
        "equivalence": equivalence,
    }
    Path(out_path).write_text(json.dumps(result, indent=2) + "\n")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help=f"small mesh {QUICK_SHAPE} for smoke runs")
    ap.add_argument("--out", default="BENCH_profile.json")
    args = ap.parse_args(argv)
    shape = QUICK_SHAPE if args.quick else SHAPE
    result = run(shape=shape, out_path=args.out)
    print(json.dumps(result, indent=2))
    eq = result["equivalence"]
    if not all(eq.values()):
        print("EQUIVALENCE FAILURE under profiling:", eq)
        return 1
    overhead = result["profiled_overhead_fraction"]
    if overhead > MAX_PROFILED_OVERHEAD:
        print(
            f"PROFILER OVERHEAD REGRESSION: profiled run is {overhead:.1%} "
            f"slower than unprofiled (gate: {MAX_PROFILED_OVERHEAD:.0%})"
        )
        return 1
    print(
        f"\nprofiler off {result['off']['cycles_per_second']:.0f} cycles/s, "
        f"attached {result['profiled']['cycles_per_second']:.0f} cycles/s "
        f"({overhead:+.1%}); conservation clean on "
        f"{sum(c['tiles'] for c in result['conservation'].values())} tiles"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
