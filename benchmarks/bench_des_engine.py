"""DES engine benchmark: active-set vs reference stepping on BiCGStab.

Measures cycles simulated per wall-clock second on the
``bench_bicgstab_des`` workload (a full mixed-precision BiCGStab solve
with every SpMV and AllReduce executed on the word-level fabric
simulator) and writes the results to ``BENCH_des.json``.

Two engines drive the same persistent solver, producing bit-identical
numerics and identical per-kernel cycle counts (asserted here and
proven at depth by ``tests/test_engine_equivalence.py``):

``reference`` — the full-grid sweep: every tile is visited every cycle
    (``Fabric.step_reference``).  Its fabrics keep their own clocks, so
    it simulates only the busy kernel windows; the charged local
    AXPY/dot cycles exist solely as counters.

``active`` — the event-driven engine: dirty active sets, cached route
    bindings, fused instruction stepping, and a unified wafer timeline
    in which both fabrics advance through every cycle of the solve —
    idle spans are *simulated* by cycle skipping
    (``Fabric.skip_cycles``), which is O(1) because an empty active set
    proves the fabric state cannot change.

The headline ``speedup_cycles_per_second`` is the ratio of fabric
cycles simulated per second between the two.  ``solve_wall_speedup``
(the plain end-to-end wall-clock ratio) is reported alongside so
neither number has to be inferred from the other.

Run directly (``python benchmarks/bench_des_engine.py``) or via
``make bench-smoke``; ``--quick`` shrinks the mesh for CI smoke runs.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

from repro.api import RunOptions
from repro.kernels.bicgstab_des import DESBiCGStab
from repro.problems import momentum_system

#: Benchmark mesh: a 48 x 48 tile fabric (2304 tiles — 36x the largest
#: fabric exercised anywhere else in the test suite) with a thin local
#: Z so the workload is communication-dominated, which is the regime
#: the wafer-scale mapping targets (paper section III: performance is
#: bounded by neighbour and reduction traffic, not local FLOPs).
SHAPE = (48, 48, 2)
QUICK_SHAPE = (6, 6, 8)
RTOL = 5e-3
MAXITER = 25


def _engine_stats(solver: DESBiCGStab):
    """Aggregate FabricStats over the solver's persistent fabrics."""
    agg = {
        "cycles": 0, "skipped_cycles": 0, "active_router_cycles": 0,
        "active_core_cycles": 0, "peak_active_routers": 0,
        "peak_active_cores": 0, "words": 0,
    }
    for eng in (solver._spmv_eng, solver._ar_eng):
        if eng is None:
            continue
        st = eng.fabric.stats
        agg["cycles"] += st.cycles
        agg["skipped_cycles"] += st.skipped_cycles
        agg["active_router_cycles"] += st.active_router_cycles
        agg["active_core_cycles"] += st.active_core_cycles
        agg["peak_active_routers"] = max(
            agg["peak_active_routers"], st.peak_active_routers)
        agg["peak_active_cores"] = max(
            agg["peak_active_cores"], st.peak_active_cores)
        agg["words"] += eng.fabric.total_words_moved
    return agg


#: What each engine's row of the report says about how it steps.
NOTES = {
    "reference": (
        "persistent fabrics; full-tile sweep every cycle; fabrics keep "
        "their own clocks — idle/local-compute cycles are counters "
        "only, never simulated"
    ),
    "active": (
        "persistent fabrics; active-set sweep; fused batched stepping; "
        "unified timeline — both fabrics simulate every solve cycle, "
        "idle spans via O(1) cycle skipping"
    ),
}


def run_engine(engine: str, op, b) -> dict:
    """One engine on the persistent solver.  The first solve builds and
    warms the kernel engines (reported as setup); the measured solve is
    steady state."""
    solver = DESBiCGStab(op, options=RunOptions(engine=engine))
    t0 = time.perf_counter()
    solver.solve(b, rtol=RTOL, maxiter=MAXITER)
    setup = time.perf_counter() - t0
    before = _engine_stats(solver)
    t0 = time.perf_counter()
    res = solver.solve(b, rtol=RTOL, maxiter=MAXITER)
    wall = time.perf_counter() - t0
    after = _engine_stats(solver)
    cycles = after["cycles"] - before["cycles"]
    skipped = after["skipped_cycles"] - before["skipped_cycles"]
    stepped = cycles - skipped
    words = after["words"] - before["words"]
    rep = solver.report
    return {
        "wall_seconds": round(wall, 4),
        "setup_seconds": round(setup, 4),
        "fabric_cycles_simulated": cycles,
        "cycles_per_second": round(cycles / wall, 1),
        "stepped_cycles": stepped,
        "skipped_cycles": skipped,
        "words_moved": words,
        "words_per_second": round(words / wall, 1),
        "mean_active_routers": round(
            (after["active_router_cycles"] - before["active_router_cycles"])
            / max(stepped, 1), 2),
        "mean_awake_cores": round(
            (after["active_core_cycles"] - before["active_core_cycles"])
            / max(stepped, 1), 2),
        "peak_active_routers": after["peak_active_routers"],
        "peak_active_cores": after["peak_active_cores"],
        "timeline_cycles": rep.total_cycles,
        "iterations": res.iterations,
        "note": NOTES[engine],
        "_res": res,
        "_report": rep,
    }


def run(shape=SHAPE, out_path: str | Path = "BENCH_des.json") -> dict:
    sys_ = momentum_system(shape, reynolds=50.0, dt=0.02)
    op, b = sys_.operator, sys_.b

    reference = run_engine("reference", op, b)
    active = run_engine("active", op, b)

    res_r, res_a = reference.pop("_res"), active.pop("_res")
    rep_r, rep_a = reference.pop("_report"), active.pop("_report")
    equivalence = {
        "x_identical": bool(np.array_equal(res_r.x, res_a.x)),
        "residuals_identical": res_r.residuals == res_a.residuals,
        "spmv_cycles_match": rep_r.spmv_cycles == rep_a.spmv_cycles,
        "allreduce_cycles_match":
            rep_r.allreduce_cycles == rep_a.allreduce_cycles,
        "words_match": reference["words_moved"] == active["words_moved"],
    }

    nx, ny, nz = shape
    result = {
        "benchmark": "bicgstab_des_engine",
        "workload": {
            "mesh": list(shape),
            "fabric": f"{nx}x{ny} tiles (spmv) + {ny}x{nx} tiles (allreduce)",
            "tiles_per_fabric": nx * ny,
            "rtol": RTOL,
            "maxiter": MAXITER,
            "iterations": res_a.iterations,
        },
        "reference": reference,
        "active": active,
        "speedup_cycles_per_second": round(
            active["cycles_per_second"] / reference["cycles_per_second"], 2),
        "solve_wall_speedup": round(
            reference["wall_seconds"] / active["wall_seconds"], 2),
        "equivalence": equivalence,
    }
    Path(out_path).write_text(json.dumps(result, indent=2) + "\n")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help=f"small mesh {QUICK_SHAPE} for smoke runs")
    ap.add_argument("--out", default="BENCH_des.json")
    args = ap.parse_args(argv)
    shape = QUICK_SHAPE if args.quick else SHAPE
    result = run(shape=shape, out_path=args.out)
    eq = result["equivalence"]
    print(json.dumps(result, indent=2))
    if not all(eq.values()):
        print("EQUIVALENCE FAILURE between engines:", eq)
        return 1
    print(
        f"\n{result['workload']['fabric']}: "
        f"{result['active']['cycles_per_second']:.0f} cycles/s (active) vs "
        f"{result['reference']['cycles_per_second']:.0f} cycles/s "
        f"(reference) = "
        f"{result['speedup_cycles_per_second']:.1f}x; "
        f"wall {result['solve_wall_speedup']:.1f}x"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
