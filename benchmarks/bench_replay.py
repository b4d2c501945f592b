"""Replay engine benchmark: trace-compiled replay vs live stepping.

Measures cycles simulated per wall-clock second on the ``bench_des``
workload (a full mixed-precision BiCGStab solve with every SpMV and
AllReduce executed on the word-level fabric simulator, mesh 48 x 48 x 2)
for three engines and writes the results to ``BENCH_replay.json``:

``reference`` — the naive full-fabric sweep (every tile, every cycle).

``active`` — the event-driven active-set engine (persistent fabrics,
    dirty sets, fused stepping, O(1) cycle skipping).

``replay`` — the trace-compiled engine from ``repro.wse.replay``: the
    first execution runs on the live active engine with a recorder
    attached, capturing the complete event schedule as an SSA value
    graph; every later execution replays that schedule as a few hundred
    batched NumPy array ops without stepping the simulator at all.

Each engine gets one warm-up solve (for replay this is where the
recording happens) and one measured solve; the headline
``speedup_cycles_per_second`` is the steady-state ratio between replay
and active.  The equivalence block asserts, across all three engines:
bit-identical solution vectors, identical residual histories, identical
per-kernel cycle counts, and identical per-link word counts on every
router of both fabrics.  Any mismatch exits non-zero.

Run directly (``python benchmarks/bench_replay.py``) or via
``make bench-smoke``; ``--quick`` shrinks the mesh for CI smoke runs
(the 10x headline is only expected at full size, where the schedule is
large enough to amortize the recording).
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

SHAPE = (48, 48, 2)
QUICK_SHAPE = (6, 6, 8)
RTOL = 5e-3
MAXITER = 25


def _link_words(solver: DESBiCGStab) -> dict:
    """Per-router words_moved for every link of both persistent fabrics."""
    out = {}
    for label, eng in (("spmv", solver._spmv_eng),
                       ("allreduce", solver._ar_eng)):
        if eng is None:
            continue
        fabric = eng.fabric
        out[label] = {
            f"{x},{y}": fabric.router(x, y).words_moved
            for y in range(fabric.height)
            for x in range(fabric.width)
        }
    return out


def _fabric_cycles(solver: DESBiCGStab) -> int:
    total = 0
    for eng in (solver._spmv_eng, solver._ar_eng):
        if eng is not None:
            total += eng.fabric.stats.cycles
    return total


def _kernel_cycles(rep) -> dict:
    return {
        "spmv_cycles": rep.spmv_cycles,
        "allreduce_cycles": rep.allreduce_cycles,
        "axpy_cycles": rep.axpy_cycles,
        "dot_local_cycles": rep.dot_local_cycles,
        "spmv_runs": rep.spmv_runs,
        "allreduce_runs": rep.allreduce_runs,
    }


def run_engine(engine: str, op, b) -> dict:
    """One warm-up solve (engine construction; for replay, recording),
    then one measured steady-state solve."""
    solver = DESBiCGStab(op, options=RunOptions(engine=engine))
    t0 = time.perf_counter()
    res1 = solver.solve(b, rtol=RTOL, maxiter=MAXITER)
    setup = time.perf_counter() - t0
    snap = {
        "x": np.asarray(res1.x, dtype=np.float64).copy(),
        "residuals": list(res1.residuals),
        "kernel_cycles": _kernel_cycles(solver.report),
        "link_words": _link_words(solver),
    }
    before = _fabric_cycles(solver)
    t0 = time.perf_counter()
    res2 = solver.solve(b, rtol=RTOL, maxiter=MAXITER)
    wall = time.perf_counter() - t0
    cycles = _fabric_cycles(solver) - before
    stats = {
        "wall_seconds": round(wall, 4),
        "setup_seconds": round(setup, 4),
        "fabric_cycles_simulated": cycles,
        "cycles_per_second": round(cycles / wall, 1),
        "iterations": res2.iterations,
    }
    if engine == "replay":
        sessions = {}
        for label, eng in (("spmv", solver._spmv_eng),
                           ("allreduce", solver._ar_eng)):
            sess = getattr(eng, "replay", None) if eng is not None else None
            if sess is not None:
                sessions[label] = {
                    "records": sess.records,
                    "replays": sess.replays,
                    "fallbacks": sess.fallbacks,
                    "invalidations": sess.invalidations,
                    "schedule_nodes": (
                        sess.schedule.n_nodes
                        if sess.schedule is not None else 0
                    ),
                    "schedule_groups": (
                        len(sess.schedule.groups)
                        if sess.schedule is not None else 0
                    ),
                    "diagnostics": list(sess.diagnostics),
                }
        stats["sessions"] = sessions
        stats["note"] = (
            "first solve records the event schedule on the live active "
            "engine; measured solve replays it as batched NumPy ops"
        )
    return {"stats": stats, "snap": snap}


def _equivalence(snaps: dict) -> dict:
    base = snaps["reference"]
    eq = {}
    for engine in ("active", "replay"):
        s = snaps[engine]
        eq[f"x_identical_{engine}"] = bool(np.array_equal(
            base["x"].view(np.uint64), s["x"].view(np.uint64)))
        eq[f"residuals_identical_{engine}"] = (
            base["residuals"] == s["residuals"])
        eq[f"kernel_cycles_identical_{engine}"] = (
            base["kernel_cycles"] == s["kernel_cycles"])
        eq[f"link_words_identical_{engine}"] = (
            base["link_words"] == s["link_words"])
    return eq


def run(shape=SHAPE, out_path: str | Path = "BENCH_replay.json") -> dict:
    sys_ = momentum_system(shape, reynolds=50.0, dt=0.02)
    op, b = sys_.operator, sys_.b

    runs, snaps = {}, {}
    for engine in ("reference", "active", "replay"):
        r = run_engine(engine, op, b)
        runs[engine] = r["stats"]
        snaps[engine] = r["snap"]

    equivalence = _equivalence(snaps)
    nx, ny, nz = shape
    result = {
        "benchmark": "bicgstab_replay_engine",
        "workload": {
            "mesh": list(shape),
            "fabric": f"{nx}x{ny} tiles (spmv) + {ny}x{nx} tiles (allreduce)",
            "tiles_per_fabric": nx * ny,
            "rtol": RTOL,
            "maxiter": MAXITER,
            "iterations": runs["active"]["iterations"],
        },
        "reference": runs["reference"],
        "active": runs["active"],
        "replay": runs["replay"],
        "speedup_cycles_per_second": round(
            runs["replay"]["cycles_per_second"]
            / runs["active"]["cycles_per_second"], 2),
        "speedup_vs_reference": round(
            runs["replay"]["cycles_per_second"]
            / runs["reference"]["cycles_per_second"], 2),
        "equivalence": equivalence,
    }
    Path(out_path).write_text(json.dumps(result, indent=2) + "\n")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help=f"small mesh {QUICK_SHAPE} for smoke runs")
    ap.add_argument("--out", default="BENCH_replay.json")
    args = ap.parse_args(argv)
    shape = QUICK_SHAPE if args.quick else SHAPE
    result = run(shape=shape, out_path=args.out)
    print(json.dumps(result, indent=2))
    eq = result["equivalence"]
    if not all(eq.values()):
        print("EQUIVALENCE FAILURE between engines:", eq)
        return 1
    print(
        f"\n{result['workload']['fabric']}: "
        f"{result['replay']['cycles_per_second']:.0f} cycles/s (replay) vs "
        f"{result['active']['cycles_per_second']:.0f} cycles/s (active) = "
        f"{result['speedup_cycles_per_second']:.1f}x "
        f"({result['speedup_vs_reference']:.1f}x vs reference)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
