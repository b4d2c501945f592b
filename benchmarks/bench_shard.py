"""Sharded engine benchmark: multi-process PDES vs single-process active.

Measures cycles simulated per wall-clock second on the ``des-scale``
workload (a full mixed-precision BiCGStab solve with every SpMV and
AllReduce executed on the word-level fabric simulator, mesh 16 x 16 x 2
— 256 tiles per fabric, 512 across the solve's two persistent fabrics)
for the single-process active engine and the sharded engine
(:mod:`repro.wse.shard`) at 2 and 4 workers, and writes the results to
``BENCH_shard.json``.

Two gates, with very different strictness:

* **Equivalence is unconditional.**  Solution bits, residual
  histories, per-kernel cycle counts, and per-router word counts must
  match the active engine exactly at every worker count, on any host.
  A mismatch exits non-zero — this is the same hard gate the replay
  benchmark applies.

* **Speedup is host-aware.**  The >= 2.5x cycles/sec target at 4
  workers only makes sense where 4 CPUs are actually available
  (:func:`repro.wse.shard.available_workers`); on smaller hosts — CI
  containers here expose a single CPU, where barrier PDES necessarily
  *loses* to in-process stepping — the measured ratio is recorded with
  ``speedup_gate: "skipped"`` and the benchmark still passes.  The
  committed artifact therefore always reports the honest number and
  the CPU count it was measured on.

Run directly (``python benchmarks/bench_shard.py``) or via ``make
bench-smoke``; ``--quick`` shrinks the mesh for CI smoke runs.
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
from repro.wse.shard import available_workers

SHAPE = (16, 16, 2)
QUICK_SHAPE = (6, 6, 2)
RTOL = 5e-3
MAXITER = 12
SPEEDUP_TARGET = 2.5
WORKER_COUNTS = (2, 4)


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


def run_engine(engine: str, workers: int, op, b) -> dict:
    """One warm-up solve (engine + shard-worker construction), then one
    measured steady-state solve."""
    solver = DESBiCGStab(op, options=RunOptions(
        engine=engine, workers=workers))
    try:
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
    finally:
        solver.close()
    stats = {
        "workers": workers,
        "wall_seconds": round(wall, 4),
        "setup_seconds": round(setup, 4),
        "fabric_cycles_simulated": cycles,
        "cycles_per_second": round(cycles / wall, 1),
        "iterations": res2.iterations,
    }
    return {"stats": stats, "snap": snap}


def _equivalence(snaps: dict) -> dict:
    base = snaps["active"]
    eq = {}
    for key, s in snaps.items():
        if key == "active":
            continue
        eq[f"x_identical_{key}"] = bool(np.array_equal(
            base["x"].view(np.uint64), s["x"].view(np.uint64)))
        eq[f"residuals_identical_{key}"] = (
            base["residuals"] == s["residuals"])
        eq[f"kernel_cycles_identical_{key}"] = (
            base["kernel_cycles"] == s["kernel_cycles"])
        eq[f"link_words_identical_{key}"] = (
            base["link_words"] == s["link_words"])
    return eq


def run(shape=SHAPE, out_path: str | Path = "BENCH_shard.json",
        worker_counts=WORKER_COUNTS) -> dict:
    sys_ = momentum_system(shape, reynolds=50.0, dt=0.02)
    op, b = sys_.operator, sys_.b

    runs, snaps = {}, {}
    r = run_engine("active", 1, op, b)
    runs["active"], snaps["active"] = r["stats"], r["snap"]
    for w in worker_counts:
        r = run_engine("sharded", w, op, b)
        key = f"sharded_{w}w"
        runs[key], snaps[key] = r["stats"], r["snap"]

    cpus = available_workers()
    top = max(worker_counts)
    speedup = round(
        runs[f"sharded_{top}w"]["cycles_per_second"]
        / runs["active"]["cycles_per_second"], 2)
    gated = cpus >= top
    result = {
        "benchmark": "sharded_des_engine",
        "workload": {
            "mesh": list(shape),
            "fabric": (f"{shape[0]}x{shape[1]} tiles (spmv) + "
                       f"{shape[1]}x{shape[0]} tiles (allreduce)"),
            "tiles_per_fabric": shape[0] * shape[1],
            "rtol": RTOL,
            "maxiter": MAXITER,
            "iterations": runs["active"]["iterations"],
        },
        "host_cpus_available": cpus,
        "active": runs["active"],
        **{k: v for k, v in runs.items() if k != "active"},
        "speedup_cycles_per_second": speedup,
        "speedup_target": SPEEDUP_TARGET,
        "speedup_gate": (
            "enforced" if gated else
            f"skipped (needs >= {top} CPUs, host has {cpus}; barrier PDES "
            "on an oversubscribed host measures scheduling, not scaling)"
        ),
        "equivalence": _equivalence(snaps),
    }
    Path(out_path).write_text(json.dumps(result, indent=2) + "\n")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help=f"small mesh {QUICK_SHAPE} for smoke runs")
    ap.add_argument("--out", default="BENCH_shard.json")
    args = ap.parse_args(argv)
    shape = QUICK_SHAPE if args.quick else SHAPE
    result = run(shape=shape, out_path=args.out)
    print(json.dumps(result, indent=2))
    eq = result["equivalence"]
    if not all(eq.values()):
        print("EQUIVALENCE FAILURE between active and sharded runs:", eq)
        return 1
    top = max(WORKER_COUNTS)
    line = (
        f"\n{result['workload']['fabric']}: "
        f"{result[f'sharded_{top}w']['cycles_per_second']:.0f} cycles/s "
        f"(sharded, {top}w) vs "
        f"{result['active']['cycles_per_second']:.0f} cycles/s (active) = "
        f"{result['speedup_cycles_per_second']:.2f}x "
        f"on {result['host_cpus_available']} CPU(s)"
    )
    print(line)
    if result["speedup_gate"] == "enforced" and (
            result["speedup_cycles_per_second"] < SPEEDUP_TARGET):
        print(f"SPEEDUP GATE FAILED: {result['speedup_cycles_per_second']}x "
              f"< {SPEEDUP_TARGET}x at {top} workers")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
