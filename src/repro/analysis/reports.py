"""Ready-made experiment reports: one path per paper artifact.

Each function regenerates one of the paper's tables/figures (or a
supporting study) and returns its blocks as data — :class:`Table` rows,
:class:`Plot` series and text lines.  :func:`rendered` is the one loop
that turns them into text: ``python -m repro <name>``, ``all`` and
``write-report`` all go through it, and ``tests/test_paper_claims.py``
asserts the paper's claims on the same rows.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .reporting import Plot, Table, comparison, render

__all__ = [
    "headline_report",
    "allreduce_report",
    "table1_report",
    "table2_report",
    "balance_report",
    "routing_report",
    "cluster_report",
    "fig9_report",
    "spmv2d_report",
    "cfd_report",
    "capacity_report",
    "sweep_report",
    "ablation_report",
    "roofline_report",
    "multiwafer_report",
    "energy_report",
    "des_scale_report",
    "observed_trace_report",
    "intro_report",
    "spmv3d_report",
    "stream_report",
    "validation_report",
    "precision_report",
    "REPORTS",
    "rendered",
    "write_report",
]


def headline_report() -> list:
    """Section V's measured results (model-side)."""
    from ..perfmodel import HEADLINE_MESH, WaferPerfModel

    m = WaferPerfModel()
    t = m.iteration_time(HEADLINE_MESH)
    bd = m.iteration_breakdown(HEADLINE_MESH)
    return [comparison([
        {"quantity": "time / iteration (us)", "paper": 28.1,
         "measured": round(t * 1e6, 2)},
        {"quantity": "achieved PFLOPS", "paper": 0.86,
         "measured": round(m.pflops(HEADLINE_MESH), 3)},
        {"quantity": "fraction of peak", "paper": "~1/3",
         "measured": round(m.fraction_of_peak(HEADLINE_MESH), 3)},
        {"quantity": "GFLOPS per watt", "paper": 43.0,
         "measured": round(m.gflops_per_watt(HEADLINE_MESH), 1)},
        {"quantity": "tile storage (KB)", "paper": "~31",
         "measured": round(m.storage_bytes_per_tile(1536) / 1024, 1)},
    ]), "", Table(
        ["component", "cycles / iteration"],
        [
            ("2 x SpMV", round(bd.spmv_cycles, 0)),
            ("4 x dot (compute)", round(bd.dot_compute_cycles, 0)),
            ("6 x AXPY", round(bd.axpy_cycles, 0)),
            (f"overhead x{bd.overhead_factor:.2f}",
             round(bd.compute_cycles * (bd.overhead_factor - 1), 0)),
            ("4 x AllReduce", round(bd.allreduce_cycles, 0)),
            ("total", round(bd.total_cycles, 0)),
        ],
        title="per-core cycle breakdown, 600x595x1536",
    )]


def allreduce_report() -> list:
    """Fig. 6 / the <1.5 us AllReduce."""
    from ..wse import (
        CS1,
        allreduce_latency_cycles,
        allreduce_latency_seconds,
        simulate_allreduce,
    )

    g = CS1.geometry
    rng = np.random.default_rng(0)
    rows = []
    for w, h in [(8, 8), (16, 16), (32, 16)]:
        vals = rng.standard_normal((h, w)).astype(np.float32)
        _, cycles = simulate_allreduce(vals)
        rows.append((f"{w}x{h}", w * h, cycles,
                     allreduce_latency_cycles(w, h, stage_overhead=0)))
    cycles = allreduce_latency_cycles(g.fabric_width, g.fabric_height)
    return [Table(
        ["fabric", "cores", "DES cycles", "model (no overhead)"],
        rows, title="simulated AllReduce vs latency model",
    ), "", comparison([
        {"quantity": "full-wafer latency (us)", "paper": "< 1.5",
         "measured": round(allreduce_latency_seconds() * 1e6, 3)},
        {"quantity": "cycles / diameter", "paper": "~1.1",
         "measured": round(cycles / g.diameter, 3)},
    ])]


def table1_report() -> list:
    """Table I: ops per meshpoint per iteration."""
    from ..perfmodel import measured_counts, table1

    rows = []
    for r in table1():
        label = f"{r.name} (x{r.count})" if r.count else r.name
        rows.append((label, r.sp_add, r.sp_mul, r.mixed_hp_add,
                     r.mixed_hp_mul, r.mixed_sp_add))
    m = measured_counts(iterations=4)
    return [Table(
        ["Operation", "SP +", "SP x", "HP +", "HP x", "SP + (mixed)"],
        rows, title="Table I: operations per meshpoint per iteration",
    ), f"\ninstrumented solver: {m['matvec_mul']:.0f} matvec multiplies, "
       f"{m['matvec_add']:.0f} adds per point per iteration, "
       f"{m['dots_per_iteration']:.0f} dots per iteration"]


def table2_report() -> list:
    """Table II: SIMPLE phase cycles."""
    from ..cfd import OpCounter, lid_driven_cavity
    from ..perfmodel import table2

    solver = lid_driven_cavity(n=12)
    solver.counter = OpCounter(enabled=True)
    solver.iterate(solver.initialize())
    measured = solver.counter.report()
    rows = []
    for p in table2():
        lo, hi = p.printed_total
        got = measured.get(p.name, {}).get("cycles", 0.0)
        rows.append((p.name, f"{lo}-{hi}", round(got, 1)))
    return [Table(
        ["SIMPLE step", "paper cycles/point", "measured (our assembly)"],
        rows,
        title="Table II: cycles per meshpoint (excluding the solver)",
    )]


def balance_report() -> list:
    """Fig. 1 data."""
    from ..perfmodel import balance_table

    return [Table(
        ["system", "year", "flops/word mem", "flops/word net"],
        [(e.system, e.year, e.flops_per_word_memory,
          e.flops_per_word_interconnect) for e in balance_table()],
        title="Fig. 1: machine balance (8-byte words)",
    )]


def routing_report() -> list:
    """Fig. 5 tessellation."""
    from ..wse import channel_map, verify_tessellation

    colors = channel_map(10, 6)
    verify_tessellation(colors)
    return ["Fig. 5: c(x,y) = (x + 2y) mod 5 (property verified)"] + [
        "  " + " ".join(str(colors[y, x]) for x in range(10))
        for y in range(5, -1, -1)
    ]


def cluster_report() -> list:
    """Figs. 7-8 scaling curves and the 214x ratio."""
    from ..perfmodel import ClusterModel

    cm = ClusterModel()
    cores = [1024, 2048, 4096, 8192, 16384]
    rows = [
        (c,
         round(cm.iteration_time((370,) * 3, c) * 1e3, 2),
         round(cm.iteration_time((600,) * 3, c) * 1e3, 2),
         f"{cm.fraction_of_peak((600,) * 3, c) * 100:.2f}%")
        for c in cores
    ]
    return [Table(
        ["cores", "370^3 ms/iter", "600^3 ms/iter", "600^3 frac of peak"],
        rows, title="Figs. 7-8: modeled Joule 2.0 strong scaling",
    ), "", Plot(
        cores,
        {"370^3": [r[1] for r in rows], "600^3": [r[2] for r in rows]},
        title="time per iteration (ms)",
    ), f"\nCS-1 ratio at 16K cores: {cm.cs1_speedup():.0f}x "
       "(paper: about 214x)"]


def fig9_report(shape=(50, 200, 50)) -> list:
    """Fig. 9 residual histories."""
    from ..problems import fig9_momentum_system
    from ..solver import bicgstab

    sys_ = fig9_momentum_system(shape=shape)
    histories = {}
    for prec in ("single", "mixed"):
        res = bicgstab(sys_.operator, sys_.b, precision=prec, rtol=0.0,
                       maxiter=15, record_true_residual=True)
        histories[prec] = np.array(res.true_residuals)
    iters = np.arange(1, 16)
    return [Table(
        ["iteration", "single", "mixed"],
        [(int(i), float(histories["single"][i - 1]),
          float(histories["mixed"][i - 1])) for i in iters],
        title=f"Fig. 9: relative residual, momentum system {shape}",
        floatfmt=".3e",
    ), "", Plot(iters, histories)]


def spmv2d_report() -> list:
    """Section IV.2's 2D-mapping claims."""
    from ..kernels import Block2DModel, max_block_size, max_mesh_extent

    rows = []
    for b in (4, 8, 16, 38, 39):
        m = Block2DModel.for_block(b)
        rows.append((f"{b}x{b}", m.memory_bytes, "yes" if m.fits else "NO",
                     f"{m.overhead * 100:.1f}%"))
    return [Table(
        ["block", "tile bytes", "fits 48KB", "overhead"],
        rows, title="2D mapping (9-point stencil)",
    ), f"\nmax block {max_block_size()}x{max_block_size()} "
       f"=> {max_mesh_extent(600)}^2 mesh on a 600^2 fabric "
       "(paper: 38x38 / 22800x22800; <20% overhead at 8x8)"]


def cfd_report() -> list:
    """Section VI.A throughput projection."""
    from ..perfmodel import SimpleCostModel

    m = SimpleCostModel()
    lo, hi = m.timesteps_per_second_range()
    return [comparison([
        {"quantity": "timesteps/s @600^3, 15 iters", "paper": "80-125",
         "measured": f"{lo:.0f}-{hi:.0f}"},
        {"quantity": "speedup vs 16K-core Joule", "paper": "> 200",
         "measured": round(m.joule_speedup(), 0)},
    ])]


def capacity_report() -> list:
    """Section VIII.B roadmap and applications."""
    from ..perfmodel import (
        APPLICATIONS,
        ROADMAP,
        assess_application,
        max_cube_edge,
        max_meshpoints,
    )

    rows = [(n.name, f"{n.sram_gb:.0f} GB",
             f"{max_meshpoints(n) / 1e6:.0f} M cells",
             f"{max_cube_edge(n)}^3") for n in ROADMAP]
    arows = []
    for app in APPLICATIONS:
        a = assess_application(app)
        arows.append((
            app.name[:44],
            f"{app.cells / 1e6:.1f} M",
            "yes" if a.fits else "NO",
            round(a.steps_per_second, 1),
            "-" if a.realtime_factor is None else f"{a.realtime_factor:.1f}x",
            "-" if a.speedup is None else f"{a.speedup:.0f}x",
        ))
    return [Table(
        ["wafer generation", "SRAM", "max CFD cells", "max cube"],
        rows, title="memory-capacity roadmap (paper section VIII.B)",
    ), "", Table(
        ["application", "cells", "fits CS-1", "steps/s", "real-time",
         "vs cited system"],
        arows, title="section VIII use cases on the CS-1",
    )]


def sweep_report() -> list:
    """Section V mesh size/shape predictions."""
    from ..perfmodel import WaferPerfModel

    m = WaferPerfModel()
    meshes = [(600, 595, z) for z in (256, 512, 1024, 1536, 2048)]
    recs = m.sweep_mesh_shape(meshes)
    return [Table(
        ["mesh", "us/iter", "PFLOPS", "frac of peak"],
        [(f"{r['mesh'][0]}x{r['mesh'][1]}x{r['mesh'][2]}",
          round(r["time_us"], 2), round(r["pflops"], 3),
          round(r["fraction_of_peak"], 3)) for r in recs],
        title="mesh shape sweep (calibrated model)",
    )]


def ablation_report() -> list:
    """Collective-schedule ablation: blocking vs batched reductions."""
    from ..perfmodel import WaferPerfModel

    m = WaferPerfModel()
    rows = []
    for z in (64, 256, 1024, 1536):
        mesh = (600, 595, z)
        t4 = m.iteration_time_with_schedule(mesh, (1, 1, 1, 1))
        t3 = m.iteration_time_with_schedule(mesh, (1, 2, 2))
        rows.append((z, round(t4 * 1e6, 2), round(t3 * 1e6, 2),
                     f"{(t4 / t3 - 1) * 100:.1f}%"))
    return [Table(
        ["Z", "4 blocking AllReduces (us)", "3 batched (us)", "gain"],
        rows,
        title="communication-reduction ablation (the variant the paper "
              "notes it did not use)",
    )]


def roofline_report() -> list:
    """Roofline analysis: why ~1% on CPUs, ~1/3 on the wafer (§I)."""
    from ..perfmodel import roofline_table

    rows = [
        (r["machine"], round(r["ridge_flop_per_byte"], 3),
         round(r["solver_intensity"], 3), r["bound"],
         f"{r['attainable_fraction'] * 100:.1f}%")
        for r in roofline_table()
    ]
    return [Table(
        ["machine", "ridge (flop/B)", "BiCGStab intensity", "bound",
         "attainable frac of peak"],
        rows,
        title="roofline: the balance argument of the paper's introduction",
    )]


def multiwafer_report() -> list:
    """Multi-wafer clustering (§VIII.B's closing direction)."""
    from ..perfmodel import MultiWaferModel

    rows = []
    for bw in (50e9, 150e9, 300e9, 600e9):
        m = MultiWaferModel(link_bandwidth=bw)
        pt = m.point(4, 595)
        rows.append((f"{bw / 1e9:.0f} GB/s", round(pt.iteration_seconds * 1e6, 2),
                     f"{pt.efficiency * 100:.0f}%",
                     f"{pt.total_meshpoints / 1e9:.2f} B"))
    m = MultiWaferModel()
    return [Table(
        ["link bandwidth", "us/iter (4 wafers)", "weak-scaling eff",
         "meshpoints"],
        rows,
        title="clustering wafers: what 'sufficient bandwidth' means",
    ), f"\nhalo hides behind compute above "
       f"{m.sufficient_bandwidth() / 1e9:.0f} GB/s per boundary "
       f"(headline slab 600 x 595 x 1536 per wafer)"]


def energy_report() -> list:
    """Energy & space: the per-watt and 1/3-rack claims (abstract)."""
    from ..perfmodel import EnergyModel

    cmp = EnergyModel().compare()
    em = EnergyModel()
    return [Table(
        ["quantity", "CS-1", "Joule @16K cores"],
        [
            ("joules / BiCGStab iteration",
             round(cmp.wafer_joules_per_iteration, 3),
             round(cmp.cluster_joules_per_iteration, 1)),
            ("GFLOPS / W", round(cmp.wafer_gflops_per_watt, 1),
             round(cmp.cluster_gflops_per_watt, 4)),
            ("pJ / flop", round(em.wafer_picojoules_per_flop(), 1),
             round(1000 / cmp.cluster_gflops_per_watt, 0)),
            ("racks", "1/3", round(cmp.cluster_racks, 1)),
            ("energy ratio / iteration", 1.0, round(cmp.energy_ratio, 0)),
        ],
        title="energy and space (paper: per-watt and per-size 'beyond what "
              "has been reported')",
    )]


def des_scale_report(shape=(16, 16, 2), engine="active", workers=1) -> list:
    """BiCGStab on the word-level simulator at 256 tiles (16 x 16).

    The largest fabric exercised anywhere else in the suite is 8 x 8
    (64 tiles); this demo runs the full discrete simulation — every
    SpMV and AllReduce as fabric programs, persistent engines, the
    event-driven active-set stepping — on a fabric 4x larger, and
    reports the engine's observability counters alongside the solve.
    ``engine`` selects the stepping engine (``python -m repro des-scale
    --engine replay`` records iteration 1 and replays the rest as
    compiled NumPy schedules; ``--engine sharded --workers N`` steps the
    fabrics through N shard processes, bit-identically).
    """
    import time

    from ..api import RunOptions
    from ..kernels.bicgstab_des import DESBiCGStab
    from ..problems import momentum_system
    from ..wse.engines import ENGINE_TABLE

    sys_ = momentum_system(shape, reynolds=50.0, dt=0.02)
    solver = DESBiCGStab(
        sys_.operator, options=RunOptions(engine=engine, workers=workers))
    t0 = time.perf_counter()
    res = solver.solve(sys_.b, rtol=5e-3, maxiter=30)
    wall = time.perf_counter() - t0
    solver.close()
    rep = solver.report
    cycles = skipped = words = 0
    peak_r = peak_c = router_cycles = core_cycles = 0
    for eng in (solver._spmv_eng, solver._ar_eng):
        if eng is None:
            continue
        st = eng.fabric.stats
        cycles += st.cycles
        skipped += st.skipped_cycles
        words += eng.fabric.total_words_moved
        router_cycles += st.active_router_cycles
        core_cycles += st.active_core_cycles
        peak_r = max(peak_r, st.peak_active_routers)
        peak_c = max(peak_c, st.peak_active_cores)
    stepped = cycles - skipped
    nx, ny, nz = shape
    out = [Table(
        ["quantity", "value"],
        [
            ("fabric", f"2 x {nx}x{ny} tiles ({2 * nx * ny} total; "
                       "largest elsewhere in suite: 8x8)"),
            ("mesh", f"{nx} x {ny} x {nz}"),
            ("converged", str(res.converged)),
            ("iterations", res.iterations),
            ("final residual", f"{res.residuals[-1]:.2e}"),
            ("timeline cycles / fabric", rep.total_cycles),
            ("fabric cycles simulated", cycles),
            ("stepped / skipped", f"{stepped} / {skipped}"),
            ("words moved", words),
            ("mean active routers", round(router_cycles / max(stepped, 1), 1)),
            ("mean awake cores", round(core_cycles / max(stepped, 1), 1)),
            ("peak active routers / cores", f"{peak_r} / {peak_c}"),
            ("wall seconds", round(wall, 2)),
            ("cycles / second", round(cycles / wall, 0)),
        ],
        title=f"event-driven DES at 16x16 ({engine} engine"
              + (f", {workers} workers)" if ENGINE_TABLE[engine].forks
                 else ")"),
    )]
    # Engines that record carry a replay session worth reporting.
    for label, eng in (("spmv", solver._spmv_eng),
                       ("allreduce", solver._ar_eng)):
        sess = eng.replay if eng is not None else None
        if sess is None:
            continue
        out.append(
            f"  replay[{label}]: records={sess.records} "
            f"replays={sess.replays} fallbacks={sess.fallbacks} "
            f"invalidations={sess.invalidations}"
        )
        out.extend(f"    {d}" for d in sess.diagnostics)
    return out


def lint_report() -> list:
    """Static analysis of every shipped kernel program (zero = healthy)."""
    from ..wse.analyze.lint import lint_report_text

    return [lint_report_text()]


def observed_trace_report() -> list:
    """Observed DES solve: per-phase cycles, telemetry, fabric stats."""
    from ..obs.cli import trace_report

    return [trace_report()]


def verify_contracts_report() -> list:
    """Run every program, check observed words/cycles against contracts."""
    from ..wse.analyze.verify_contracts import verify_report_text

    return [verify_report_text()]


def profile_solve_report() -> list:
    """Profiled DES solve: top bottleneck, critical path, slack."""
    from ..obs.cli import profile_report

    return [profile_report()]


def intro_report() -> list:
    """Section I framing: HPCG-class fraction of peak, cluster vs CS-1."""
    from ..perfmodel import (
        HEADLINE_MESH,
        ClusterModel,
        WaferPerfModel,
        cs1_balance,
    )

    cm = ClusterModel()
    rows = [(c, round(cm.fraction_of_peak((600, 600, 600), c) * 100, 2))
            for c in (1024, 4096, 16384)]
    wafer = WaferPerfModel().fraction_of_peak(HEADLINE_MESH)
    return [Table(
        ["cores", "% of fp64 peak"], rows,
        title="modeled Joule BiCGStab, 600^3: fraction of peak "
              "(HPCG-class regime)",
    ), "", comparison([
        {"quantity": "cluster % of peak", "paper": "0.5-3.1 (HPCG top 20)",
         "measured": f"{min(r[1] for r in rows)}-{max(r[1] for r in rows)}",
         "note": "MFIX-class BiCGStab; same bandwidth-bound regime"},
        {"quantity": "CS-1 % of peak", "paper": "~33",
         "measured": round(wafer * 100, 1)},
        {"quantity": "CS-1 flops per 8B memory word", "paper": "~2.7",
         "measured": round(cs1_balance().flops_per_word_memory, 2),
         "note": "the balance that makes the fraction possible"},
    ])]


def spmv3d_report() -> list:
    """Listing 1 / Fig. 4: one SpMV on the tile simulator vs the model."""
    from ..kernels import run_spmv_des
    from ..perfmodel import WaferPerfModel
    from ..problems import Stencil7

    shape = (4, 4, 32)
    pre, _, _ = Stencil7.from_random(
        shape, rng=np.random.default_rng(2)).jacobi_precondition()
    v = 0.1 * np.random.default_rng(21).standard_normal(shape)
    u, cycles = run_spmv_des(pre, v)
    v16 = np.asarray(v, np.float16).astype(np.float64)
    ref = (pre.to_csr() @ v16.ravel()).reshape(shape)
    z = shape[2]
    return [Table(
        ["quantity", "value"],
        [
            ("fabric-limited lower bound (Z)", z),
            ("discrete simulation (cycles)", cycles),
            ("ideal issue model (3Z)", 3 * z),
            ("calibrated model budget", round(
                WaferPerfModel().compute_overhead * 3 * z, 1)),
            ("max |DES - CSR|", float(np.max(np.abs(u - ref)))),
        ],
        title=f"SpMV cycles, {shape} mesh column (Z={z})",
    )]


def stream_report() -> list:
    """Section II.A: tile memory sustains the SIMD compute rate."""
    from ..kernels import run_stream_suite

    return [Table(
        ["kernel", "length", "cycles", "elements/cycle", "bound",
         "utilization"],
        [(r.kernel, r.length, r.cycles, round(r.elements_per_cycle, 2),
          r.bound, round(r.utilization, 3))
         for r in run_stream_suite(lengths=(64, 256, 1024))],
        title="tile streaming kernels vs architectural bounds",
    )]


def validation_report() -> list:
    """Section V's model validation against the word-level simulator."""
    from ..perfmodel import ModelValidator

    outcome = ModelValidator().validate()
    return [Table(
        ["Z", "DES cycles", "lower bound (Z)", "model budget", "in envelope"],
        [(p.z, p.des_cycles, int(p.lower_bound), round(p.model_budget, 0),
          "yes" if p.within_envelope else "NO") for p in outcome["spmv"]],
        title="SpMV (Listing 1 program) vs model, 3x3 fabric",
    ), "", Table(
        ["fabric", "DES cycles", "model cycles", "rel error"],
        [(f"{p.fabric[0]}x{p.fabric[1]}", p.des_cycles, p.model_cycles,
          round(p.relative_error, 3)) for p in outcome["allreduce"]],
        title="AllReduce (Fig. 6 routing) vs latency model",
    )]


def precision_report() -> list:
    """The precision trade: accuracy vs capacity vs speed (abstract)."""
    from ..perfmodel import WaferPerfModel
    from ..problems import momentum_system
    from ..solver import bicgstab

    m = WaferPerfModel()
    sys_ = momentum_system((12, 12, 16), reynolds=100.0, dt=0.02)
    rows = []
    for prec in ("half", "mixed", "single", "double"):
        res = bicgstab(sys_.operator, sys_.b, precision=prec, rtol=0.0,
                       maxiter=30, record_true_residual=True)
        max_z = m.max_z_for_precision(prec)
        # Time at the headline footprint, Z clamped to what fits.
        mesh = (600, 595, min(1536, max_z))
        rows.append((prec, float(min(res.true_residuals)), max_z, mesh[2],
                     round(m.iteration_time_for_precision(mesh, prec) * 1e6,
                           1)))
    return [Table(
        ["precision", "best true residual", "max Z/tile",
         "Z at headline footprint", "us/iter"],
        rows, title="the precision trade: accuracy vs capacity vs speed",
        floatfmt=".3g",
    )]


#: CLI dispatch table: name -> report function.
REPORTS = {
    "headline": headline_report,
    "allreduce": allreduce_report,
    "table1": table1_report,
    "table2": table2_report,
    "fig1": balance_report,
    "fig5": routing_report,
    "figs78": cluster_report,
    "fig9": fig9_report,
    "spmv2d": spmv2d_report,
    "cfd": cfd_report,
    "capacity": capacity_report,
    "sweep": sweep_report,
    "ablation": ablation_report,
    "roofline": roofline_report,
    "multiwafer": multiwafer_report,
    "energy": energy_report,
    "des-scale": des_scale_report,
    "lint": lint_report,
    "verify-contracts": verify_contracts_report,
    "trace": observed_trace_report,
    "profile": profile_solve_report,
    "intro": intro_report,
    "spmv3d": spmv3d_report,
    "stream": stream_report,
    "validation": validation_report,
    "precision": precision_report,
}


def rendered(names: Iterable[str] | None = None,
             **options) -> Iterator[tuple[str, str]]:
    """Build each named report (all by default) and render it; yields
    ``(name, text)``.

    A report that raises propagates, so no caller reports success over
    a broken model.
    """
    for name in REPORTS if names is None else names:
        yield name, render(REPORTS[name](**options))


_HEADER = """\
# Regenerated experiment reports

Machine-generated by `python -m repro write-report` from the current
code; compare against EXPERIMENTS.md for the annotated paper-vs-measured
discussion.  Sections correspond to the CLI report names.
"""


def write_report(path: str | Path = "experiments_regenerated.md",
                 names=None) -> Path:
    """Write the named reports (all by default) as one markdown file."""
    path = Path(path)
    parts = [_HEADER]
    for name, text in rendered(n for n in REPORTS
                               if names is None or n in names):
        doc = (REPORTS[name].__doc__ or "").strip().splitlines()[0]
        parts += [f"\n## {name} — {doc}\n", "```text", text, "```"]
    path.write_text("\n".join(parts) + "\n", encoding="utf-8")
    return path
