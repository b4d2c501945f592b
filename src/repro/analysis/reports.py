"""Ready-made experiment reports (the CLI's and notebooks' entry point).

Each function regenerates one of the paper's tables/figures (or a
supporting study) as a printable string, using the same code paths as
the benchmark harness.  ``python -m repro <name>`` dispatches here.
"""

from __future__ import annotations

import numpy as np

from .reporting import ascii_plot, format_table, paper_vs_measured

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
    "REPORTS",
]


def headline_report() -> str:
    """Section V's measured results (model-side)."""
    from ..perfmodel import HEADLINE_MESH, WaferPerfModel

    m = WaferPerfModel()
    t = m.iteration_time(HEADLINE_MESH)
    bd = m.iteration_breakdown(HEADLINE_MESH)
    out = [paper_vs_measured([
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
    ])]
    out.append("")
    out.append(format_table(
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
    ))
    return "\n".join(out)


def allreduce_report() -> str:
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
    out = [format_table(
        ["fabric", "cores", "DES cycles", "model (no overhead)"],
        rows, title="simulated AllReduce vs latency model",
    )]
    cycles = allreduce_latency_cycles(g.fabric_width, g.fabric_height)
    out.append("")
    out.append(paper_vs_measured([
        {"quantity": "full-wafer latency (us)", "paper": "< 1.5",
         "measured": round(allreduce_latency_seconds() * 1e6, 3)},
        {"quantity": "cycles / diameter", "paper": "~1.1",
         "measured": round(cycles / g.diameter, 3)},
    ]))
    return "\n".join(out)


def table1_report() -> str:
    """Table I: ops per meshpoint per iteration."""
    from ..perfmodel import measured_counts, table1

    rows = []
    for r in table1():
        label = f"{r.name} (x{r.count})" if r.count else r.name
        rows.append((label, r.sp_add, r.sp_mul, r.mixed_hp_add,
                     r.mixed_hp_mul, r.mixed_sp_add))
    out = [format_table(
        ["Operation", "SP +", "SP x", "HP +", "HP x", "SP + (mixed)"],
        rows, title="Table I: operations per meshpoint per iteration",
    )]
    m = measured_counts(iterations=4)
    out.append(
        f"\ninstrumented solver: {m['matvec_mul']:.0f} matvec multiplies, "
        f"{m['matvec_add']:.0f} adds per point per iteration, "
        f"{m['dots_per_iteration']:.0f} dots per iteration"
    )
    return "\n".join(out)


def table2_report() -> str:
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
    return format_table(
        ["SIMPLE step", "paper cycles/point", "measured (our assembly)"],
        rows,
        title="Table II: cycles per meshpoint (excluding the solver)",
    )


def balance_report() -> str:
    """Fig. 1 data."""
    from ..perfmodel import balance_table

    return format_table(
        ["system", "year", "flops/word mem", "flops/word net"],
        [(e.system, e.year, e.flops_per_word_memory,
          e.flops_per_word_interconnect) for e in balance_table()],
        title="Fig. 1: machine balance (8-byte words)",
    )


def routing_report() -> str:
    """Fig. 5 tessellation."""
    from ..wse import channel_map, verify_tessellation

    colors = channel_map(10, 6)
    verify_tessellation(colors)
    lines = ["Fig. 5: c(x,y) = (x + 2y) mod 5 (property verified)"]
    for y in range(5, -1, -1):
        lines.append("  " + " ".join(str(colors[y, x]) for x in range(10)))
    return "\n".join(lines)


def cluster_report() -> str:
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
    out = [format_table(
        ["cores", "370^3 ms/iter", "600^3 ms/iter", "600^3 frac of peak"],
        rows, title="Figs. 7-8: modeled Joule 2.0 strong scaling",
    )]
    out.append("")
    out.append(ascii_plot(
        cores,
        {"370^3": [r[1] for r in rows], "600^3": [r[2] for r in rows]},
        logy=True, title="time per iteration (ms)",
    ))
    out.append(f"\nCS-1 ratio at 16K cores: {cm.cs1_speedup():.0f}x "
               "(paper: about 214x)")
    return "\n".join(out)


def fig9_report(shape=(50, 200, 50)) -> str:
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
    out = [format_table(
        ["iteration", "single", "mixed"],
        [(int(i), float(histories["single"][i - 1]),
          float(histories["mixed"][i - 1])) for i in iters],
        title=f"Fig. 9: relative residual, momentum system {shape}",
        floatfmt=".3e",
    ), "", ascii_plot(iters, histories, logy=True)]
    return "\n".join(out)


def spmv2d_report() -> str:
    """Section IV.2's 2D-mapping claims."""
    from ..kernels import Block2DModel, max_block_size, max_mesh_extent

    rows = []
    for b in (4, 8, 16, 38, 39):
        m = Block2DModel.for_block(b)
        rows.append((f"{b}x{b}", m.memory_bytes, "yes" if m.fits else "NO",
                     f"{m.overhead * 100:.1f}%"))
    out = [format_table(
        ["block", "tile bytes", "fits 48KB", "overhead"],
        rows, title="2D mapping (9-point stencil)",
    )]
    out.append(f"\nmax block {max_block_size()}x{max_block_size()} "
               f"=> {max_mesh_extent(600)}^2 mesh on a 600^2 fabric "
               "(paper: 38x38 / 22800x22800; <20% overhead at 8x8)")
    return "\n".join(out)


def cfd_report() -> str:
    """Section VI.A throughput projection."""
    from ..perfmodel import SimpleCostModel

    m = SimpleCostModel()
    lo, hi = m.timesteps_per_second_range()
    return paper_vs_measured([
        {"quantity": "timesteps/s @600^3, 15 iters", "paper": "80-125",
         "measured": f"{lo:.0f}-{hi:.0f}"},
        {"quantity": "speedup vs 16K-core Joule", "paper": "> 200",
         "measured": round(m.joule_speedup(), 0)},
    ])


def capacity_report() -> str:
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
    out = [format_table(
        ["wafer generation", "SRAM", "max CFD cells", "max cube"],
        rows, title="memory-capacity roadmap (paper section VIII.B)",
    ), ""]
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
    out.append(format_table(
        ["application", "cells", "fits CS-1", "steps/s", "real-time",
         "vs cited system"],
        arows, title="section VIII use cases on the CS-1",
    ))
    return "\n".join(out)


def sweep_report() -> str:
    """Section V mesh size/shape predictions."""
    from ..perfmodel import WaferPerfModel

    m = WaferPerfModel()
    meshes = [(600, 595, z) for z in (256, 512, 1024, 1536, 2048)]
    recs = m.sweep_mesh_shape(meshes)
    return format_table(
        ["mesh", "us/iter", "PFLOPS", "frac of peak"],
        [(f"{r['mesh'][0]}x{r['mesh'][1]}x{r['mesh'][2]}",
          round(r["time_us"], 2), round(r["pflops"], 3),
          round(r["fraction_of_peak"], 3)) for r in recs],
        title="mesh shape sweep (calibrated model)",
    )


def ablation_report() -> str:
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
    return format_table(
        ["Z", "4 blocking AllReduces (us)", "3 batched (us)", "gain"],
        rows,
        title="communication-reduction ablation (the variant the paper "
              "notes it did not use)",
    )


def roofline_report() -> str:
    """Roofline analysis: why ~1% on CPUs, ~1/3 on the wafer (§I)."""
    from ..perfmodel import roofline_table

    rows = [
        (r["machine"], round(r["ridge_flop_per_byte"], 3),
         round(r["solver_intensity"], 3), r["bound"],
         f"{r['attainable_fraction'] * 100:.1f}%")
        for r in roofline_table()
    ]
    return format_table(
        ["machine", "ridge (flop/B)", "BiCGStab intensity", "bound",
         "attainable frac of peak"],
        rows,
        title="roofline: the balance argument of the paper's introduction",
    )


def multiwafer_report() -> str:
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
    out = [format_table(
        ["link bandwidth", "us/iter (4 wafers)", "weak-scaling eff",
         "meshpoints"],
        rows,
        title="clustering wafers: what 'sufficient bandwidth' means",
    )]
    out.append(
        f"\nhalo hides behind compute above "
        f"{m.sufficient_bandwidth() / 1e9:.0f} GB/s per boundary "
        f"(headline slab 600 x 595 x 1536 per wafer)"
    )
    return "\n".join(out)


def energy_report() -> str:
    """Energy & space: the per-watt and 1/3-rack claims (abstract)."""
    from ..perfmodel import EnergyModel

    cmp = EnergyModel().compare()
    em = EnergyModel()
    return format_table(
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
    )


def des_scale_report(shape=(16, 16, 2), engine="active", workers=1) -> str:
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
    out = format_table(
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
    )
    # Engines that record carry a replay session worth reporting.
    for label, eng in (("spmv", solver._spmv_eng),
                       ("allreduce", solver._ar_eng)):
        sess = eng.replay if eng is not None else None
        if sess is None:
            continue
        out += (
            f"\n  replay[{label}]: records={sess.records} "
            f"replays={sess.replays} fallbacks={sess.fallbacks} "
            f"invalidations={sess.invalidations}"
        )
        for d in sess.diagnostics:
            out += f"\n    {d}"
    return out


def lint_report() -> str:
    """Static analysis of every shipped kernel program (zero = healthy)."""
    from ..wse.analyze.lint import lint_report_text

    return lint_report_text()


def observed_trace_report() -> str:
    """Observed DES solve: per-phase cycles, telemetry, fabric stats."""
    from ..obs.cli import trace_report

    return trace_report()


def verify_contracts_report() -> str:
    """Run every program, check observed words/cycles against contracts."""
    from ..wse.analyze.verify_contracts import verify_report_text

    return verify_report_text()


def profile_solve_report() -> str:
    """Profiled DES solve: top bottleneck, critical path, slack."""
    from ..obs.cli import profile_report

    return profile_report()


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
}
