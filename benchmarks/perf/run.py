"""The repo's benchmark: host time per phase, six named workloads.

    python3 benchmarks/perf/run.py                      # all six, one set
    python3 benchmarks/perf/run.py --trace 1            # per-layer metrics
    python3 benchmarks/perf/run.py --sets 10            # repeatability table
    python3 benchmarks/perf/run.py --workload NAME --seed 7 --seconds 8

With ``--workload`` the workload runs in this process and the last line
of standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``): the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Without it every workload runs
in a fresh interpreter of its own, sets interleaved round-robin (set
``k`` uses ``--seed + k``).  The exit code is non-zero when any check
failed.  ``README.md`` in this directory says what each number means.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

T_START = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

import repro  # noqa: E402,F401  (fails here, before any output, without src/)

from measure import format_summary, peak_rss_mb, summarize  # noqa: E402
from spans import (OP, OTHER, SETUP, Tracer, conservation_errors,  # noqa: E402
                   self_times, tree_errors)
from workloads import GOLDEN_SEED, WORKLOADS, Ledger, check_golden  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
GOLDEN = HERE / "golden.json"
#: Everything the benchmark writes (span files, exports) goes here.
OUT_DIR = ROOT / ".bench_out"

SETUPS = 3          # cold set-ups per run; setup_s is their median
QUICK_SECONDS = 1


def layer_medians(roots: dict, kind: str) -> dict:
    """Median over the roots of one kind of each layer's self seconds
    (a layer absent from a root counts as 0 there)."""
    picked = [r for r in roots.values() if r["name"] == kind]
    names = {n for r in picked for n in r["layers"]}
    return {n: statistics.median(r["layers"].get(n, 0.0) for r in picked)
            for n in names}


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 quick: bool, regen: bool, scratch: Path) -> dict:
    """One run of one workload in this process; returns the full record
    (``line`` is the driver's last-line object)."""
    ledger = Ledger()
    tracer = Tracer()
    tracer.enabled = traced
    if traced:
        tracer.install()
    wl = WORKLOADS[name](seed, quick, tracer, ledger, scratch)
    ops = {True: [], False: []}      # op seconds by "was this op traced"
    setups, counts, n = [], {}, 0
    try:
        # Three rounds of [cold set-up, ops for a third of --seconds], so
        # the op samples are spread over the whole run: a burst of host
        # noise shorter than the run then misses most of them.
        for k in range(SETUPS):
            gc.unfreeze()
            wl.close()              # the previous round's objects go first
            gc.collect()
            t0 = time.perf_counter()
            with tracer.root(SETUP, k):
                wl.setup()
            setups.append(time.perf_counter() - t0)
            wl.verify_setup()
            wl.warm()
            gc.collect()
            gc.freeze()
            before = wl.counters()
            first, deadline = n, time.perf_counter() + seconds / SETUPS
            while n == first or time.perf_counter() < deadline:
                # A traced run times every other op with the recorder off:
                # same process, same state, so the ratio is the overhead.
                tracer.enabled = traced and n % 2 == 0
                gc.collect()
                t0 = time.perf_counter()
                with tracer.root(OP, SETUPS + n):
                    result = wl.op()
                ops[tracer.enabled].append(time.perf_counter() - t0)
                wl.verify(result)
                n += 1
            tracer.enabled = traced
            for key, value in wl.counters().items():
                counts[key] = counts.get(key, 0) + value - before[key]
        rss_mb = peak_rss_mb()      # before the end-of-run checks allocate
        stats = wl.finish()
        golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
        key = f"{name}@quick" if quick else name
        if regen:
            golden[key] = stats
            GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        elif seed == GOLDEN_SEED:
            check_golden(ledger, stats, golden.get(key))

        op_summary, setup_summary = summarize(ops[traced]), summarize(setups)
        record = {
            "workload": name, "seed": seed, "quick": quick, "traced": traced,
            "setup_s": setup_summary, "op_s": op_summary,
            "reported": {k: {"value": v, "unit": u} for k, (v, u) in
                         wl.report(op_summary["median"]).items()},
            "simulated": stats,
        }
        if traced:
            per_op = {key: value / n for key, value in counts.items()}
            metrics = layer_metrics(wl, tracer, ledger, ops, per_op,
                                    setup_summary["median"])
            metrics.update({k: m["value"]
                            for k, m in record["reported"].items()})
            record["spans"] = tracer.spans
        else:
            metrics = {"setup_s": setup_summary["median"],
                       "op_s": op_summary["median"],
                       "peak_rss_mb": rss_mb}
    finally:
        wl.close()
        tracer.uninstall()
        gc.unfreeze()
    kind = "per_layer" if traced else "end_to_end"
    units = {m["name"]: m["unit"] for m in SPEC[kind]}
    record["failures"] = ledger.failures
    record["line"] = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted, "failed": ledger.failed,
        "metrics": {k: {"value": metrics.get(k, 0.0), "unit": units[k]}
                    for k in units},
    }
    record["measured"] = sorted(metrics)
    return record


def layer_metrics(wl, tracer, ledger, ops, per_op, setup_median) -> dict:
    """Per-layer metrics of a traced run, after the conservation checks."""
    for err in tree_errors(tracer.spans):
        ledger.check(False, f"span tree: {err}")
    roots = self_times(tracer.spans)
    errors = conservation_errors(roots)
    ledger.check(not errors, "; ".join(errors))
    setup_s, op_s = layer_medians(roots, SETUP), layer_medians(roots, OP)
    if wl.named_setup_share is not None:
        named = 1.0 - setup_s[OTHER] / setup_median
        ledger.check(named >= wl.named_setup_share,
                     f"named spans cover {named:.1%} of set-up, "
                     f"need {wl.named_setup_share:.0%}")
    metrics = {f"{layer}.setup_s": v for layer, v in setup_s.items()}
    metrics.update({f"{layer}.op_s": v for layer, v in op_s.items()})
    metrics.update(wl.layer_metrics(per_op, op_s))
    metrics["bench.trace_overhead_ratio"] = (
        statistics.median(ops[True]) / statistics.median(ops[False]))
    return metrics


def print_record(record: dict) -> None:
    """Every metric by name with its unit, then the driver's line."""
    line = record["line"]
    print(f"== {record['workload']} (seed {record['seed']}"
          f"{', quick' if record['quick'] else ''}"
          f"{', traced' if record['traced'] else ''})")
    print(format_summary("setup_s", "s", record["setup_s"]))
    print(format_summary("op_s", "s", record["op_s"]))
    for k, m in record["reported"].items():
        print(f"{k:<28} {m['value']:.6g} {m['unit']}")
    for k, m in line["metrics"].items():
        if k not in ("setup_s", "op_s"):
            print(f"{k:<44} {m['value']:.6g} {m['unit']}")
    unlisted = set(record["measured"]) - set(line["metrics"])
    if unlisted:
        print("measured but not listed in BENCHMARK.json: "
              + ", ".join(sorted(unlisted)))
    share = line["failed"] / line["attempted"]
    print(f"ops_attempted {line['attempted']}  ops_failed {line['failed']}  "
          f"failed_share {share:.6g}")
    for failure in record["failures"]:
        print(f"FAILED: {failure}")
    print(json.dumps(line))


# ----------------------------------------------------------------------
# All workloads, each in a fresh interpreter
# ----------------------------------------------------------------------
def run_all(args, scratch: Path) -> int:
    names = list(WORKLOADS)
    records = []
    for k in range(args.sets):
        for name in names:          # round-robin, never one back to back
            out = scratch / f"{name}-{k}.json"
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed + k), "--trace", str(args.trace),
                   "--out", str(out)]
            if args.seconds is not None:
                cmd += ["--seconds", str(args.seconds)]
            cmd += ["--quick"] * args.quick + ["--regen-golden"] * args.regen_golden
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            sys.stdout.write(proc.stdout)
            if not out.exists():
                print(f"{name}: no result (exit code {proc.returncode})")
                return 1
            records.append(json.loads(out.read_text()))
    failed = sum(r["line"]["failed"] for r in records)
    if args.sets >= 4 and not args.trace:   # quartiles of fewer mean nothing
        print_spreads(records, names)
    if args.out:
        Path(args.out).write_text(json.dumps(records, indent=1) + "\n")
    return 1 if failed else 0


def print_spreads(records: list, names: list) -> None:
    """Per workload and end-to-end metric: the median over the sets and
    the inter-quartile distance as a share of it, against the bound."""
    print(f"\n{'workload':<26}{'metric':<13}{'median':>12}{'iqr/median':>12}"
          f"{'bound':>8}")
    for name in names:
        for m in SPEC["end_to_end"]:
            vals = [r["line"]["metrics"][m["name"]]["value"]
                    for r in records if r["workload"] == name]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            print(f"{name:<26}{m['name']:<13}{med:>12.5g}"
                  f"{(q3 - q1) / med:>12.4f}{m['bound']:>8.2f}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=list(WORKLOADS),
                    help="run this one here (default: all, one process each)")
    ap.add_argument("--seed", type=int, default=GOLDEN_SEED)
    ap.add_argument("--seconds", type=float,
                    help=f"measuring time per run (default: run_seconds of "
                    f"BENCHMARK.json, {QUICK_SECONDS} with --quick)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: record spans, report the per-layer metrics")
    ap.add_argument("--quick", action="store_true",
                    help="shrunk shapes; a smoke test of the harness, "
                    "never a number to quote")
    ap.add_argument("--sets", type=int, default=1,
                    help="with no --workload: sets of all workloads")
    ap.add_argument("--out", help="write the full record(s) as JSON")
    ap.add_argument("--regen-golden", action="store_true",
                    help="rewrite golden.json from this run (seed 42 only)")
    args = ap.parse_args(argv)
    if args.regen_golden and args.seed != GOLDEN_SEED:
        ap.error(f"--regen-golden pins seed {GOLDEN_SEED}")
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as scratch:
        scratch = Path(scratch)
        if args.workload is None:
            return run_all(args, scratch)
        seconds = args.seconds if args.seconds is not None else (
            QUICK_SECONDS if args.quick else SPEC["run_seconds"])
        record = run_workload(args.workload, args.seed, seconds,
                              bool(args.trace), args.quick,
                              args.regen_golden, scratch)
    record["wall_s"] = time.perf_counter() - T_START
    spans = record.pop("spans", None)
    if spans is not None:
        path = OUT_DIR / f"spans-{args.workload}.json"
        path.write_text(json.dumps(spans))
        print(f"spans written to {path.relative_to(ROOT)}")
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print_record(record)
    return 1 if record["line"]["failed"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
