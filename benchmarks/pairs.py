"""Alternating-pairs comparison of the working tree against a parent commit.

    python3 benchmarks/pairs.py --parent <rev> --workload <name> [-n 10]
    make perf-pairs PARENT=<rev> WORKLOAD=<name> [N=10] [SEED=42]

The protocol of ``benchmarks/perf/README.md`` ("Comparing two commits"),
automated: ``git clone`` the parent into ``.bench_out/parent``, overlay
the working tree's ``benchmarks/perf/`` and ``BENCHMARK.json`` so both
sides are measured by identical benchmark code, byte-compile both trees'
``src/``, then run N pairs of

    python3 benchmarks/perf/run.py --workload W --seed S --seconds T --trace 0

parent first on even pairs, change first on odd.  Prints every run, each
side's median and quartiles per end-to-end metric, wins and ties, and the
verdict by the README rule: a gain needs at least nine tenths of the pairs
won (ties count for neither side) and a median gap wider than the parent's
own inter-quartile spread.  This script only calls ``benchmarks/perf``; it
is not part of the benchmark.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PARENT_DIR = ROOT / ".bench_out" / "parent"


def clone_parent(rev: str) -> Path:
    """A fresh clone of ``rev`` measured by the working tree's benchmark."""
    if PARENT_DIR.exists():
        shutil.rmtree(PARENT_DIR)
    PARENT_DIR.parent.mkdir(exist_ok=True)
    subprocess.run(["git", "clone", "-q", str(ROOT), str(PARENT_DIR)], check=True)
    subprocess.run(["git", "-C", str(PARENT_DIR), "checkout", "-q", "--detach", rev],
                   check=True)
    shutil.rmtree(PARENT_DIR / "benchmarks" / "perf")
    shutil.copytree(ROOT / "benchmarks" / "perf", PARENT_DIR / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", PARENT_DIR / "BENCHMARK.json")
    # Byte-compile both trees: a tree with stale or missing .pyc files
    # pays source compilation in every fresh interpreter, which is most
    # of a timed cold import (gate-shipped's set-up is one).
    for tree in (ROOT, PARENT_DIR):
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(tree / "src")],
                       check=True)
    return PARENT_DIR


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run in ``tree``; returns the driver's last-line object."""
    proc = subprocess.run(
        [sys.executable, str(tree / "benchmarks" / "perf" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{tree}: run.py printed nothing (exit {proc.returncode})")
    return json.loads(lines[-1])


def quartiles(values: list) -> tuple:
    """``(q1, median, q3)``; a single sample is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def _fmt(q: tuple) -> str:
    return "/".join(f"{x:.4g}" for x in q)


def verdict(parent: list, change: list, better: str) -> dict:
    """Wins, ties and the README rule for one metric's paired samples."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * c < sign * p for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    gap = sign * (pmed - cmed)
    gain = wins >= 0.9 * len(parent) and gap > (pq3 - pq1)
    return {"wins": wins, "ties": ties, "pairs": len(parent),
            "parent": (pq1, pmed, pq3), "change": (cq1, cmed, cq3),
            "ratio": cmed / pmed if pmed else float("nan"),
            "gap": gap, "parent_iqr": pq3 - pq1, "gain": gain}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision to compare against")
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in SPEC["workloads"]])
    ap.add_argument("-n", "--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    args = ap.parse_args(argv)

    parent_tree = clone_parent(args.parent)
    metrics = SPEC["end_to_end"]
    samples = {side: {m["name"]: [] for m in metrics} for side in ("parent", "change")}
    failed = 0
    for k in range(args.pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        row = {}
        for side in order:
            line = run_once(parent_tree if side == "parent" else ROOT,
                            args.workload, args.seed, args.seconds)
            failed += line["failed"]
            row[side] = line
            for m in metrics:
                samples[side][m["name"]].append(line["metrics"][m["name"]]["value"])
        print(f"pair {k:>2} ({order[0]} first)  " + "  ".join(
            f"{m['name']} {row['parent']['metrics'][m['name']]['value']:.4g}"
            f" -> {row['change']['metrics'][m['name']]['value']:.4g}"
            for m in metrics), flush=True)

    print(f"\n{args.workload}, seed {args.seed}, {args.pairs} pairs, "
          f"--seconds {args.seconds:g}; parent {args.parent}")
    print(f"{'metric':<13}{'parent q1/med/q3':>30}{'change q1/med/q3':>30}"
          f"{'ratio':>8}{'wins':>6}{'ties':>6}  verdict")
    for m in metrics:
        v = verdict(samples["parent"][m["name"]], samples["change"][m["name"]],
                    m["better"])
        worse = v["ratio"] - 1 if m["better"] == "lower" else 1 - v["ratio"]
        if v["gain"]:
            word = "gain"
        elif worse > m["bound"]:
            word = f"REGRESSION (bound {m['bound']:.0%})"
        else:
            word = "no claim"
        print(f"{m['name']:<13}{_fmt(v['parent']):>30}{_fmt(v['change']):>30}"
              f"{v['ratio']:>8.3f}{v['wins']:>6}{v['ties']:>6}  {word} "
              f"(gap {v['gap']:.4g} vs parent IQR {v['parent_iqr']:.4g})")
    if failed:
        print(f"{failed} benchmark check(s) failed")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
