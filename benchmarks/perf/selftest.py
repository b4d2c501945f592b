"""Self-test of the benchmark harness (a plain script, not a tier-1 test).

    python3 benchmarks/perf/selftest.py

Runs every workload in ``--quick`` mode, untraced and traced, and checks
the contract between ``BENCHMARK.json`` and what ``run.py`` emits.
Exits non-zero with a list of what is wrong.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from spans import tree_errors  # noqa: E402
from workloads import WORKLOADS, Ledger, check_golden  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
METRIC_KEYS = {"end_to_end": {"name", "unit", "better", "bound"},
               "per_layer": {"name", "unit", "better"}}


def spec_errors(spec: dict) -> list[str]:
    errors = []
    if set(spec) != {"command", "paths", "run_seconds", "workloads",
                     "end_to_end", "per_layer"}:
        errors.append(f"BENCHMARK.json keys are {sorted(spec)}")
    names = [w["name"] for w in spec["workloads"]]
    for kind, keys in METRIC_KEYS.items():
        for m in spec[kind]:
            names.append(m["name"])
            if set(m) != keys:
                errors.append(f"{kind} {m.get('name')}: keys {sorted(m)}")
            if not UNIT.fullmatch(m["unit"]):
                errors.append(f"{m['name']}: unit {m['unit']!r}")
            if m["better"] not in ("lower", "higher"):
                errors.append(f"{m['name']}: better {m['better']!r}")
            if kind == "end_to_end" and not 0 <= m["bound"] <= 0.25:
                errors.append(f"{m['name']}: bound {m['bound']}")
    for name in names:
        if not NAME.fullmatch(name):
            errors.append(f"bad name {name!r}")
    if len(names) != len(set(names)):
        errors.append("a name is used twice")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        errors.append("workloads of BENCHMARK.json and run.py differ")
    if not any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in spec["end_to_end"]):
        errors.append("end_to_end lacks setup_s")
    return errors


def run_errors(spec: dict, workload: str, trace: int, measured: set
               ) -> list[str]:
    """One quick run: the last line and the full record are well formed,
    every listed metric is emitted and every measured one is listed.
    Adds the names the run really measured to ``measured``."""
    tag = f"{workload} --trace {trace}"
    out = ROOT / ".bench_out" / "selftest.json"
    out.parent.mkdir(exist_ok=True)
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--quick", "--trace", str(trace), "--out", str(out)],
        stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        return [f"{tag}: exit code {proc.returncode}"]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads(out.read_text())
    out.unlink()
    errors = []
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{tag}: last line has keys {sorted(line)}")
    if not (line["correct"] is True and line["failed"] == 0
            and isinstance(line["attempted"], int) and line["attempted"] >= 1):
        errors.append(f"{tag}: correct/attempted/failed are "
                      f"{line['correct']}/{line['attempted']}/{line['failed']}")
    kind = "per_layer" if trace else "end_to_end"
    listed = {m["name"]: m["unit"] for m in spec[kind]}
    if set(line["metrics"]) != set(listed):
        errors.append(f"{tag}: emitted metrics differ from {kind}")
    for name, m in line["metrics"].items():
        if set(m) != {"value", "unit"} or m["unit"] != listed.get(name):
            errors.append(f"{tag}: {name} is {m}")
        elif isinstance(m["value"], bool) or not isinstance(m["value"], (int, float)):
            errors.append(f"{tag}: {name} value {m['value']!r}")
        elif not trace and m["value"] <= 0:
            errors.append(f"{tag}: end-to-end {name} is {m['value']}")
    measured.update(record["measured"])
    if set(record["measured"]) - set(listed):
        errors.append(f"{tag}: measured but not in BENCHMARK.json: "
                      f"{sorted(set(record['measured']) - set(listed))}")
    if trace:
        spans = json.loads(
            (ROOT / ".bench_out" / f"spans-{workload}.json").read_text())
        errors += [f"{tag}: {e}" for e in tree_errors(spans)]
        if not spans:
            errors.append(f"{tag}: no spans recorded")
    return errors


def golden_errors() -> list[str]:
    """A wrong golden must be counted as one failed operation."""
    golden = json.loads((HERE / "golden.json").read_text())
    errors = []
    for key, stats in golden.items():
        ledger = Ledger()
        check_golden(ledger, stats, stats)
        wrong = dict(stats, **{next(iter(stats)): "wrong"})
        check_golden(ledger, stats, wrong)
        check_golden(ledger, stats, None)
        if (ledger.attempted, ledger.failed) != (3, 2):
            errors.append(f"golden {key}: attempted {ledger.attempted}, "
                          f"failed {ledger.failed}, expected 3 and 2")
    for name in WORKLOADS:
        for key in (name, f"{name}@quick"):
            if key not in golden:
                errors.append(f"golden.json lacks {key}")
    return errors


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = spec_errors(spec) + golden_errors()
    measured: set = set()
    for workload in WORKLOADS:
        for trace in (0, 1):
            print(f"selftest: {workload} --trace {trace}", flush=True)
            errors += run_errors(spec, workload, trace, measured)
    never = {m["name"] for k in METRIC_KEYS for m in spec[k]} - measured
    if never:
        errors.append(f"listed but measured by no workload: {sorted(never)}")
    for e in errors:
        print(f"SELFTEST FAILED: {e}")
    print("selftest ok" if not errors else f"{len(errors)} error(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
