# Convenience targets for the repro library.

.PHONY: install test lint verify-contracts certify-numerics sanitize check trace profile perf perf-quick perf-pairs bench bench-verbose examples report all clean

install:
	pip install -e . --no-build-isolation || python setup.py develop

test:
	pytest tests/ -q

# Static checks: the wafer-program analyzer over every shipped kernel,
# byte-compilation of the whole source tree, and (when installed) pyflakes.
lint:
	PYTHONPATH=src python -m repro lint
	python -m compileall -q src
	@if python -c "import pyflakes" 2>/dev/null; \
		then python -m pyflakes src; \
		else echo "pyflakes not installed; skipped"; fi

# Dynamic verification: run every shipped program under the DES engine
# and hold the observed per-router word counts (exactly) and cycle
# counts (>= the static lower bound) to each program's StaticContract.
verify-contracts:
	PYTHONPATH=src python -m repro verify-contracts

# Numerics certification: the static mixed-precision error bounds of
# every shipped program held against each run's recorded schedule
# re-evaluated in fp64 — observed error <= certified bound <= tolerance,
# and the unscaled mfix-like variant rejected with a confirmed witness.
certify-numerics:
	PYTHONPATH=src python -m repro certify-numerics

# Race-sanitized runs: every shipped program twice (plain vs sanitizer
# attached), checked race-free and bit-identical at the byte level.
sanitize:
	PYTHONPATH=src python -m repro sanitize

# The pre-PR gate: static analysis, contract verification against the
# engine (plus a 2-worker sharded-equivalence leg — every shipped
# program bit-identical across shard processes), race-sanitized runs,
# then the tier-1 test suite (logging its ten slowest tests).  Run before
# every PR.
check: lint verify-contracts certify-numerics sanitize
	PYTHONPATH=src python -m repro verify-contracts --engine sharded --workers 2
	PYTHONPATH=src python -m pytest -x -q --durations=10

# Observed DES solve: per-phase cycle table + iteration telemetry on
# stdout, Chrome-trace JSON (open in chrome://tracing / ui.perfetto.dev)
# and per-tile utilization heatmaps on disk.  See docs/observability.md.
trace:
	PYTHONPATH=src python -m repro trace

# Profiled DES solve: causal critical-path profile — top bottleneck
# (phase, tile, wait reason), per-phase slack vs the static contracts,
# speedscope flamegraph (profile_flame.txt) and a Chrome trace with
# critical-path tracks (profile_trace.json).  See docs/observability.md.
profile:
	PYTHONPATH=src python -m repro profile

# The layered host-time benchmark (BENCHMARK.json + benchmarks/perf/):
# set-up, one steady-state operation and peak memory on six named
# workloads, each in a fresh interpreter; add `--trace 1` by hand for
# the per-layer breakdown.  `perf-quick` shrinks every shape (~30 s) and
# only smoke-tests the harness — its numbers mean nothing.  See
# benchmarks/perf/README.md, including how to compare two commits.
perf:
	python3 benchmarks/perf/run.py

perf-quick:
	python3 benchmarks/perf/selftest.py
	python3 benchmarks/perf/run.py --quick

# The protocol for claiming a gain, automated: N alternating pairs of one
# workload, working tree against a clone of PARENT (in .bench_out/parent,
# measured by the working tree's benchmarks/perf/), with per-side median
# and quartiles, wins/ties and the README verdict.
#   make perf-pairs PARENT=HEAD~1 WORKLOAD=bicgstab-replay-headline [N=10] [SEED=42]
perf-pairs:
	python3 benchmarks/pairs.py --parent $(PARENT) --workload $(WORKLOAD) \
		--pairs $(or $(N),10) --seed $(or $(SEED),42)

# The paper-reproduction reports (bench_headline / bench_fig* /
# bench_table* ...): they assert shapes and ratios, not host speed —
# host time is `make perf` above and nothing else.
bench:
	PYTHONPATH=src python -m pytest benchmarks/ --benchmark-only -q

bench-verbose:
	PYTHONPATH=src python -m pytest benchmarks/ --benchmark-only -s

examples:
	@for ex in examples/*.py; do \
		echo "== $$ex"; python $$ex || exit 1; \
	done

report:
	python -m repro write-report

all: test bench

clean:
	rm -rf build dist src/*.egg-info .pytest_benchmark .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
