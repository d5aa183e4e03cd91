PY := PYTHONPATH=src python

.PHONY: default test test-fast lint loc sim-smoke differential-smoke sim-campaign bench bench-smoke bench-e2e bench-e2e-smoke bench-pairs profile obs-demo

# Default flow: lint, then the tier-1 suite.
default: lint test

# Tier-1: the full test suite (includes the marked campaigns).
test:
	$(PY) -m pytest -x -q

# Inner-loop subset: everything except the campaigns, the differential
# walls and the slow sweeps.
test-fast:
	$(PY) -m pytest -x -q -m "not campaign and not differential and not slow"

# Lint with ruff when available; fall back to a syntax sweep (compileall)
# so `make lint` is meaningful in offline environments without ruff.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks examples; \
	else \
		echo "ruff not installed; falling back to python -m compileall"; \
		$(PY) -m compileall -q src tests benchmarks examples; \
	fi

# ROADMAP's size targets, read not recomputed: `src/` total against <= 22k
# lines and every file over the ~600-line rule.
loc:
	@find src -name '*.py' | xargs wc -l | sort -rn | awk '\
		$$2 == "total" { printf "src/ total: %d lines (target <= 22000)\n", $$1; next } \
		$$1 > 600 { printf "  over 600: %5d %s\n", $$1, $$2 }'

# Campaign confidence check: every `run_campaign` wall (the `campaign`
# marker) — the 25-seed base corpus plus the boosted generator profiles.
# One wall alone: `make sim-smoke K=chaos` (or wm, autoscale, pushdown,
# doctor, designer; K=simulation for the base corpus, ~7 s) passes `-k`.
sim-smoke:
	$(PY) -m pytest -m campaign -q $(if $(K),-k $(K))

# Differential confidence check (the `differential` marker): the pushdown
# scan-strategy wall (on/off bit-identical digests and depot demand) and the
# designer wall (emitted DDL parses and binds; digests survive re-designs).
# `make differential-smoke K=pushdown` (or designer) runs one of them.
differential-smoke:
	$(PY) -m pytest -m differential -q $(if $(K),-k $(K))

# Longer chaos run straight from the CLI (prints per-seed digests).
sim-campaign:
	$(PY) -m repro.sim --seeds 25

bench:
	$(PY) -m pytest benchmarks -q

# Quick benchmark confidence check: the Fig-10 TPC-H bench (including the
# I/O scheduler on/off ablation) at its tiny default scale, BENCH JSON out.
bench-smoke:
	$(PY) -m pytest benchmarks/bench_fig10_tpch.py -q -s

# The two-clock end-to-end benchmark BENCHMARK.json declares: all four
# workloads, untraced then traced (finds src/ itself; a few minutes).
# One run of one workload: `make bench-e2e WORKLOAD=iot_ingest TRACE=1 SEED=42`
# (prints the result as one JSON line).
bench-e2e:
	python3 benchmarks/e2e/run.py $(if $(WORKLOAD),--workload $(WORKLOAD)) $(if $(SEED),--seed $(SEED)) $(if $(TRACE),--trace $(TRACE))

# Its smoke test on tiny inputs (answers checked against pinned digests).
bench-e2e-smoke:
	python -m pytest benchmarks/e2e -q

# Parent-against-change table for a performance PR: PAIRS alternating runs
# of each checkout's own benchmarks/e2e/run.py, one seed per pair from SEED0.
# `make bench-pairs PARENT=/root/scratch/parent WORKLOAD=tpch_warm PAIRS=10 SEED0=501`
# (no WORKLOAD = all four; TRACE=1 compares the per-layer metrics).
bench-pairs:
	python3 benchmarks/pairs.py --parent $(PARENT) --seed0 $(SEED0) $(if $(WORKLOAD),--workload $(WORKLOAD)) $(if $(PAIRS),--pairs $(PAIRS)) $(if $(TRACE),--trace $(TRACE))

# Attribute before optimizing: cProfile over one measured pass of a benchmark
# workload's own schedule, top functions by self and by cumulative time.
# `make profile WORKLOAD=dash_short TOP=40`
profile:
	python3 benchmarks/profile.py $(if $(WORKLOAD),--workload $(WORKLOAD)) $(if $(SEED),--seed $(SEED)) $(if $(TOP),--top $(TOP))

# Observability walkthrough: trace a TPC-H query, print the span tree,
# the operator profile, and sample v_monitor system-table queries.
obs-demo:
	$(PY) examples/obs_demo.py
