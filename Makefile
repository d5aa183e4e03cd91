PY := PYTHONPATH=src python

.PHONY: default test test-fast lint loc knobs reach sim-smoke differential-smoke sim-campaign campaigns bench bench-smoke bench-e2e bench-e2e-smoke bench-pairs bench-check figures profile work design-picks obs-demo

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
# lines, every file over the ~600-line rule, and the lines of every tracked
# `*.py` file (tests and benchmarks too: a change shrinks the repository,
# not only `src/`).
loc:
	@find src -name '*.py' | xargs wc -l | sort -rn | awk '\
		$$2 == "total" { printf "src/ total: %d lines (target <= 22000)\n", $$1; next } \
		$$1 > 600 { printf "  over 600: %5d %s\n", $$1, $$2 }'
	@git ls-files -z '*.py' | xargs -0 cat | wc -l | awk '{ printf "tracked *.py total: %d lines\n", $$1 }'

# The three censuses `tests/test_public_surface.py` pins, each ending with a
# count line: the defaulted parameters of `src/` functions that no call in
# src/, benchmarks/ or examples/ passes; the functions, classes and methods
# nothing there names; the options-dataclass fields nothing there sets.
knobs:
	@$(PY) tests/test_public_surface.py

# The reach census: runs every program (the four e2e workloads traced and
# untraced, the campaigns, the sim, the examples, the legacy benches) under a
# profile hook and rewrites REACH.json, one entry per src/ function none of
# them enters, each keeping its committed reason; exit 1 while one has none.
# About ten minutes, not tier-1; takes no arguments.
reach:
	python3 benchmarks/reach.py

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

# The 300-campaign equality check: every generator profile at seeds 0-29,
# one line per campaign (clean or not, trace digest, final-state hash).  Two
# trees that behave the same print the same bytes: `cmp` their outputs.
campaigns:
	python3 benchmarks/campaigns.py

# Every bench and its shape assertions, printing the tables they exist for.
bench:
	$(PY) -m pytest benchmarks -q -s

# Quick benchmark confidence check: the Fig-10 TPC-H bench (including the
# I/O scheduler on/off ablation) at its tiny default scale; prints its tables.
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

# This checkout's end-to-end run at seed 42, every workload, against the
# `change` side of the newest committed BENCH_<pr>.json: every sim metric,
# stored_bytes_per_user_byte, correct and failed must be equal to the last
# digit, and so must the figure card where the file records one (exit 1 and
# the differing values otherwise; about three minutes).
bench-check:
	python3 benchmarks/bench_check.py

# The paper's shapes as one card (benchmarks/figures.py, about 25 s): Figs
# 10, 11a, 11b and 12 and E9, computed by the benches' own code paths and
# printed beside the paper's readings.  BENCH_<pr>.json records it as
# `figures` (`python3 benchmarks/figures.py --json`); bench-check compares it.
figures:
	python3 benchmarks/figures.py

# Attribute before optimizing: cProfile over one measured pass of a benchmark
# workload's own schedule, top functions by self and by cumulative time.
# `make profile WORKLOAD=dash_short TOP=40`; CALLERS= / CALLEES= (a regular
# expression over `file:line(function)`) add that function's call edges:
# `make profile WORKLOAD=tpch_cold CALLEES=select_scan`.  QUERY= profiles
# only the ops whose class matches, on tpch_warm unless WORKLOAD= says
# otherwise: `make profile QUERY=q18`.  PASS=N profiles the N-th pass after
# the warm-up (a cost that grows with the catalog shows late):
# `make profile WORKLOAD=iot_ingest PASS=8 QUERY=service_tick`.
profile:
	python3 benchmarks/cprofile_pass.py $(if $(WORKLOAD),--workload $(WORKLOAD)) $(if $(SEED),--seed $(SEED)) $(if $(PASS),--pass $(PASS)) $(if $(TOP),--top $(TOP)) $(if $(QUERY),--query '$(QUERY)') $(if $(CALLERS),--callers '$(CALLERS)') $(if $(CALLEES),--callees '$(CALLEES)')

# Deterministic work counts of one pass (ops, max-flow solves, blocks decoded,
# join key encoders, Python calls) per op class of dash_short and tpch_warm
# at quick scale; tests/test_work_budget.py pins the totals.  WORKLOAD= one
# workload, FULL=1 the full inputs, TREE= another checkout (a parent clone),
# PASS=N the N-th pass after the warm-up instead of the first:
# `make work TREE=../parent FULL=1`, `make work WORKLOAD=iot_ingest PASS=8`.
work:
	python3 benchmarks/work.py $(if $(WORKLOAD),--workload $(WORKLOAD)) $(if $(FULL),--full) $(if $(TREE),--tree $(TREE)) $(if $(PASS),--pass $(PASS))

# Every DatabaseDesigner._search assignment of the designer tests, the 300
# campaigns and E9, in this tree and in TREE (a parent clone): prints the
# searches whose design differs.  `make design-picks TREE=../parent`; a few
# minutes, not tier-1.
design-picks:
	python3 benchmarks/design_picks.py $(if $(TREE),--tree $(TREE))

# Observability walkthrough: trace a TPC-H query, print the span tree,
# the operator profile, and sample v_monitor system-table queries.
obs-demo:
	$(PY) examples/obs_demo.py
