"""cProfile over one measured pass of an end-to-end benchmark workload.

    python3 benchmarks/cprofile_pass.py --workload dash_short --top 30
    python3 benchmarks/cprofile_pass.py --workload tpch_cold --callees select_scan
    python3 benchmarks/cprofile_pass.py --query q18
    python3 benchmarks/cprofile_pass.py --workload iot_ingest --pass 8 --query service_tick

"Attribute first": builds the workload exactly as ``benchmarks/e2e/run.py``
does (its own ``build``, one warm-up pass, ``gc.freeze``), then runs one more
pass of its own schedule under ``cProfile`` and prints the top functions by
self time and by cumulative time.  ``--pass N`` profiles the N-th pass after
the warm-up instead, the N - 1 before it run unprofiled (a cost that grows
with the catalog shows late).  ``--query PATTERN`` profiles only the ops whose class (``q18``,
``dash_recent``, ``copy``, ...) the regular expression matches, by wrapping
the workload instance's ``run_op``; its workload defaults to ``tpch_warm``.
``--callers PATTERN`` / ``--callees PATTERN`` then print the call edges into
/ out of every function whose ``file:line(name)`` matches the regular
expression: which caller a hot function's time comes from, and where a
function's cumulative time goes.
The profiler taxes every Python call and no
native one, so the proportions lean towards call-heavy code: use this to find
candidates, and ``make bench-pairs`` (profiling off) to measure them.

``benchmarks/e2e/workloads.py`` is imported read-only; nothing under
``benchmarks/e2e`` is edited or imported by the benchmark from here.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import pstats
import re
import sys
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parents[1]
DEFAULT_SEED = 42


def profile_pass(
    name: str, seed: int, quick: bool, query: Optional[str] = None, number: int = 1
) -> pstats.Stats:
    """Build ``name``, warm it up, run ``number - 1`` passes unprofiled, and
    profile the next one, or only the ops of it whose class matches
    ``query``."""
    sys.path[:0] = [str(ROOT / "benchmarks" / "e2e"), str(ROOT / "src")]
    from harness import Pass
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, quick)
    workload.build()
    for index in range(number):
        workload.run_pass(Pass(), index)
    gc.collect()
    gc.freeze()
    profiler = cProfile.Profile()
    if query is not None:
        wanted, run_op = re.compile(query), workload.run_op

        def profiled(call):
            profiler.enable()
            try:
                return call()
            finally:
                profiler.disable()

        def run_matching_op(p, cls, call, judge):
            if wanted.search(cls):
                return run_op(p, cls, lambda: profiled(call), judge)
            return run_op(p, cls, call, judge)

        workload.run_op = run_matching_op
    measured = Pass()
    if query is None:
        profiler.enable()
    try:
        workload.run_pass(measured, number)
    finally:
        profiler.disable()
    if measured.failed:
        sys.exit(f"{name}: {measured.failed} of {measured.requests} requests failed")
    if query is None:
        print(f"{name}, seed {seed}: pass {number}, {measured.requests} requests profiled")
        return pstats.Stats(profiler)
    ops = sum(bool(wanted.search(op.cls)) for op in measured.ops)
    if not ops:
        sys.exit(f"{name} has no op class matching {query!r}")
    print(f"{name}, seed {seed}: pass {number}, {ops} ops matching {query!r} profiled")
    return pstats.Stats(profiler)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    parser.add_argument(
        "--workload", choices=[w["name"] for w in declared],
        help="default: dash_short, or tpch_warm with --query",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--top", type=int, default=30, help="rows per table")
    parser.add_argument("--quick", action="store_true", help="tiny inputs")
    parser.add_argument("--pass", dest="number", type=int, default=1, metavar="N",
                        help="profile the N-th pass after the warm-up (default 1)")
    parser.add_argument("--query", metavar="PATTERN",
                        help="profile only the ops whose class matches PATTERN")
    parser.add_argument("--callers", metavar="PATTERN",
                        help="print the callers of functions matching PATTERN")
    parser.add_argument("--callees", metavar="PATTERN",
                        help="print the callees of functions matching PATTERN")
    args = parser.parse_args()
    workload = args.workload or ("tpch_warm" if args.query else "dash_short")
    stats = profile_pass(workload, args.seed, args.quick, args.query, args.number)
    stats.strip_dirs()
    for order in ("tottime", "cumulative"):
        stats.sort_stats(order).print_stats(args.top)
    if args.callers:
        stats.print_callers(args.callers)
    if args.callees:
        stats.print_callees(args.callees)
    return 0


if __name__ == "__main__":
    sys.exit(main())
