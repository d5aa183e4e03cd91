"""cProfile over one measured pass of an end-to-end benchmark workload.

    python3 benchmarks/profile.py --workload dash_short --top 30
    python3 benchmarks/profile.py --workload tpch_cold --callees select_scan

"Attribute first": builds the workload exactly as ``benchmarks/e2e/run.py``
does (its own ``build``, one warm-up pass, ``gc.freeze``), then runs one more
pass of its own schedule under ``cProfile`` and prints the top functions by
self time and by cumulative time.  ``--callers PATTERN`` / ``--callees
PATTERN`` then print the call edges into / out of every function whose
``file:line(name)`` matches the regular expression: which caller a hot
function's time comes from, and where a function's cumulative time goes.
The profiler taxes every Python call and no
native one, so the proportions lean towards call-heavy code: use this to find
candidates, and ``make bench-pairs`` (profiling off) to measure them.

``benchmarks/e2e/workloads.py`` is imported read-only; nothing under
``benchmarks/e2e`` is edited or imported by the benchmark from here.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# ``cProfile`` imports the standard library's ``profile``; run as a script,
# this file's directory leads ``sys.path`` and this file has that name.
sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != ROOT / "benchmarks"]

import argparse  # noqa: E402
import cProfile  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import pstats  # noqa: E402

DEFAULT_SEED = 42


def profile_pass(name: str, seed: int, quick: bool) -> pstats.Stats:
    """Build ``name``, warm it up, and profile its next pass."""
    sys.path[:0] = [str(ROOT / "benchmarks" / "e2e"), str(ROOT / "src")]
    from harness import Pass
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, quick)
    workload.build()
    workload.run_pass(Pass(), 0)
    gc.collect()
    gc.freeze()
    profiler = cProfile.Profile()
    measured = Pass()
    profiler.enable()
    try:
        workload.run_pass(measured, 1)
    finally:
        profiler.disable()
    if measured.failed:
        sys.exit(f"{name}: {measured.failed} of {measured.requests} requests failed")
    print(f"{name}, seed {seed}: one pass, {measured.requests} requests profiled")
    return pstats.Stats(profiler)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    parser.add_argument(
        "--workload", default="dash_short", choices=[w["name"] for w in declared]
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--top", type=int, default=30, help="rows per table")
    parser.add_argument("--quick", action="store_true", help="tiny inputs")
    parser.add_argument("--callers", metavar="PATTERN",
                        help="print the callers of functions matching PATTERN")
    parser.add_argument("--callees", metavar="PATTERN",
                        help="print the callees of functions matching PATTERN")
    args = parser.parse_args()
    stats = profile_pass(args.workload, args.seed, args.quick).strip_dirs()
    for order in ("tottime", "cumulative"):
        stats.sort_stats(order).print_stats(args.top)
    if args.callers:
        stats.print_callers(args.callers)
    if args.callees:
        stats.print_callees(args.callees)
    return 0


if __name__ == "__main__":
    sys.exit(main())
