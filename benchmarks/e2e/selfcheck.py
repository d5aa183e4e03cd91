"""Does the benchmark repeat?  Runs it as several sets on the same code.

    python3 benchmarks/e2e/selfcheck.py --sets 2 --runs 3

Each set runs every workload ``--runs`` times, run *k* of every set with
seed ``--seed + k``.  Per end-to-end metric it prints each set's median,
the relative difference between the first and the last set, and the
within-set spread (distance between the quartiles over the median, as the
driver takes it).  It exits non-zero if a real-clock median moved by more
than half the metric's bound, if a sim-clock or count metric differs at all
between two runs with the same seed, or if any run gave a wrong answer.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from run import DEFAULT_SEED, load_spec, run_child

#: Metrics that come from the sim clock or from counts: the same seed must
#: give the same value to the last digit.
EXACT = (
    "sim_ms_geomean", "sim_ms_slowest5pct", "sim_ops_per_min",
    "stored_bytes_per_user_byte",
)


def spread(values: list) -> float:
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--out", type=Path, help="write medians and quartiles as JSON")
    args = parser.parse_args()

    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    # values[workload][metric][set] = one value per run
    values = {w: {m: [[] for _ in range(args.sets)] for m in bounds} for w in workloads}
    wrong = []
    for set_index in range(args.sets):
        for run_index in range(args.runs):
            for workload in workloads:
                seed = args.seed + run_index
                result = run_child(workload, seed, 0, args.quick)
                if not result["correct"]:
                    wrong.append(f"{workload} seed {seed} set {set_index + 1}")
                for name, metric in result["metrics"].items():
                    values[workload][name][set_index].append(metric["value"])
                print(f"set {set_index + 1} run {run_index + 1} {workload} done",
                      file=sys.stderr, flush=True)

    failures = [f"wrong answer: {w}" for w in wrong]
    report = {}
    header = "".join(f"{f'median set {i + 1}':>15s}" for i in range(args.sets))
    print(f"{'workload':11s} {'metric':27s}{header}{'diff %':>9s}{'spread %':>10s}{'bound %':>9s}")
    for workload in workloads:
        for name, meta in bounds.items():
            sets = values[workload][name]
            medians = [statistics.median(s) for s in sets]
            worse = (medians[-1] - medians[0]) / medians[0]
            if meta["better"] == "higher":
                worse = -worse
            widest = max(spread(s) for s in sets)
            cells = "".join(f"{m:15.6g}" for m in medians)
            print(f"{workload:11s} {name:27s}{cells}{100 * worse:9.2f}"
                  f"{100 * widest:10.2f}{100 * meta['bound']:9.1f}")
            if name in EXACT:
                if any(s != sets[0] for s in sets):
                    failures.append(f"{workload} {name}: differs between sets for one seed")
            elif abs(worse) > meta["bound"] / 2:
                failures.append(
                    f"{workload} {name}: medians differ by {100 * abs(worse):.1f} %, "
                    f"over half the bound"
                )
            pooled = [v for s in sets for v in s]
            report[f"{workload}/{name}"] = {
                "unit": meta["unit"],
                "median": statistics.median(pooled),
                "quartiles": statistics.quantiles(pooled, n=4) if len(pooled) > 1 else [],
                "samples": len(pooled),
            }
    if args.out:
        args.out.write_text(json.dumps(
            {"run_seconds": spec["run_seconds"], "first_seed": args.seed,
             "sets": args.sets, "runs": args.runs, "metrics": report}, indent=2) + "\n")
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
