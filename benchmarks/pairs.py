"""Alternating parent/change pairs of the end-to-end benchmark, as a table.

    python3 benchmarks/pairs.py --parent /root/scratch/parent \\
        --workload tpch_warm --pairs 10 --seed0 501

Runs the *unmodified* ``benchmarks/e2e/run.py`` of two checkouts — the
parent commit's (``--parent``, e.g. a ``git clone`` at that commit) and this
one's — once each per pair, one seed per pair (``seed0``, ``seed0 + 1``, ...),
alternating which side goes first.  Per metric it prints each side's median
and quartiles, the ratio of the medians, the pairs the change won (ties count
for neither) and, for the metrics that live on the simulated clock or count
bytes, whether the two sides were equal to the last digit in every pair —
the table EXPERIMENTS.md carries for every performance PR — and under it
``real_ops_per_s`` of every single run.

Nothing here is imported by the benchmark, and nothing here edits it: a side
is whatever its own ``run.py`` prints.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[1]
#: Metrics that must not move when only the real clock may: reported as
#: equal/DIFFERS, not as a ratio.
EXACT = ("sim_", "stored_bytes_per_user_byte")
#: Printed run by run under each table of end-to-end metrics.
EVERY_RUN = "real_ops_per_s"


def run_once(tree: Path, workload: str, seed: int, trace: int) -> Dict[str, float]:
    """One run of ``tree``'s own benchmark; its metrics by name."""
    done = subprocess.run(
        [sys.executable, str(tree / "benchmarks" / "e2e" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--trace", str(trace)],
        capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"{tree}: {workload} seed {seed} printed no result:\n{done.stderr}")
    result = json.loads(lines[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    values["failed"] = result["failed"]
    return values


def quartiles(values: List[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.4g}"
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{statistics.median(values):.4g} [{q1:.4g}, {q3:.4g}]"


def report(workload: str, declared: List[dict], pairs: List[tuple]) -> None:
    """``pairs`` holds one (seed, parent values, change values) per pair."""
    print(f"\n{workload}: {len(pairs)} pairs, seeds {pairs[0][0]}-{pairs[-1][0]}; "
          "median [quartiles]")
    print(f"{'metric':44s} {'unit':6s} {'parent':>26s} {'change':>26s} "
          f"{'ratio':>7s}  pairs won")
    for metric in declared:
        name = metric["name"]
        parent = [p[name] for _, p, _ in pairs]
        change = [c[name] for _, _, c in pairs]
        if not any(parent) and not any(change):
            continue  # a layer this workload never enters
        if parent == change:
            verdict = "  equal in every pair"
        elif name.startswith(EXACT):
            verdict = "  DIFFERS"
        else:
            higher = metric["better"] == "higher"
            won = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
            base = statistics.median(parent)
            ratio = f"{statistics.median(change) / base:.3f}x" if base else "-"
            verdict = f"{ratio:>7s}  {won}/{len(pairs)}"
        print(f"{name:44s} {metric['unit']:6s} {quartiles(parent):>26s} "
              f"{quartiles(change):>26s} {verdict}")
    print(f"failed ops: parent {sum(p['failed'] for _, p, _ in pairs)}, "
          f"change {sum(c['failed'] for _, _, c in pairs)}")
    # Every run made, not only its summary: the metric a gain is claimed on.
    if EVERY_RUN in pairs[0][1]:
        print(f"{EVERY_RUN} by pair, parent/change: "
              + " ".join(f"{p[EVERY_RUN]:.4g}/{c[EVERY_RUN]:.4g}" for _, p, c in pairs))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="checkout of the parent commit")
    parser.add_argument("--workload", choices=names, action="append",
                        help="repeatable; default: all of BENCHMARK.json's")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed0", type=int, required=True,
                        help="seed of the first pair; use seeds the change never saw")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 compares the per-layer metrics of traced runs")
    args = parser.parse_args()
    args.parent = args.parent.resolve()
    if args.parent == ROOT or not (args.parent / "benchmarks" / "e2e" / "run.py").is_file():
        parser.error("--parent must be another checkout that has benchmarks/e2e/run.py")
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    for workload in args.workload or names:
        pairs = []
        for i in range(args.pairs):
            seed = args.seed0 + i
            sides = [args.parent, ROOT] if i % 2 == 0 else [ROOT, args.parent]
            values = {tree: run_once(tree, workload, seed, args.trace) for tree in sides}
            pairs.append((seed, values[args.parent], values[ROOT]))
            print(f"pair {i + 1}/{args.pairs} {workload} seed {seed} done",
                  file=sys.stderr)
        report(workload, declared, pairs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
