"""The paper's shapes as one card: Figures 10, 11a, 11b and 12 and E9, each
value computed by the code path its bench runs, printed beside the paper's
reading.  EXPERIMENTS.md quotes the card in each figure's section.

    python3 benchmarks/figures.py           # or: make figures (about 20 s)
    python3 benchmarks/figures.py --json    # the card as one JSON line

The readings are context for a reader, not targets.  ``BENCH_<pr>.json``
records the card of a performance change and of its parent (``figures``), and
``make bench-check`` compares this checkout's card with the newest one
exactly: every value is simulated, so it repeats to the last digit.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[1]
for path in (ROOT / "benchmarks", ROOT, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import bench_designer  # noqa: E402
import bench_fig10_tpch  # noqa: E402
import bench_fig11a_throughput  # noqa: E402
import bench_fig11b_copy  # noqa: E402
import bench_fig12_node_down  # noqa: E402
from conftest import fig10_data, fig10_enterprise, fig10_eon  # noqa: E402


def fig10() -> Dict[str, object]:
    data = fig10_data()
    rows, wins = bench_fig10_tpch._sweep(fig10_eon(data), fig10_enterprise(data))
    ratios = sorted(cold_ms / warm_ms for _, _, warm_ms, cold_ms in rows)
    return {"in_cache_wins": wins, "queries": len(rows),
            "s3_over_cache": [ratios[0], statistics.median(ratios), ratios[-1]]}


def fig11a() -> Dict[str, object]:
    at_70 = {name: values[-1] for name, values in bench_fig11a_throughput._measured_series().items()}
    return {"6n/3n": at_70["Eon 6n/3s"] / at_70["Eon 3n/3s"],
            "9n/3n": at_70["Eon 9n/3s"] / at_70["Eon 3n/3s"]}


def fig11b() -> Dict[str, object]:
    at_50 = [bench_fig11b_copy._copies(n, 50).per_minute for n in (3, 6, 9)]
    return {"3:6:9": [1.0, at_50[1] / at_50[0], at_50[2] / at_50[0]]}


def fig12() -> Dict[str, object]:
    eon, ent = bench_fig12_node_down._kill_runs()
    eon_drop, ent_drop, eon_before = bench_fig12_node_down._drops(eon, ent)
    kill_window = int(bench_fig12_node_down.KILL_AT // bench_fig12_node_down.WINDOW)
    return {"eon_drop": eon_drop, "enterprise_drop": ent_drop,
            "min_post_kill_over_pre_kill": min(eon[kill_window:]) / eon_before}


def e9() -> Dict[str, object]:
    clusters, mix, _ = bench_designer._e9_layouts()
    seconds = {name: bench_designer._run_suite(cluster, mix)["seconds"]
               for name, cluster in clusters.items()}
    return {"cost_vs_naive": seconds["naive"] / seconds["cost"],
            "cost_vs_heuristic": seconds["heuristic"] / seconds["cost"],
            "heuristic_minus_cost_ms": (seconds["heuristic"] - seconds["cost"]) * 1000}


def card() -> Dict[str, Dict[str, object]]:
    return {"fig10": fig10(), "fig11a": fig11a(), "fig11b": fig11b(),
            "fig12": fig12(), "e9": e9()}


def lines(figures: Dict[str, Dict[str, object]]) -> List[Tuple[str, str, str, str]]:
    """(figure, value, measured, the paper's reading) rows of the card."""
    f10, f11a, f11b = figures["fig10"], figures["fig11a"], figures["fig11b"]
    f12, fe9 = figures["fig12"], figures["e9"]
    low, mid, high = f10["s3_over_cache"]
    return [
        ("Fig 10", "in-cache wins over Enterprise",
         f"{f10['in_cache_wins']}/{f10['queries']}", "matches or beats it on most queries"),
        ("Fig 10", "from-S3 / in-cache, min/median/max",
         f"{low:.1f}x / {mid:.1f}x / {high:.1f}x", "roughly 2-10x"),
        ("Fig 11a", "Eon 6n/3n at 70 threads", f"{f11a['6n/3n']:.2f}", "nearly linear (2)"),
        ("Fig 11a", "Eon 9n/3n at 70 threads", f"{f11a['9n/3n']:.2f}", "nearly linear (3)"),
        ("Fig 11b", "COPY 3 : 6 : 9 nodes at 50 threads",
         " : ".join(f"{v:.2f}" for v in f11b["3:6:9"]), "~1 : 1.9 : 2.8, 9n below 3x"),
        ("Fig 12", "Eon drop after the kill", f"{f12['eon_drop']:.0%}",
         "smooth regression"),
        ("Fig 12", "Enterprise drop after the kill", f"{f12['enterprise_drop']:.0%}",
         "higher degradation"),
        ("Fig 12", "min post-kill window / pre-kill mean",
         f"{f12['min_post_kill_over_pre_kill']:.2f}", "no stall"),
        ("E9", "cost-based vs naive", f"{fe9['cost_vs_naive']:.2f}x",
         "no paper figure (bench bar >= 1.3x)"),
        ("E9", "cost-based vs v1 heuristic",
         f"{fe9['cost_vs_heuristic']:.2f}x ({fe9['heuristic_minus_cost_ms']:.1f} ms)",
         "no paper figure (bench bar: faster)"),
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--json", action="store_true", help="print the card as one JSON line")
    args = parser.parse_args(argv)
    figures = card()
    if args.json:
        print(json.dumps(figures, sort_keys=True))
        return 0
    rows = lines(figures)
    widths = [max(len(row[i]) for row in rows) for i in range(3)]
    print(f"{'figure':{widths[0]}}  {'value':{widths[1]}}  {'measured':{widths[2]}}  paper")
    for row in rows:
        print(f"{row[0]:{widths[0]}}  {row[1]:{widths[1]}}  {row[2]:{widths[2]}}  {row[3]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
