"""Exact check of the end-to-end benchmark against the newest committed
``BENCH_<pr>.json``.

    python3 benchmarks/bench_check.py        # or: make bench-check

Runs this checkout's ``benchmarks/e2e/run.py --workload W --seed 42 --trace 0``
for every workload the BENCH file records and compares, value for value, what
stays the same from run to run — every ``sim_`` metric,
``stored_bytes_per_user_byte``, ``correct`` and ``failed`` — against that
file's ``change`` side: the numbers the last performance change committed for
itself; where that side records the figure card (``figures``),
this checkout's card (``benchmarks/figures.py --json``) too, value for value.
Real-clock metrics are not compared (they move between runs).  Prints one
line per workload (and one for the card) and every value that differs; exits
1 on any difference, 0 when all are equal.

"Newest" is the highest ``<pr>`` among the ``BENCH_*.json`` files git tracks
at the root of the repository.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[1]
#: What a run repeats to the last digit for a seed, beside the ``sim_`` metrics.
EXACT = ("stored_bytes_per_user_byte", "correct", "failed")


def newest_bench() -> Path:
    """The tracked ``BENCH_<pr>.json`` with the highest ``<pr>``."""
    tracked = subprocess.run(
        ["git", "ls-files", "BENCH_*.json"], cwd=ROOT, capture_output=True, text=True,
        check=True,
    ).stdout.split()
    numbered = [(int(m.group(1)), name) for name in tracked
                if (m := re.fullmatch(r"BENCH_(\d+)\.json", name))]
    if not numbered:
        sys.exit("no committed BENCH_<pr>.json to check against")
    return ROOT / max(numbered)[1]


def run_workload(workload: str, seed: int) -> Dict[str, object]:
    """One run's exact values, named as the BENCH file names them."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "e2e" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--trace", "0"],
        capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        sys.exit(f"{workload}: run.py exited {done.returncode}:\n{done.stderr}")
    result = json.loads(lines[-1])
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    values.update(correct=result["correct"], failed=result["failed"])
    return values


def differences(expected: Dict[str, object], got: Dict[str, object]) -> List[str]:
    """``name: expected != got`` for every compared value that is not equal."""
    names = sorted(n for n in expected if n.startswith("sim_") or n in EXACT)
    return [f"{name}: {expected[name]!r} != {got.get(name)!r}"
            for name in names if got.get(name) != expected[name]]


def run_figures() -> Dict[str, object]:
    """This checkout's figure card."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "figures.py"), "--json"],
        capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        sys.exit(f"figures: figures.py exited {done.returncode}:\n{done.stderr}")
    return json.loads(lines[-1])


def card_differences(expected: Dict[str, dict], got: Dict[str, dict]) -> List[str]:
    """``figure.value: expected != got`` for every card value that is not equal."""
    return [f"{figure}.{name}: {value!r} != {got.get(figure, {}).get(name)!r}"
            for figure, values in sorted(expected.items())
            for name, value in sorted(values.items())
            if got.get(figure, {}).get(name) != value]


def main() -> int:
    path = newest_bench()
    bench = json.loads(path.read_text())
    seed = bench["seed"]
    print(f"against {path.name}'s change side, seed {seed}")
    failed = 0
    for workload, expected in bench["change"]["e2e"].items():
        found = differences(expected, run_workload(workload, seed))
        print(f"{workload:12s} {'equal' if not found else 'DIFFERS'}")
        for line in found:
            print(f"  {line}")
        failed += bool(found)
    if "figures" in bench["change"]:
        found = card_differences(bench["change"]["figures"], run_figures())
        print(f"{'figures':12s} {'equal' if not found else 'DIFFERS'}")
        for line in found:
            print(f"  {line}")
        failed += bool(found)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
