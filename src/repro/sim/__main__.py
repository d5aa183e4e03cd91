"""Command-line campaign runner: ``python -m repro.sim``.

Runs seeded simulation campaigns and prints one line per seed (steps,
digest).  On a violation it prints the ``(seed, step)`` repro, the trace
tail, and — with ``--shrink`` — the minimal schedule, then exits nonzero.

    python -m repro.sim --seeds 25            # the acceptance campaign
    python -m repro.sim --seed 17 --steps 80  # one long seed
    python -m repro.sim --seed 17 --shrink    # minimize a failure
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import TransientStorageError
from repro.sim.harness import CampaignConfig, run_campaign
from repro.sim.shrink import shrink_schedule


def main() -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sim",
        description="Deterministic simulation campaigns for Eon clusters.",
    )
    parser.add_argument("--seed", type=int, help="run exactly this seed")
    parser.add_argument(
        "--seeds", type=int, default=10,
        help="run seeds 0..N-1 (default 10; ignored with --seed)",
    )
    parser.add_argument(
        "--steps", type=int, default=CampaignConfig.steps,
        help=f"steps per campaign (default {CampaignConfig.steps})",
    )
    parser.add_argument(
        "--failure-rate", type=float, default=CampaignConfig.base_failure_rate,
        help="base S3 transient-fault rate between bursts",
    )
    parser.add_argument(
        "--shrink", action="store_true",
        help="on violation, greedily minimize the failing schedule",
    )
    args = parser.parse_args()

    config = CampaignConfig(
        steps=args.steps, base_failure_rate=args.failure_rate
    )
    seeds = [args.seed] if args.seed is not None else list(range(args.seeds))
    failures = 0
    for seed in seeds:
        try:
            result = run_campaign(seed=seed, config=config)
        except TransientStorageError as exc:
            # Retries exhausted during world setup — at failure rates near
            # 1.0 the cluster cannot even bootstrap its schema.
            print(f"seed {seed}: aborted, storage never came up: {exc}")
            failures += 1
            continue
        print(result.report())
        if result.ok:
            continue
        failures += 1
        if args.shrink and result.violation is not None:
            shrunk = shrink_schedule(
                seed, result.schedule, result.violation, config=config
            )
            print(
                f"  shrunk {shrunk.original_length} -> "
                f"{len(shrunk.schedule)} steps in {shrunk.replays} replays:"
            )
            for action in shrunk.schedule:
                print(f"    {action.name} {action.detail()}")
    print(f"{len(seeds)} campaign(s), {failures} failing")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
