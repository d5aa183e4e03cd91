"""Robustness trajectory: per-invariant check/violation counters from a
multi-seed simulation campaign, printed next to the perf benchmarks.

The campaigns run with ``halt=False`` so every seed completes and the
counters cover the whole run; a healthy build reports zero violations for
every invariant.
"""

from __future__ import annotations

from repro.shell import format_table
from repro.sim import CampaignConfig, InvariantRegistry, run_campaign

from conftest import emit

SEEDS = 10
STEPS = 40


def test_robustness_trajectory(benchmark):
    registry = InvariantRegistry(halt=False)
    config = CampaignConfig(steps=STEPS, halt=False)

    def run():
        for seed in range(SEEDS):
            run_campaign(seed=seed, config=config, registry=registry)

    benchmark.pedantic(run, rounds=1, iterations=1)

    rows = [
        [name, slot["checks"], slot["violations"]]
        for name, slot in sorted(registry.counters.items())
    ]
    emit(format_table(
        f"Simulation robustness — {SEEDS} seeds x {STEPS} steps",
        ["invariant", "checks", "violations"],
        rows,
    ))

    for name, slot in registry.counters.items():
        assert slot["violations"] == 0, f"{name}: {slot}"
        assert slot["checks"] >= SEEDS * STEPS * 0.9, name
