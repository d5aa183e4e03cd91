"""Deterministic simulation testing of Eon clusters (FoundationDB-style).

A seeded generator drives a full cluster through kills, restarts, S3
storms, rebalances, crunch scaling, and revives, interleaved with a
COPY/query/DML workload diffed against a fault-free one-node oracle.
Global invariants are checked after every step; a failure reproduces from
``(seed, step)`` and shrinks to a minimal schedule.

The ``sim`` marker gates the long multi-seed campaigns (``make sim-smoke``
runs just those); the rest are quick single-campaign checks.
"""

from __future__ import annotations

import pytest

from repro.cluster.reaper import FileReaper, ReapStats
from repro.sim import (
    CampaignConfig,
    InvariantRegistry,
    replay_schedule,
    run_campaign,
    shrink_schedule,
)

CAMPAIGN_SEEDS = range(25)


class TestDeterminism:
    def test_same_seed_same_digest(self):
        first = run_campaign(seed=5)
        second = run_campaign(seed=5)
        assert first.ok, first.report()
        assert first.digest() == second.digest()
        assert len(first.trace) == len(second.trace)
        assert [a.detail() for a in first.schedule] == [
            a.detail() for a in second.schedule
        ]

    def test_different_seeds_different_schedules(self):
        digests = {run_campaign(seed=s).digest() for s in (1, 2, 3)}
        assert len(digests) == 3

    def test_replay_reproduces_digest(self):
        original = run_campaign(seed=9)
        assert original.ok, original.report()
        replayed = replay_schedule(9, original.schedule)
        assert replayed.ok, replayed.report()
        assert replayed.digest() == original.digest()

    def test_schedule_subset_replays_without_crashing(self):
        # Shrinking depends on this: actions re-check preconditions, so
        # any subset of a recorded schedule is a valid (if boring) run.
        original = run_campaign(seed=4)
        subset = original.schedule[::3]
        result = replay_schedule(4, subset)
        assert result.violation is None
        assert len(result.trace) == len(subset)


@pytest.mark.sim
class TestCampaigns:
    """The acceptance campaign: 25 seeds x 40 steps, all invariants, all
    deterministic."""

    @pytest.mark.parametrize("seed", CAMPAIGN_SEEDS)
    def test_campaign_clean(self, seed):
        result = run_campaign(seed=seed)
        assert result.ok, result.report()
        assert len(result.trace) == CampaignConfig().steps
        # Every invariant actually ran on every step.
        for name, slot in result.registry.counters.items():
            assert slot["checks"] == len(result.trace), name
            assert slot["violations"] == 0, name

    def test_campaigns_exercise_the_fault_space(self):
        # The generator's weighted menu must actually cover the chaos
        # vocabulary across the acceptance seeds — kills, S3 bursts,
        # rebalances, revives — not just the happy-path workload.
        seen = set()
        for seed in CAMPAIGN_SEEDS:
            for event in run_campaign(seed=seed).trace.events:
                seen.add(event.action)
        expected = {
            "copy", "query", "dml", "kill", "recover", "s3_burst",
            "subscribe", "unsubscribe", "maintenance", "mergeout", "revive",
            "pin", "query_pinned", "fetch_storm",
        }
        assert expected <= seen, f"missing actions: {expected - seen}"


class TestInvariantRegistry:
    def test_halt_false_records_and_continues(self):
        config = CampaignConfig(steps=20, halt=False)
        registry = InvariantRegistry(halt=False)
        result = run_campaign(seed=2, config=config, registry=registry)
        assert result.violation is None  # never halted
        assert len(result.trace) == 20
        for slot in registry.counters.values():
            assert slot["checks"] == 20

    def test_counters_shape_matches_bench_contract(self):
        registry = InvariantRegistry()
        for name, slot in registry.counters.items():
            assert set(slot) == {"checks", "violations"}, name


def _eager_poll(self):
    """Mutated reaper: deletes dropped files immediately, ignoring the
    running-query and durability guards of section 6.5."""
    stats = ReapStats()
    for sid, _drop_version in self._pending:
        try:
            self._cluster.shared_data.delete(sid)
            stats.deleted += 1
        except Exception:
            pass
    self._pending = []
    return stats


class TestMutationCatching:
    """An intentionally-injected consistency bug must be caught with a
    ``(seed, step)`` repro — the harness's reason to exist."""

    def _first_caught(self):
        for seed in CAMPAIGN_SEEDS:
            result = run_campaign(seed=seed)
            if not result.ok:
                return result
        return None

    def test_eager_reaper_is_caught_and_shrinks(self, monkeypatch):
        monkeypatch.setattr(FileReaper, "poll", _eager_poll)
        caught = self._first_caught()
        assert caught is not None, "mutation survived all campaign seeds"
        violation = caught.violation
        # Deleting under a pinned snapshot / before truncation breaks the
        # catalog<->storage consistency family of invariants.
        assert violation.invariant in ("catalog-storage", "pinned-read")
        assert f"seed={caught.seed}" in violation.repro
        assert f"step={violation.step}" in violation.repro

        # The (seed, schedule) pair replays to the same failure...
        replayed = replay_schedule(caught.seed, caught.schedule)
        assert replayed.violation is not None
        assert replayed.violation.invariant == violation.invariant
        assert replayed.digest() == caught.digest()

        # ...and greedy shrinking finds a smaller schedule that still fails.
        shrunk = shrink_schedule(caught.seed, caught.schedule, violation)
        assert shrunk.violation.invariant == violation.invariant
        assert len(shrunk.schedule) < len(caught.schedule)
        assert shrunk.removed == len(caught.schedule) - len(shrunk.schedule)
        final = replay_schedule(caught.seed, shrunk.schedule)
        assert final.violation is not None
        assert final.violation.invariant == violation.invariant

    def test_healthy_reaper_passes_same_seeds(self):
        # Control arm: without the mutation the same campaign seed the
        # mutation fails on is clean (so the catch is the mutation's fault).
        monkey_free = run_campaign(seed=17)
        assert monkey_free.ok, monkey_free.report()
