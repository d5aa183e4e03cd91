"""Deterministic simulation testing of Eon clusters (FoundationDB-style).

A seeded generator drives a full cluster through kills, restarts, S3
storms, rebalances, crunch scaling, and revives, interleaved with a
COPY/query/DML workload diffed against a fault-free one-node oracle.
Global invariants are checked after every step; a failure reproduces from
``(seed, step)`` and shrinks to a minimal schedule.

The ``campaign`` marker gates the long multi-seed campaigns (``make
sim-smoke K=simulation`` runs just those); the rest are quick
single-campaign checks.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.cluster.reaper import FileReaper, ReapStats
from repro.sim import (
    PROFILES,
    CampaignConfig,
    InvariantRegistry,
    ScenarioGenerator,
    SimWorld,
    replay_schedule,
    run_campaign,
    shrink_schedule,
)
from repro.sim import actions as act

CAMPAIGN_SEEDS = range(25)
SIM_SRC = Path(__file__).resolve().parents[1] / "src" / "repro" / "sim"


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


@pytest.mark.campaign
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


def _functions_naming(*constants):
    """``file:function`` of every function under ``src/repro/sim`` whose body
    holds one of ``constants`` as a whole string literal (docstrings that
    merely mention it do not count), module level reported as ``<module>``."""
    found = []
    for path in sorted(SIM_SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(func):
                    owner.setdefault(id(node), func.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and node.value in constants:
                found.append(f"{path.name}:{owner.get(id(node), '<module>')}")
    return sorted(found)


class TestTheCampaignLayerSaysEachThingOnce:
    """Shape guards: a second copy of a decision is a failing test."""

    def test_one_function_turns_rows_into_oracle_equivalence(self):
        assert _functions_naming("oracle-equivalence") == ["harness.py:expect_equal"]
        # ...and one function runs the SELECTs it judges.
        calls = [
            path.name
            for path in sorted(SIM_SRC.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", "")) == "rows_key"
        ]
        assert calls == ["harness.py", "oracle.py"]  # checked_read, the oracle's own

    def test_one_table_names_the_storage_outcomes(self):
        assert _functions_naming("storage_unavailable") == ["actions.py:<module>"]
        assert _functions_naming("gave_up_transient") == ["actions.py:<module>"]
        handlers = [
            path.name
            for path in sorted(SIM_SRC.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ExceptHandler)
            and node.type is not None
            and {"StorageUnavailable", "TransientStorageError"}
            & {n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)}
        ]
        # Only the CLI still names one: world *setup* failing is not a step.
        assert handlers == ["__main__.py"]

    def test_one_generator_class(self):
        tree = ast.parse((SIM_SRC / "generator.py").read_text())
        classes = [n.name for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
        assert [c for c in classes if c.endswith("Generator")] == ["ScenarioGenerator"]
        assert len(PROFILES) == 10 and PROFILES["base"] == ()


def _quiet_world(seed=1):
    return SimWorld(seed, CampaignConfig(base_failure_rate=0.0))


def _worlds():
    """A handful of world states the menu's gates tell apart."""
    fresh = _quiet_world()
    node_down = _quiet_world()
    assert act.KillNode("n1").apply(node_down) == "ok"
    pin_open = _quiet_world()
    assert act.PinSnapshot("pin0", "select count(*) from sim_t").apply(pin_open) == "ok"
    outage = _quiet_world()
    assert act.S3Outage(50.0).apply(outage) == "ok"
    shut_down = _quiet_world()
    shut_down.cluster.graceful_shutdown()
    return {
        "fresh": fresh, "node down": node_down, "pin open": pin_open,
        "outage active": outage, "shut down": shut_down,
    }


def _menu(profile, world):
    return [
        (weight, factory.__name__)
        for weight, factory in ScenarioGenerator(0, profile=profile)._menu(world)
    ]


class TestProfiles:
    def test_every_profile_menu_starts_with_the_base_menu(self):
        """What keeps base schedules unshifted: a profile only appends."""
        for label, world in _worlds().items():
            base = _menu("base", world)
            for profile in PROFILES:
                menu = _menu(profile, world)
                assert menu[: len(base)] == base, (profile, label)
                if label == "shut down":
                    assert menu == [(1.0, "_advance_clock")], profile
            if label == "fresh":
                assert len(_menu("autoscale", world)) == len(base) + 2
            if label == "outage active":
                # Only the rows that need no S3 survive an outage.
                longer = {p for p in PROFILES if len(_menu(p, world)) > len(base)}
                assert longer == {"wm", "autoscale", "noisy_neighbor"}

    def test_unknown_profile_is_an_error(self):
        with pytest.raises(KeyError):
            ScenarioGenerator(0, profile="nope")

    #: The action(s) each profile exists to schedule.
    OWN_ACTIONS = {
        "wm": {"query_storm"},
        "autoscale": {"query_storm", "autoscale_tick"},
        "pushdown": {"pushdown_race"},
        "designer": {"redesign"},
        "noisy_neighbor": {"noisy_neighbor"},
        "depot_stampede": {"depot_stampede"},
        "hot_shard": {"hot_shard_throttle"},
        "straggler": {"straggler_failover"},
        "chaos": {"kill_mid_query", "s3_outage"},
    }

    @pytest.mark.campaign
    @pytest.mark.parametrize("profile", sorted(OWN_ACTIONS))
    def test_profile_draws_its_own_action(self, profile):
        assert set(self.OWN_ACTIONS) == set(PROFILES) - {"base"}
        seen = set()
        for seed in range(5):
            result = run_campaign(
                seed, generator=ScenarioGenerator(seed, profile=profile)
            )
            assert result.ok, result.report()
            seen |= {event.action for event in result.trace.events}
        assert self.OWN_ACTIONS[profile] <= seen


class TestReviveKeepsTheWorldWhole:
    """Regression: what a ``revive`` step used to leave behind."""

    def test_autoscaler_follows_the_cluster_through_a_revive(self):
        world = _quiet_world()
        assert act.AutoscaleTick().apply(world) == "ok"
        before = world.autoscaler
        assert before.cluster is world.cluster
        assert act.ReviveCluster(revive_seed=5).apply(world) == "ok"
        assert before.cluster is not world.cluster and before.cluster.shut_down
        assert act.AutoscaleTick().apply(world) == "ok"
        # The tick sampled and actuated the live cluster, not the corpse.
        assert world.autoscaler.cluster is world.cluster
        assert world.cluster.autoscaler is world.autoscaler
        assert set(world.autoscaler.actuator.members()) <= set(world.cluster.nodes)

    def test_recorder_survives_a_revive(self):
        world = _quiet_world()
        recorder = world.cluster.obs
        assert act.Query("select count(*) from sim_t").apply(world) == "ok"
        first = recorder.requests[-1].request_id
        assert act.ReviveCluster(revive_seed=5).apply(world) == "ok"
        assert world.cluster.obs is recorder and recorder.enabled
        assert act.Query("select sum(v) from sim_t").apply(world) == "ok"
        # Ids keep counting: a pre-revive probe cannot alias a new request.
        assert recorder.requests[-1].request_id > first
        assert first in {r.request_id for r in recorder.requests}

    @pytest.mark.campaign
    @pytest.mark.parametrize(
        "profile,seed,steps",
        [("base", 3, 120), ("wm", 19, 40), ("autoscale", 18, 40), ("autoscale", 20, 40)],
    )
    def test_campaigns_the_wider_listing_found_failing(self, profile, seed, steps):
        """base/wm: a node recovering after a revive rebuilt its catalog
        from itself; autoscale: the scaler kept actuating the shut-down
        cluster (seed 18 used to *pass* doing so)."""
        result = run_campaign(
            seed,
            CampaignConfig(steps=steps),
            generator=ScenarioGenerator(seed, profile=profile),
        )
        assert result.ok, result.report()
        assert len(result.trace) == steps
        if profile == "autoscale":
            scaler = result.world.autoscaler
            assert scaler is None or scaler.cluster is result.world.cluster
