"""Designer campaigns: mid-campaign cost-based re-design under the full
simulation chaos menu, with the ``designer-digest-parity`` invariant
checked after every step (``make sim-smoke K=designer``).

The ``redesign`` action ingests the campaign's recorded workload plus a
fixed probe set, applies the winning versioned projections online
(creating ``_dbd_v<n>``, dropping superseded versions atomically), and
re-runs the probes against the redesigned layouts — every comparison is
diffed against the oracle.  A redesign must change physical layouts only,
never answers.
"""

from __future__ import annotations

import pytest

from repro.engine.designer import DatabaseDesigner
from repro.errors import ReproError
from repro.sim import CampaignConfig, run_campaign
from repro.sim.generator import ScenarioGenerator

pytestmark = pytest.mark.campaign

SEEDS = (3, 7, 13, 23, 37)


class TestDesignerCampaigns:
    """Acceptance: seeded campaigns with online redesigns in the schedule
    complete with zero invariant violations — applying the designer
    mid-campaign never changes query answers, leaks objects, or breaks
    catalog/storage consistency."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_designer_campaign_clean(self, seed):
        result = run_campaign(
            seed,
            CampaignConfig(steps=40),
            generator=ScenarioGenerator(seed, profile="designer"),
        )
        assert result.violation is None, result.report()
        assert result.ok
        redesigns = [e for e in result.trace.events if e.action == "redesign"]
        assert redesigns, "boosted generator must schedule redesigns"
        assert any(e.outcome in ("ok", "kept") for e in redesigns)
        parity = result.registry.counters["designer-digest-parity"]
        assert parity["checks"] == CampaignConfig().steps
        assert parity["violations"] == 0

    def test_redesigns_apply_versioned_projections(self):
        """At least one campaign redesign actually created projections
        (the parity checks are not vacuous no-ops), and the run log on
        the cluster records it."""
        for seed in SEEDS:
            result = run_campaign(
                seed,
                CampaignConfig(steps=40),
                generator=ScenarioGenerator(seed, profile="designer"),
            )
            assert result.ok, result.report()
            applied = [
                e
                for e in result.trace.events
                if e.action == "redesign" and e.outcome == "ok"
            ]
            runs = getattr(result.world.cluster, "designer_runs", [])
            if applied and any(r.created for r in runs):
                state = result.world.cluster.any_up_node().catalog.state
                assert any("_dbd_v" in name for name in state.projections)
                return
        pytest.fail("no campaign redesign created a projection")

    def test_campaigns_are_deterministic(self):
        def run():
            return run_campaign(
                5,
                CampaignConfig(steps=25),
                generator=ScenarioGenerator(5, profile="designer"),
            )

        first, second = run(), run()
        assert first.ok and second.ok
        assert first.digest() == second.digest()
        assert [
            (e.action, e.detail, e.outcome) for e in first.trace.events
        ] == [(e.action, e.detail, e.outcome) for e in second.trace.events]


class _ProposingGenerator(ScenarioGenerator):
    """The base generator with a designer *recording* pass bolted onto
    every step: ingest the recorded workload and compute proposals —
    but never apply them.  Stage 1+2 of the designer read catalog state
    and telemetry only, so the schedule and trace must be unaffected."""

    def next_action(self, world):
        cluster = world.cluster
        if not cluster.shut_down:
            designer = DatabaseDesigner.for_cluster(cluster)
            try:
                designer.ingest_recorded(cluster)
                designer.add_workload(
                    [f"select count(*) from {world.table}"]
                )
                designer.propose()
            except ReproError:
                pass
        return super().next_action(world)


class TestRecordingLeavesDigestUnchanged:
    """Acceptance: designer recording and proposal (everything short of
    ``apply``) draws no RNG, charges no requests, and mutates nothing —
    a campaign that profiles-and-proposes on every step produces the
    bit-identical trace digest of one that never ran the designer."""

    def test_mid_campaign_proposals_do_not_shift_the_trace(self):
        baseline = run_campaign(
            11, CampaignConfig(steps=30), generator=ScenarioGenerator(11)
        )
        observed = run_campaign(
            11, CampaignConfig(steps=30), generator=_ProposingGenerator(11)
        )
        assert baseline.ok and observed.ok
        assert baseline.digest() == observed.digest()
        assert [
            (e.action, e.detail, e.outcome) for e in baseline.trace.events
        ] == [(e.action, e.detail, e.outcome) for e in observed.trace.events]


class TestBaseCorpusUnshifted:
    """The redesign rides only in the ``designer`` profile: the
    base menu is untouched, so existing seed corpora replay the schedules
    they always did, and the new invariant is a no-op audit for them."""

    @pytest.mark.parametrize("seed", SEEDS[:2])
    def test_base_generator_schedules_no_redesigns(self, seed):
        result = run_campaign(
            seed, CampaignConfig(steps=40), generator=ScenarioGenerator(seed)
        )
        assert result.ok
        assert not any(e.action == "redesign" for e in result.trace.events)
        parity = result.registry.counters["designer-digest-parity"]
        assert parity["checks"] == CampaignConfig().steps
        assert parity["violations"] == 0
