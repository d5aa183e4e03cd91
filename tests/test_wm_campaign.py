"""Workload-manager campaigns: ``query_storm`` bursts under the full
simulation chaos menu, with the ``wm-slot-accounting`` invariant checked
after every step (``make sim-smoke K=wm``)."""

from __future__ import annotations

import pytest

from repro.sim import CampaignConfig, run_campaign
from repro.sim.generator import ScenarioGenerator

WM_SEEDS = (3, 7, 13, 23, 37)


@pytest.mark.campaign
class TestWorkloadCampaigns:
    """Acceptance: seeded campaigns with concurrent query storms in the
    schedule complete with zero invariant violations — slots-in-use
    equals running-query demand, and no slots leak across any action."""

    @pytest.mark.parametrize("seed", WM_SEEDS)
    def test_wm_campaign_clean(self, seed):
        result = run_campaign(
            seed,
            CampaignConfig(steps=40),
            generator=ScenarioGenerator(seed, profile="wm"),
        )
        assert result.violation is None
        storms = [
            e for e in result.trace.events if e.action == "query_storm"
        ]
        assert storms, "boosted generator must schedule query storms"
        assert any(e.outcome == "ok" for e in storms)
        slot_counter = result.registry.counters["wm-slot-accounting"]
        assert slot_counter["checks"] == CampaignConfig().steps
        assert slot_counter["violations"] == 0

    def test_storms_are_deterministic(self):
        def run():
            return run_campaign(
                5,
                CampaignConfig(steps=25),
                generator=ScenarioGenerator(5, profile="wm"),
            )

        first, second = run(), run()
        assert first.violation is None and second.violation is None
        assert [
            (e.action, e.detail, e.outcome) for e in first.trace.events
        ] == [(e.action, e.detail, e.outcome) for e in second.trace.events]
