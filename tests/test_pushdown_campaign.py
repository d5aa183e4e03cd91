"""Pushdown-race campaigns: cold-depot races of the server-side pushdown
scan against the depot fetch it replaces, under the full simulation chaos
menu, with the ``pushdown-digest-parity`` invariant checked after every
step (``make sim-smoke K=pushdown``).

The race action (``pushdown_race``) clears every up depot, runs a
selective query with ``pushdown=on`` — SELECTs answer the scan while
background hydration fills the depot — then re-runs it with
``pushdown=off`` against the hydrated depot.  The invariant audits that
every logged race matched digest-for-digest and that the SELECT dollar
ledger (request + bytes-scanned fees) only ever accrues.
"""

from __future__ import annotations

import pytest

from repro.sim import CampaignConfig, run_campaign
from repro.sim.generator import ScenarioGenerator

pytestmark = pytest.mark.campaign

SEEDS = (3, 7, 13, 23, 37)


class TestPushdownCampaigns:
    """Acceptance: seeded campaigns with pushdown races in the schedule
    complete with zero invariant violations — the pushdown and depot
    paths answer identically under kills, outages, bursts, and DML."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_pushdown_campaign_clean(self, seed):
        result = run_campaign(
            seed,
            CampaignConfig(steps=40),
            generator=ScenarioGenerator(seed, profile="pushdown"),
        )
        assert result.violation is None, result.report()
        assert result.ok
        races = [
            e for e in result.trace.events if e.action == "pushdown_race"
        ]
        assert races, "boosted generator must schedule pushdown races"
        assert any(e.outcome == "ok" for e in races)
        parity = result.registry.counters["pushdown-digest-parity"]
        assert parity["checks"] == CampaignConfig().steps
        assert parity["violations"] == 0

    def test_races_issue_real_selects(self):
        """A clean campaign's races actually exercised the SELECT path:
        the S3 ledger shows server-side scan requests and scanned bytes
        (the parity above is not vacuously depot-vs-depot)."""
        result = run_campaign(
            7,
            CampaignConfig(steps=40),
            generator=ScenarioGenerator(7, profile="pushdown"),
        )
        assert result.ok
        totals = result.metrics["s3"]["totals"]
        assert totals.get("select_requests", 0) > 0
        assert totals.get("bytes_scanned", 0) > 0

    def test_races_are_deterministic(self):
        def run():
            return run_campaign(
                5,
                CampaignConfig(steps=25),
                generator=ScenarioGenerator(5, profile="pushdown"),
            )

        first, second = run(), run()
        assert first.ok and second.ok
        assert first.digest() == second.digest()
        assert [
            (e.action, e.detail, e.outcome) for e in first.trace.events
        ] == [(e.action, e.detail, e.outcome) for e in second.trace.events]


class TestBaseCorpusUnshifted:
    """The race rides only in the ``pushdown`` profile: the base
    menu is untouched, so existing seed corpora replay the schedules they
    always did, and the new invariant is a no-op audit for them."""

    @pytest.mark.parametrize("seed", SEEDS[:2])
    def test_base_generator_schedules_no_races(self, seed):
        result = run_campaign(
            seed, CampaignConfig(steps=40), generator=ScenarioGenerator(seed)
        )
        assert result.ok
        assert not any(
            e.action == "pushdown_race" for e in result.trace.events
        )
        # The 12th invariant still runs (and passes) on every step.
        parity = result.registry.counters["pushdown-digest-parity"]
        assert parity["checks"] == CampaignConfig().steps
        assert parity["violations"] == 0

    def test_base_generator_still_bit_reproducible(self):
        digests = {
            run_campaign(
                13, CampaignConfig(steps=30), generator=ScenarioGenerator(13)
            ).digest()
            for _ in range(2)
        }
        assert len(digests) == 1
