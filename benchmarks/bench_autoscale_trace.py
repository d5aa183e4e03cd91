"""The autoscaler's earn-your-keep bench: one simulated day of diurnal,
bursty load (plus the next morning, so revive is on the clock), run three
ways on the real query path:

* **elastic** — 2 always-on nodes plus a burst subcluster (0..4 nodes)
  driven by the closed-loop autoscaler: scale-out with peer-depot
  warming, drain-then-remove scale-in, hibernate to shared storage
  through the night, revive on the next morning's first demand;
* **static** — peak-provisioned at 6 nodes, the capacity the elastic run
  ever reaches, held for the whole trace (the no-autoscaler baseline);
* **serial** — the same offered load replayed one request at a time on
  the static topology: the row-digest ground truth.

The claims this bench asserts: the elastic run holds the p99 SLO, spends
>= 30% fewer node-seconds (and dollars) than static peak provisioning,
and produces byte-identical row digests — elasticity is free of
correctness cost.
"""

from __future__ import annotations

from repro.autoscale import (
    Autoscaler,
    PolicyConfig,
    TrafficGenerator,
    TrafficProfile,
    run_trace,
)
from repro.shell import format_table
from repro.cluster.eon import EonCluster
from repro.common.clock import SimClock
from repro.shared_storage.s3 import SimulatedS3
from repro.sim.oracle import rows_key
from repro.wm.admission import AdmissionController
from repro.wm.pool import PoolConfig
from tests.test_autoscale_campaign import run_serial_trace

from conftest import emit

#: 900s epochs: 96 per day; 128 reaches 8am of day two (revive window).
EPOCHS = 128
EPOCH_SECONDS = 900.0
SLO_SECONDS = 2.0
ROWS = 300

STATEMENTS = (
    "select g, sum(v) s from t group by g",
    "select count(*) c from t",
    "select g, count(*) c, sum(v) s from t group by g",
)


def build_cluster(nodes: int) -> EonCluster:
    clock = SimClock()
    cluster = EonCluster(
        [f"n{i}" for i in range(nodes)],
        shard_count=4,
        shared_storage=SimulatedS3(),
        subscribers_per_shard=2,
        seed=11,
        clock=clock,
    )
    # Patient admission: digest parity needs every request to complete.
    cluster.admission = AdmissionController(
        cluster,
        PoolConfig(
            max_queue_depth=512,
            queue_timeout_seconds=36000.0,
            shed_cooldown_seconds=0.0,
        ),
    )
    cluster.execute("create table t (k int, g varchar, v int)")
    cluster.load(
        "t", [(k, f"g{k % 7}", (k * 5) % 23) for k in range(ROWS)]
    )
    return cluster


def profile() -> TrafficProfile:
    return TrafficProfile(
        night_clients=0,
        peak_clients=16,
        burst_probability=0.15,
        burst_multiplier=2.0,
        epoch_seconds=EPOCH_SECONDS,
        seed=5,
    )


def policy() -> PolicyConfig:
    # Wait-driven thresholds: the pressure gates are parked out of range
    # because closed-loop arrivals always queue, so fraction-queued
    # carries no signal here; mean queue wait does.
    return PolicyConfig(
        target_wait_seconds=0.25,
        scale_out_pressure=10.0,
        scale_in_pressure=10.0,
        up_votes=1,
        down_votes=2,
        hibernate_idle_votes=4,
        cooldown_seconds=0.0,
        min_nodes=2,
        max_nodes=4,
        scale_step=2,
    )


def run_three_ways():
    elastic_cluster = build_cluster(2)
    scaler = Autoscaler(elastic_cluster, config=policy())
    elastic = run_trace(
        elastic_cluster, TrafficGenerator(profile()), STATEMENTS, EPOCHS,
        scaler=scaler, requests_per_client=2, service_scale=50.0,
        seed=9, result_key=rows_key,
    )
    static_cluster = build_cluster(6)
    static = run_trace(
        static_cluster, TrafficGenerator(profile()), STATEMENTS, EPOCHS,
        requests_per_client=2, service_scale=50.0, seed=9,
        result_key=rows_key,
    )
    serial_cluster = build_cluster(6)
    serial = run_serial_trace(
        serial_cluster, TrafficGenerator(profile()), STATEMENTS, EPOCHS,
        requests_per_client=2, service_scale=50.0, seed=9,
        result_key=rows_key,
    )
    return elastic, static, serial, scaler, elastic_cluster


def test_autoscale_trace(benchmark):
    box = {}

    def run():
        box["results"] = run_three_ways()
        return box["results"][0].completed

    benchmark.pedantic(run, rounds=1, iterations=1)
    elastic, static, serial, scaler, elastic_cluster = box["results"]

    # -- the three claims -----------------------------------------------------
    for result in (elastic, static, serial):
        assert result.rejected == 0 and result.errors == 0
        assert result.completed == elastic.completed
    assert elastic.p99_seconds <= SLO_SECONDS
    assert elastic.slo_attainment(SLO_SECONDS) >= 0.99
    savings = 1.0 - elastic.node_seconds / static.node_seconds
    assert savings >= 0.30, f"only {savings:.1%} node-seconds saved"
    assert elastic.digests == static.digests == serial.digests
    for action in ("scale_out", "scale_in", "hibernate", "revive"):
        assert scaler.decisions[action] >= 1, scaler.decisions

    # -- report ---------------------------------------------------------------
    rows = [
        [
            name,
            result.completed,
            f"{result.p99_seconds:.3f}",
            f"{result.slo_attainment(SLO_SECONDS):.3f}",
            f"{result.node_seconds:.0f}",
            f"{result.node_dollars:.2f}",
        ]
        for name, result in (
            ("elastic", elastic), ("static", static), ("serial", serial),
        )
    ]
    emit(format_table(
        "Autoscale — one diurnal day, elastic vs peak-provisioned static",
        ["run", "completed", "p99 (s)", f"SLO<={SLO_SECONDS}s",
         "node-seconds", "dollars"],
        rows,
    ))
    emit(
        f"elastic saves {savings:.1%} node-seconds "
        f"(${static.node_dollars - elastic.node_dollars:.2f}/day) with "
        f"identical row digests; decisions: {dict(scaler.decisions)}"
    )
