"""Seeded, state-aware scenario generation.

The generator owns its *own* ``random.Random(seed)`` — distinct from the
cluster's and the fault injector's RNG streams — and samples one concrete
action per step from a weighted menu.  The menu is state-aware: it only
offers kills that the cluster can survive, recoveries when something is
down, pinned-query steps when a pin is open, and a revive when the
cluster is whole.  Because every draw is from the seeded stream and the
menu is derived deterministically from world state, the same seed always
generates the same schedule against the same world.

Shrinking note: generated actions carry concrete parameters, so the
harness's recorded schedule — not the generator — is the replay artifact.
"""

from __future__ import annotations

import random
from typing import Callable, List, Tuple

from repro.sim import actions as act


class ScenarioGenerator:
    """Draws the next action from the seeded stream, given world state."""

    #: SQL pool for ordinary (unpinned) queries; {cut} is a key threshold.
    QUERY_POOL = (
        "select count(*) from {table}",
        "select sum(v) from {table}",
        "select g, count(*) c from {table} group by g",
        "select g, sum(v) s from {table} group by g",
        "select count(*) from {table} where k < {cut}",
        "select sum(v) from {table} where k >= {cut}",
    )

    #: SQL pool for pinned snapshots (must stay exact across later DML).
    PIN_POOL = (
        "select count(*) from {table}",
        "select sum(v) from {table}",
        "select g, count(*) c from {table} group by g",
    )

    def __init__(self, seed: int):
        self.rng = random.Random(seed ^ 0x9E3779B9)
        self._next_key = 1000
        self._next_pin = 0
        self._next_extra_node = 0

    def next_action(self, world):
        menu = self._menu(world)
        total = sum(weight for weight, _ in menu)
        pick = self.rng.random() * total
        acc = 0.0
        for weight, factory in menu:
            acc += weight
            if pick < acc:
                return factory(world)
        return menu[-1][1](world)

    # -- menu construction -----------------------------------------------------

    def _menu(self, world) -> List[Tuple[float, Callable]]:
        cluster = world.cluster
        menu: List[Tuple[float, Callable]] = [
            (20.0, self._copy),
            (16.0, self._query),
            (5.0, self._crunch_query),
            (7.0, self._dml),
            (9.0, self._maintenance),
            (4.0, self._mergeout),
            (7.0, self._advance_clock),
            (6.0, self._burst),
            (3.0, self._fetch_storm),
        ]
        if cluster.shut_down:
            # Nothing sensible left but letting time pass; the harness
            # still checks invariants on the carcass every step.
            return [(1.0, self._advance_clock)]
        if self._killable_nodes(world):
            menu.append((7.0, self._kill))
            if not cluster.shared.outage_active:
                menu.append((4.0, self._kill_mid_query))
        if not cluster.shared.faults.outage_active:
            menu.append((3.0, self._s3_outage))
        if any(not n.is_up for n in cluster.nodes.values()):
            menu.append((12.0, self._recover))
        menu.append((4.0, self._subscribe))
        menu.append((4.0, self._unsubscribe))
        if len(world.pins) < 2:
            menu.append((6.0, self._pin))
        if world.pins:
            menu.append((7.0, self._query_pinned))
            menu.append((4.0, self._release_pin))
        menu.append((3.0, self._add_node))
        if any(name.startswith("extra") for name in cluster.nodes):
            menu.append((3.0, self._remove_node))
        if all(n.is_up for n in cluster.nodes.values()) and not cluster.shared.faults.burst_active:
            menu.append((2.0, self._revive))
        return menu

    # -- factories (each consumes generator-RNG draws only) --------------------

    def _copy(self, world) -> act.CopyBatch:
        n = self.rng.randrange(10, 40)
        base = self._next_key
        self._next_key += n
        return act.CopyBatch(key_base=base, n=n)

    def _cut(self) -> int:
        return 1000 + self.rng.randrange(0, 400)

    def _query(self, world) -> act.Query:
        template = self.QUERY_POOL[self.rng.randrange(len(self.QUERY_POOL))]
        return act.Query(template.format(table=world.table, cut=self._cut()))

    def _crunch_query(self, world) -> act.Query:
        template = self.QUERY_POOL[self.rng.randrange(len(self.QUERY_POOL))]
        mode = "hash" if self.rng.random() < 0.5 else "container"
        return act.Query(
            template.format(table=world.table, cut=self._cut()),
            crunch=mode,
            nodes_per_shard=2,
        )

    def _fetch_storm(self, world) -> act.FetchStorm:
        # Full-scan templates only (the first four have no WHERE): the
        # point is a cold-depot batch over every container of the table.
        template = self.QUERY_POOL[self.rng.randrange(4)]
        rounds = max(2, len(world.cluster.up_nodes()))
        return act.FetchStorm(
            template.format(table=world.table, cut=0), rounds=rounds
        )

    def _query_storm(self, world) -> act.QueryStorm:
        # A small concurrent burst: a few statements shared by several
        # closed-loop clients, all interleaved on the sim clock through
        # the admission controller.
        count = 2 + self.rng.randrange(2)
        sqls = tuple(
            self.QUERY_POOL[self.rng.randrange(len(self.QUERY_POOL))].format(
                table=world.table, cut=self._cut()
            )
            for _ in range(count)
        )
        clients = 3 + self.rng.randrange(6)
        requests = 1 + self.rng.randrange(2)
        return act.QueryStorm(
            sqls=sqls, clients=clients, requests_per_client=requests
        )

    def _dml(self, world):
        cut = self._cut()
        if self.rng.random() < 0.5:
            return act.DmlStatement(f"delete from {world.table} where k < {cut}")
        return act.DmlStatement(f"update {world.table} set v = v + 1 where k < {cut}")

    def _killable_nodes(self, world) -> List[str]:
        cluster = world.cluster
        up = cluster.up_nodes()
        if (len(up) - 1) * 2 <= len(cluster.nodes):
            return []
        out = []
        for node in up:
            survivable = all(
                any(
                    n != node.name
                    for n in cluster.active_up_subscribers(shard_id)
                )
                for shard_id in cluster.shard_map.all_shard_ids()
            )
            if survivable:
                out.append(node.name)
        return out

    def _kill(self, world):
        candidates = self._killable_nodes(world)
        if not candidates:
            return self._query(world)
        name = candidates[self.rng.randrange(len(candidates))]
        return act.KillNode(name, lose_local_disk=self.rng.random() < 0.3)

    def _recover(self, world):
        down = sorted(
            n.name for n in world.cluster.nodes.values() if not n.is_up
        )
        if not down:
            return self._query(world)
        return act.RecoverNode(down[self.rng.randrange(len(down))])

    def _burst(self, world) -> act.S3Burst:
        rate = round(0.5 + self.rng.random() * 0.45, 3)
        ops = self.rng.randrange(5, 30)
        return act.S3Burst(rate=rate, ops=ops)

    def _kill_mid_query(self, world) -> act.KillMidQuery:
        template = self.QUERY_POOL[self.rng.randrange(len(self.QUERY_POOL))]
        return act.KillMidQuery(template.format(table=world.table, cut=self._cut()))

    def _s3_outage(self, world) -> act.S3Outage:
        # Windows of 20..200 sim-seconds: long enough to span several
        # steps (clock advances draw 1..119s), short enough that most
        # campaigns see both the entry and the exit.
        return act.S3Outage(seconds=float(self.rng.randrange(20, 200)))

    def _subscribe(self, world):
        cluster = world.cluster
        up = sorted(n.name for n in cluster.up_nodes())
        if not up:
            return self._advance_clock(world)
        node = up[self.rng.randrange(len(up))]
        shard = self.rng.randrange(cluster.shard_map.count)
        return act.Subscribe(node, shard)

    def _unsubscribe(self, world):
        cluster = world.cluster
        up = sorted(n.name for n in cluster.up_nodes())
        if not up:
            return self._advance_clock(world)
        node = up[self.rng.randrange(len(up))]
        shard = self.rng.randrange(cluster.shard_map.count)
        return act.Unsubscribe(node, shard)

    def _pin(self, world):
        template = self.PIN_POOL[self.rng.randrange(len(self.PIN_POOL))]
        tag = f"pin{self._next_pin}"
        self._next_pin += 1
        return act.PinSnapshot(tag, template.format(table=world.table))

    def _query_pinned(self, world):
        tags = sorted(world.pins)
        if not tags:
            return self._query(world)
        return act.QueryPinned(tags[self.rng.randrange(len(tags))])

    def _release_pin(self, world):
        tags = sorted(world.pins)
        if not tags:
            return self._query(world)
        return act.ReleasePin(tags[self.rng.randrange(len(tags))])

    def _maintenance(self, world) -> act.MaintenanceTick:
        return act.MaintenanceTick(checkpoint=self.rng.random() < 0.4)

    def _mergeout(self, world) -> act.Mergeout:
        return act.Mergeout(max_jobs_per_shard=2)

    def _advance_clock(self, world) -> act.AdvanceClock:
        return act.AdvanceClock(dt=float(self.rng.randrange(1, 120)))

    def _add_node(self, world):
        name = f"extra{self._next_extra_node}"
        self._next_extra_node += 1
        return act.AddNode(name)

    def _remove_node(self, world):
        extras = sorted(
            name for name in world.cluster.nodes if name.startswith("extra")
        )
        if not extras:
            return self._query(world)
        return act.RemoveNode(extras[self.rng.randrange(len(extras))])

    def _revive(self, world) -> act.ReviveCluster:
        return act.ReviveCluster(revive_seed=self.rng.randrange(1, 1 << 30))


class WorkloadScenarioGenerator(ScenarioGenerator):
    """The ``make wm-smoke`` configuration: concurrent ``query_storm``
    bursts boosted so short campaigns reliably interleave many sessions
    through the admission controller (and the ``wm-slot-accounting``
    invariant sees real contention).  Same determinism contract as the
    base generator."""

    def _menu(self, world):
        menu = super()._menu(world)
        if world.cluster.shut_down:
            return menu
        menu.append((14.0, self._query_storm))
        return menu


class AutoscaleScenarioGenerator(WorkloadScenarioGenerator):
    """The ``make autoscale-smoke`` configuration: the workload menu
    (query storms make queue telemetry move) plus a boosted
    ``autoscale_tick`` so short campaigns exercise scale-out, scale-in,
    hibernate and revive under chaos.  The tick action carries no
    parameters and draws nothing from the RNG streams, so the base
    corpus's schedules are unaffected — only campaigns run with *this*
    generator see autoscale actions."""

    def _menu(self, world):
        menu = super()._menu(world)
        if world.cluster.shut_down:
            return menu
        menu.append((12.0, self._autoscale_tick))
        return menu

    def _autoscale_tick(self, world) -> act.AutoscaleTick:
        return act.AutoscaleTick()


class PushdownScenarioGenerator(ScenarioGenerator):
    """The ``make pushdown-smoke`` configuration: the base chaos menu plus
    a boosted ``pushdown_race`` — cold-depot races of the server-side
    pushdown scan against the depot fetch, feeding the
    ``pushdown-digest-parity`` invariant.  Races use the WHERE'd pool
    entries (selective predicates are what the pushdown path is for) and
    draw only from the same generator streams the base menu uses; the
    base generator's menu is untouched, so the base corpus's schedules
    are unshifted — only campaigns run with *this* generator see races."""

    def _menu(self, world):
        menu = super()._menu(world)
        cluster = world.cluster
        if cluster.shut_down:
            return menu
        if not cluster.shared.outage_active:
            menu.append((12.0, self._pushdown_race))
        return menu

    def _pushdown_race(self, world) -> act.PushdownRace:
        # The last two pool templates carry {cut} predicates; the race is
        # most interesting when the server has something to filter.
        template = self.QUERY_POOL[4 + self.rng.randrange(2)]
        return act.PushdownRace(template.format(table=world.table, cut=self._cut()))


class DesignerScenarioGenerator(ScenarioGenerator):
    """The ``make designer-smoke`` configuration: the base chaos menu plus
    a boosted ``redesign`` action — mid-campaign cost-based re-design,
    applying versioned projections online and probing the redesigned
    layouts against the oracle, feeding the ``designer-digest-parity``
    invariant.  The action is parameter-free and consumes no
    generator-RNG draws, so the base corpus's schedules are unshifted —
    only campaigns run with *this* generator see redesigns.  Gated on no
    active outage (redesign commits would all be rejected)."""

    def _menu(self, world):
        menu = super()._menu(world)
        cluster = world.cluster
        if cluster.shut_down:
            return menu
        if not cluster.shared.outage_active:
            menu.append((10.0, self._redesign))
        return menu

    def _redesign(self, world) -> act.Redesign:
        return act.Redesign()


class NoisyNeighborScenarioGenerator(ScenarioGenerator):
    """Doctor scenario pack, tenant-contention flavor: boosted
    ``noisy_neighbor`` probes — closed-loop storms sized to saturate the
    execution-slot pools, logging ``queue wait`` doctor probes whenever a
    storm request spent most of its latency in the admission queue.  The
    base menu is untouched, so the base corpus's schedules are unshifted."""

    def _menu(self, world):
        menu = super()._menu(world)
        if world.cluster.shut_down:
            return menu
        menu.append((20.0, self._noisy_neighbor))
        return menu

    def _noisy_neighbor(self, world) -> act.NoisyNeighborProbe:
        count = 2 + self.rng.randrange(2)
        sqls = tuple(
            self.QUERY_POOL[self.rng.randrange(len(self.QUERY_POOL))].format(
                table=world.table, cut=self._cut()
            )
            for _ in range(count)
        )
        # More clients than the storm action's usual draw: queue wait only
        # dominates when arrivals outnumber the pools' execution slots.
        clients = 6 + self.rng.randrange(5)
        return act.NoisyNeighborProbe(
            sqls=sqls, clients=clients, requests_per_client=2
        )


class DepotStampedeScenarioGenerator(ScenarioGenerator):
    """Doctor scenario pack, thundering-herd flavor: boosted
    ``depot_stampede`` probes — mass depot loss followed by a cold full
    scan, logging ``depot misses`` doctor probes when shared-storage time
    dominated.  Base-menu schedules are unshifted."""

    def _menu(self, world):
        menu = super()._menu(world)
        cluster = world.cluster
        if cluster.shut_down:
            return menu
        if not cluster.shared.outage_active:
            menu.append((25.0, self._depot_stampede))
        return menu

    def _depot_stampede(self, world) -> act.DepotStampedeProbe:
        # Full-scan templates only (no WHERE): the stampede should touch
        # every container of the table, all cold.
        template = self.QUERY_POOL[self.rng.randrange(4)]
        return act.DepotStampedeProbe(
            template.format(table=world.table, cut=0)
        )


class HotShardScenarioGenerator(ScenarioGenerator):
    """Doctor scenario pack, skewed-shard-hotspot flavor: boosted
    ``hot_shard_throttle`` probes — a cold scan driven into a throttling
    burst, logging ``throttling`` doctor probes when the retry loop's
    backoff dominated.  Base-menu schedules are unshifted."""

    def _menu(self, world):
        menu = super()._menu(world)
        cluster = world.cluster
        if cluster.shut_down:
            return menu
        if not cluster.shared.outage_active:
            menu.append((25.0, self._hot_shard))
        return menu

    def _hot_shard(self, world) -> act.HotShardThrottleProbe:
        template = self.QUERY_POOL[self.rng.randrange(4)]
        # Rates around 0.5: high enough that most requests retry (backoff
        # 0.05*2^k quickly dwarfs the ~ms-scale GET service time), low
        # enough that giving up after 5 attempts stays the exception.
        rate = round(0.45 + self.rng.random() * 0.2, 3)
        ops = self.rng.randrange(12, 30)
        return act.HotShardThrottleProbe(
            template.format(table=world.table, cut=0), rate=rate, ops=ops
        )


class StragglerScenarioGenerator(ScenarioGenerator):
    """Doctor scenario pack, slow-node-straggler flavor: boosted
    ``straggler_failover`` probes — warm the depot, kill a participant
    mid-query, and require failover, logging ``failover backoff`` doctor
    probes when the retry penalty dominated.  Gated on a killable node
    and no active outage; base-menu schedules are unshifted."""

    def _menu(self, world):
        menu = super()._menu(world)
        cluster = world.cluster
        if cluster.shut_down:
            return menu
        if self._killable_nodes(world) and not cluster.shared.outage_active:
            menu.append((20.0, self._straggler))
        return menu

    def _straggler(self, world) -> act.StragglerFailoverProbe:
        template = self.QUERY_POOL[self.rng.randrange(len(self.QUERY_POOL))]
        return act.StragglerFailoverProbe(
            template.format(table=world.table, cut=self._cut())
        )


class ChaosScenarioGenerator(ScenarioGenerator):
    """The ``make chaos-smoke`` configuration: the recovery-path actions
    (``kill_mid_query``, ``s3_outage``) pinned on with boosted weights, so
    short campaigns reliably exercise mid-query failover and degraded-mode
    entry/exit.  Same determinism contract as the base generator."""

    def _menu(self, world):
        menu = super()._menu(world)
        cluster = world.cluster
        if cluster.shut_down:
            return menu
        if self._killable_nodes(world) and not cluster.shared.outage_active:
            menu.append((12.0, self._kill_mid_query))
        if not cluster.shared.faults.outage_active:
            menu.append((6.0, self._s3_outage))
        return menu
