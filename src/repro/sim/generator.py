"""Seeded, state-aware scenario generation.

The generator owns its *own* ``random.Random(seed)`` — distinct from the
cluster's and the fault injector's RNG streams — and samples one concrete
action per step from a weighted menu.  The menu is state-aware: it only
offers kills that the cluster can survive, recoveries when something is
down, pinned-query steps when a pin is open, and a revive when the
cluster is whole.  Because every draw is from the seeded stream and the
menu is derived deterministically from world state, the same seed always
generates the same schedule against the same world.

There is one generator.  A named *profile* (:data:`PROFILES`) boosts the
actions one test wall cares about by appending rows to the base menu —
never by editing it, so the base corpus's schedules stay where they are.

Shrinking note: generated actions carry concrete parameters, so the
harness's recorded schedule — not the generator — is the replay artifact.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from types import MethodType
from typing import Callable, Dict, List, Tuple

from repro.sim import actions as act


# -- menu rows and their gates ----------------------------------------------------
#
# Gates: when a row is on the menu (``ScenarioGenerator._gates``).  A
# shut-down cluster offers nothing but ``advance_clock`` — the base menu
# returns before it reaches any gate.

ALWAYS = "always"
#: S3 is reachable: the action needs its reads or commits to land.
NO_OUTAGE = "no outage"
#: Some node can die without costing quorum or shard coverage.
KILLABLE = "killable"
#: ...and no outage would mask the failover path with storage failures.
KILLABLE_NO_OUTAGE = "killable, no outage"


@dataclass(frozen=True)
class MenuRow:
    """One addition to the base menu: draw ``factory`` with ``weight``
    whenever ``gate`` holds."""

    weight: float
    factory: Callable
    gate: str = ALWAYS


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

    def __init__(self, seed: int, profile: str = "base"):
        self.rng = random.Random(seed ^ 0x9E3779B9)
        self.additions = PROFILES[profile]
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
        gates = self._gates(world)
        if gates[KILLABLE]:
            menu.append((7.0, self._kill))
        if gates[KILLABLE_NO_OUTAGE]:
            menu.append((4.0, self._kill_mid_query))
        if gates[NO_OUTAGE]:
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
        # The profile's rows come last, in table order: a prefix of every
        # profile's menu is the base menu.
        for row in self.additions:
            if gates[row.gate]:
                menu.append((row.weight, MethodType(row.factory, self)))
        return menu

    def _gates(self, world) -> Dict[str, bool]:
        """The preconditions menu rows share, computed once per step."""
        # The store's flag *is* the fault injector's declared window.
        no_outage = not world.cluster.shared.outage_active
        killable = bool(self._killable_nodes(world))
        return {
            ALWAYS: True,
            NO_OUTAGE: no_outage,
            KILLABLE: killable,
            KILLABLE_NO_OUTAGE: killable and no_outage,
        }

    # -- factories (each consumes generator-RNG draws only) --------------------

    def _copy(self, world) -> act.CopyBatch:
        n = self.rng.randrange(10, 40)
        base = self._next_key
        self._next_key += n
        return act.CopyBatch(key_base=base, n=n)

    def _cut(self) -> int:
        return 1000 + self.rng.randrange(0, 400)

    def _pool_sql(self, world) -> str:
        """Any pool statement: the template is drawn first, then its cut."""
        template = self.QUERY_POOL[self.rng.randrange(len(self.QUERY_POOL))]
        return template.format(table=world.table, cut=self._cut())

    def _full_scan_sql(self, world) -> str:
        """A pool statement over every container of the table (the first
        four templates have no WHERE) — what a cold-depot action wants."""
        template = self.QUERY_POOL[self.rng.randrange(4)]
        return template.format(table=world.table, cut=0)

    def _storm_sqls(self, world) -> Tuple[str, ...]:
        """The two or three statements a closed-loop storm's clients share."""
        return tuple(self._pool_sql(world) for _ in range(2 + self.rng.randrange(2)))

    def _query(self, world) -> act.Query:
        return act.Query(self._pool_sql(world))

    def _crunch_query(self, world) -> act.Query:
        template = self.QUERY_POOL[self.rng.randrange(len(self.QUERY_POOL))]
        mode = "hash" if self.rng.random() < 0.5 else "container"
        return act.Query(
            template.format(table=world.table, cut=self._cut()),
            crunch=mode,
            nodes_per_shard=2,
        )

    def _fetch_storm(self, world) -> act.FetchStorm:
        sql = self._full_scan_sql(world)
        return act.FetchStorm(sql, rounds=max(2, len(world.cluster.up_nodes())))

    def _query_storm(self, world) -> act.QueryStorm:
        # A small concurrent burst: a few statements shared by several
        # closed-loop clients, all interleaved on the sim clock through
        # the admission controller.
        sqls = self._storm_sqls(world)
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
        return act.survivable_losses(cluster, [n.name for n in cluster.up_nodes()])

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
        return act.KillMidQuery(self._pool_sql(world))

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

    # -- factories only profiles offer -----------------------------------------

    def _autoscale_tick(self, world) -> act.AutoscaleTick:
        return act.AutoscaleTick()

    def _pushdown_race(self, world) -> act.PushdownRace:
        # The last two pool templates carry {cut} predicates; the race is
        # most interesting when the server has something to filter.
        template = self.QUERY_POOL[4 + self.rng.randrange(2)]
        return act.PushdownRace(template.format(table=world.table, cut=self._cut()))

    def _redesign(self, world) -> act.Redesign:
        return act.Redesign()

    def _noisy_neighbor(self, world) -> act.NoisyNeighborProbe:
        sqls = self._storm_sqls(world)
        # More clients than the storm action's usual draw: queue wait only
        # dominates when arrivals outnumber the pools' execution slots.
        clients = 6 + self.rng.randrange(5)
        return act.NoisyNeighborProbe(
            sqls=sqls, clients=clients, requests_per_client=2
        )

    def _depot_stampede(self, world) -> act.DepotStampedeProbe:
        return act.DepotStampedeProbe(self._full_scan_sql(world))

    def _hot_shard(self, world) -> act.HotShardThrottleProbe:
        sql = self._full_scan_sql(world)
        # Rates around 0.5: high enough that most requests retry (backoff
        # 0.05*2^k quickly dwarfs the ~ms-scale GET service time), low
        # enough that giving up after 5 attempts stays the exception.
        rate = round(0.45 + self.rng.random() * 0.2, 3)
        ops = self.rng.randrange(12, 30)
        return act.HotShardThrottleProbe(sql, rate=rate, ops=ops)

    def _straggler(self, world) -> act.StragglerFailoverProbe:
        return act.StragglerFailoverProbe(self._pool_sql(world))


# -- profiles ----------------------------------------------------------------------

_G = ScenarioGenerator

# Storms boosted so a short campaign interleaves many sessions through the
# admission controller and ``wm-slot-accounting`` sees real contention.
_WM = MenuRow(14.0, _G._query_storm)

#: profile -> the rows appended to the base menu, in order.  Every factory
#: draws only from the generator's own stream, after the menu pick — so a
#: profile shifts no schedule but its own.
PROFILES: Dict[str, Tuple[MenuRow, ...]] = {
    "base": (),
    "wm": (_WM,),
    # The wm row (query storms make queue telemetry move) plus a boosted
    # tick, so short campaigns reach scale-out, scale-in, hibernate and
    # revive under chaos.  The tick is parameter-free and draws nothing.
    "autoscale": (_WM, MenuRow(12.0, _G._autoscale_tick)),
    # Cold-depot races of the server-side scan against the depot fetch it
    # replaces, feeding ``pushdown-digest-parity``; both legs need S3.
    "pushdown": (MenuRow(12.0, _G._pushdown_race, NO_OUTAGE),),
    # Mid-campaign cost-based redesign, feeding ``designer-digest-parity``;
    # its commits would all be rejected during an outage.  Parameter-free.
    "designer": (MenuRow(10.0, _G._redesign, NO_OUTAGE),),
    # The doctor's scenario pack, one overload signature per profile.
    # Tenant contention: storms sized to saturate the slot pools, logging
    # ``queue wait`` probes.
    "noisy_neighbor": (MenuRow(20.0, _G._noisy_neighbor),),
    # Thundering herd: mass depot loss, then a cold full scan, logging
    # ``depot misses`` probes; an outage-time depot must not be cleared.
    "depot_stampede": (MenuRow(25.0, _G._depot_stampede, NO_OUTAGE),),
    # Skewed-shard hotspot: a cold scan driven into a throttling burst,
    # logging ``throttling`` probes.
    "hot_shard": (MenuRow(25.0, _G._hot_shard, NO_OUTAGE),),
    # Slow-node straggler: warm the depot, kill a participant mid-query,
    # require failover, logging ``failover backoff`` probes.
    "straggler": (MenuRow(20.0, _G._straggler, KILLABLE_NO_OUTAGE),),
    # The recovery path pinned on: the base menu's own ``kill_mid_query``
    # and ``s3_outage`` a second time with boosted weights, so short
    # campaigns reliably see mid-query failover and degraded entry/exit.
    "chaos": (
        MenuRow(12.0, _G._kill_mid_query, KILLABLE_NO_OUTAGE),
        MenuRow(6.0, _G._s3_outage, NO_OUTAGE),
    ),
}
