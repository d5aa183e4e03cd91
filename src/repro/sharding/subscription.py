"""Subscription state machine (section 3.3, Figure 4).

A node that wants to serve a shard creates a subscription in PENDING; the
subscription service transfers metadata and marks it PASSIVE (it can now
participate in commits and be promoted if all other subscribers fail); the
cache-warming service optionally warms the cache and the subscription
becomes ACTIVE, serving queries.  Unsubscribing goes through REMOVING — the
node keeps serving queries until enough other ACTIVE subscribers exist,
then drops metadata and cache contents.

Node recovery demotes the node's ACTIVE subscriptions back to PENDING,
"effectively forcing a re-subscription" with incremental metadata and
cache transfer.

A catalog keeps the map (node, shard) -> state string; outside the catalog it
is read only through :func:`shards_of`, :func:`holders` and :func:`uncovered`
(the one coverage rule).  The walks along Figure 4 live in
``repro.cluster.subscriptions``.
"""

from __future__ import annotations

import enum
from typing import Collection, Dict, FrozenSet, List, Mapping, Optional, Tuple

from repro.errors import CatalogError

#: A catalog's subscription map: (node, shard) -> stored state string.
Subscriptions = Mapping[Tuple[str, int], str]


class SubscriptionState(enum.Enum):
    PENDING = "PENDING"
    PASSIVE = "PASSIVE"
    ACTIVE = "ACTIVE"
    REMOVING = "REMOVING"

    @property
    def serves_queries(self) -> bool:
        """ACTIVE serves queries; REMOVING keeps serving until dropped."""
        return self in (SubscriptionState.ACTIVE, SubscriptionState.REMOVING)

    @property
    def participates_in_commit(self) -> bool:
        """PASSIVE and above receive shard metadata at commit (section 3.2)."""
        return self in (
            SubscriptionState.PASSIVE,
            SubscriptionState.ACTIVE,
            SubscriptionState.REMOVING,
        )


#: Legal transitions (Figure 4).  ``None`` stands for no subscription.
_TRANSITIONS: Dict[Optional[SubscriptionState], FrozenSet[Optional[SubscriptionState]]] = {
    None: frozenset({SubscriptionState.PENDING}),
    SubscriptionState.PENDING: frozenset(
        {SubscriptionState.PASSIVE, None}  # drop on failure to subscribe
    ),
    SubscriptionState.PASSIVE: frozenset(
        {
            SubscriptionState.ACTIVE,
            SubscriptionState.PENDING,  # recovery restart
            None,
        }
    ),
    SubscriptionState.ACTIVE: frozenset(
        {
            SubscriptionState.REMOVING,
            SubscriptionState.PENDING,  # node recovery: forced re-subscription
        }
    ),
    SubscriptionState.REMOVING: frozenset(
        {None, SubscriptionState.ACTIVE}  # removal abandoned -> serve again
    ),
}


def validate_transition(
    current: Optional[SubscriptionState], target: Optional[SubscriptionState]
) -> None:
    """Raise :class:`CatalogError` on an illegal Figure-4 transition."""
    allowed = _TRANSITIONS[current]
    if target not in allowed:
        raise CatalogError(
            f"illegal subscription transition {current} -> {target}; "
            f"allowed: {sorted(str(s) for s in allowed)}"
        )


# -- the one reader of the subscription map -----------------------------------
#
# Every question the cluster asks of the map is one of these three.  They
# compare the stored strings: sessions, writers, COPY and mergeout ask per op.

_ACTIVE = SubscriptionState.ACTIVE.value


def shards_of(subs: Subscriptions, node: str) -> Dict[int, str]:
    """``node``'s subscriptions: shard -> state, in shard order."""
    return dict(sorted([(s, st) for (n, s), st in subs.items() if n == node]))


def holders(
    subs: Subscriptions,
    shard_id: Optional[int] = None,
    states: Optional[Collection[SubscriptionState]] = None,
) -> List[str]:
    """Sorted names of the nodes subscribed to ``shard_id`` (to any shard
    when None), in one of ``states`` (in any state when None)."""
    wanted = None if states is None else {state.value for state in states}
    return sorted({
        n
        for (n, s), st in subs.items()
        if (shard_id is None or s == shard_id) and (wanted is None or st in wanted)
    })


def uncovered(subs: Subscriptions, shard_ids, among) -> List[int]:
    """The coverage rule (section 3.4): the shards of ``shard_ids`` with no
    ACTIVE subscriber among the node names ``among``."""
    covered = {s for (n, s), st in subs.items() if st == _ACTIVE and n in among}
    return [s for s in shard_ids if s not in covered]
