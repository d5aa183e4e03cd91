"""Distributed transaction commit for the Eon cluster (section 3.2).

A transaction accumulates catalog ops (global and shard-scoped) plus an
OCC write set.  At commit:

1. the write set is validated against the coordinator's object-version
   index (section 6.3);
2. the subscription invariant is checked — every shard the transaction
   touched must still have the expected subscribers, and a participating
   writer that lost its subscription mid-transaction aborts the commit
   ("if the session sees concurrent subscription changes so that a
   participating node is no longer subscribed to the shard it wrote the
   data into, the transaction is rolled back", section 4.5);
3. the record is applied to every *up* node's catalog, each filtering to
   its subscribed shards — the metadata redistribution of section 3.2.

Down nodes miss the record; recovery replays it from the cluster's log
history (the stand-in for peer metadata transfer).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.catalog.mvcc import Op, op_shard_of
from repro.catalog.occ import WriteSet
from repro.catalog.transaction_log import LogRecord
from repro.errors import TransactionAborted
from repro.sharding.subscription import SubscriptionState


@dataclass
class Transaction:
    """An open transaction: buffered ops plus OCC bookkeeping."""

    ops: List[Op] = field(default_factory=list)
    write_set: WriteSet = field(default_factory=WriteSet)
    #: (shard_id, node) pairs that must still be subscribed at commit.
    expected_subscriptions: List[Tuple[int, str]] = field(default_factory=list)
    read_only: bool = True

    def add_op(self, op: Op) -> None:
        self.ops.append(op)
        self.read_only = False

    def expect_subscription(self, shard_id: int, node: str) -> None:
        self.expected_subscriptions.append((shard_id, node))


class CommitCoordinator:
    """Serialises commits and redistributes metadata across nodes."""

    def __init__(self, cluster, base_version: int = 0) -> None:
        self._cluster = cluster
        #: Version the incarnation started from (non-zero after a revive).
        self.base_version = base_version
        self.log_history: List[LogRecord] = []
        self.aborted_commits = 0
        #: Storage names the last commit removed from some up node's state.
        self.last_removed: Set[str] = set()

    @property
    def version(self) -> int:
        return self.base_version + len(self.log_history)

    def commit(self, txn: Transaction, epoch: int = 0) -> int:
        """Validate and commit; returns the new global catalog version."""
        cluster = self._cluster
        coordinator = cluster.any_up_node()

        # OCC write-set validation against the latest object versions.
        txn.write_set.record_ops(txn.ops, coordinator.catalog.versions)
        try:
            coordinator.catalog.validate_write_set(txn.write_set)
        except TransactionAborted:
            self.aborted_commits += 1
            raise

        # Subscription invariant: writers must still be subscribed.
        state = coordinator.catalog.state
        for shard_id, node in txn.expected_subscriptions:
            sub_state = state.subscriptions.get((node, shard_id))
            if sub_state is None or not SubscriptionState(sub_state).participates_in_commit:
                self.aborted_commits += 1
                raise TransactionAborted(
                    f"node {node} is no longer subscribed to shard {shard_id}; "
                    "rolling back"
                )
        # Every shard touched by a shard-scoped op needs at least one up
        # subscriber to receive the metadata.
        touched_shards = {
            op_shard_of(op) for op in txn.ops if op_shard_of(op) is not None
        }
        for shard_id in touched_shards:
            if not cluster.up_subscribers(shard_id):
                self.aborted_commits += 1
                raise TransactionAborted(
                    f"no up subscriber for shard {shard_id}; rolling back"
                )

        record = LogRecord(
            version=self.version + 1, ops=tuple(txn.ops), epoch=epoch
        )
        self.log_history.append(record)
        self.last_removed = set()
        for node in cluster.up_nodes():
            self.last_removed.update(node.catalog.apply_commit(record))
        return record.version

    def records_after(self, version: int) -> List[LogRecord]:
        """Commits a recovering node missed (its metadata-transfer diff)."""
        return [r for r in self.log_history if r.version > version]
