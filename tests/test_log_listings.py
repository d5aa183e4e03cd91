"""Catalog sync and the truncation version search sorted listings by name.

``reference_sync_to`` and ``reference_revivable_interval`` are
``Catalog.sync_to`` and ``revivable_interval`` as they were before — every
name of a listing parsed to a version, and the shared logs made a set — kept
here as the oracle.  One scenario runs twice, once on each, and must upload
the same objects, report the same intervals and truncation versions, and
book the same shared-storage ledger: requests per class, bytes, simulated
seconds and dollars.  It covers a log lost from shared storage, a node whose
local logs were pruned before it synced (its uploaded checkpoint is newer
than logs it never uploaded), a node down, syncs with and without a
checkpoint, revive (which truncates every node) and the second incarnation
that follows.
"""

from typing import Tuple

import pytest

from repro import EonCluster
from repro.catalog import catalog as catalog_module
from repro.catalog.catalog import Catalog
from repro.catalog.transaction_log import Checkpoint, LogStore, log_name
from repro.cluster.revive import revive

# ---------------------------------------------------------------------------
# the oracle


def reference_sync_to(self, shared: LogStore, include_checkpoint: bool = False) -> Tuple[int, int]:
    local_versions = self.log_store.log_versions()
    already = set(shared.log_versions())
    for version in local_versions:
        if version > self._last_uploaded and version not in already:
            shared.fs.write(log_name(version), self.log_store.fs.read(log_name(version)))
    if local_versions:
        self._last_uploaded = max(self._last_uploaded, max(local_versions))
    if include_checkpoint or not shared.checkpoint_versions():
        existing = shared.checkpoint_versions()
        if self.state.version not in existing:
            shared.write_checkpoint(Checkpoint.of_state(self.state))
    return catalog_module.revivable_interval(shared)


def reference_revivable_interval(store: LogStore) -> Tuple[int, int]:
    checkpoints = store.checkpoint_versions()
    if not checkpoints:
        return (0, 0)
    low = checkpoints[0]
    newest = checkpoints[-1]
    logs = set(store.log_versions())
    high = newest
    while high + 1 in logs:
        high += 1
    return (low, high)


# ---------------------------------------------------------------------------
# the scenario


def scenario(seed: int) -> dict:
    """Everything the listings decide, and the ledger they leave."""
    cluster = EonCluster(["n1", "n2", "n3"], shard_count=3, seed=seed)
    shared = cluster.shared
    seen = []
    batches = iter(range(100))

    def load(count: int) -> None:
        for batch in (next(batches) for _ in range(count)):
            cluster.load("t", [(batch * 100 + i, f"g{i % 5}") for i in range(40)])

    def sync(include_checkpoint: bool) -> None:
        seen.append(("sync", cluster.sync_catalogs(include_checkpoint)))
        seen.append(("truncation", cluster.compute_truncation_version()))

    def uploaded(node: str, kind: str) -> list:
        """Versions on shared storage, looked up without a request."""
        prefix = f"meta_{cluster.incarnation}_{node}_{kind}"
        return [int(name[len(prefix):]) for name in shared.peek(prefix)]

    # n2 checkpoints, and prunes its local logs, every three commits, so its
    # first upload lacks the logs its oldest kept checkpoint covers.
    cluster.nodes["n2"].catalog.checkpoint_every = 3
    cluster.execute("create table t (a int, b varchar)")
    load(9)
    sync(False)  # no checkpoint uploaded yet: each node writes its first
    seen.append(("n2", uploaded("n2", "txn_"), uploaded("n2", "ckpt_")))
    load(3)
    sync(False)
    # A log lost from shared storage: n1's interval stops below it.
    lost = cluster.shared_meta_store("n1")
    lost.fs.delete(log_name(lost.log_versions()[-2]))
    load(1)
    sync(False)
    cluster.kill_node("n2")
    load(2)
    sync(False)
    cluster.recover_node("n2")
    load(4)
    sync(True)
    seen.append(("cluster_info", cluster.write_cluster_info(lease_seconds=0)))
    load(1)  # never uploaded: revive truncates it away
    # Revive truncates every node to the consensus version and moves to a
    # new incarnation, whose listings start empty.
    cluster = revive(shared, clock=cluster.clock)
    load(3)
    sync(False)
    sync(True)
    sync(True)  # nothing new: no log, and no checkpoint twice
    seen.append(("rows", cluster.query("select count(*) from t").rows.to_pylist()))
    objects = {name: bytes(shared._objects[name]) for name in shared.peek()}
    ledger = {
        op: (s.requests, s.bytes, s.sim_seconds, s.dollars)
        for op, s in shared.metrics.ops.items()
    }
    return {
        "seen": seen, "objects": objects, "ledger": ledger,
        "sim_seconds": shared.metrics.sim_seconds, "dollars": shared.metrics.dollars,
    }


@pytest.mark.parametrize("seed", [3, 8])
def test_listings_agree_with_the_parse_and_so_does_the_ledger(monkeypatch, seed):
    searched = scenario(seed)
    with monkeypatch.context() as patched:
        patched.setattr(Catalog, "sync_to", reference_sync_to)
        patched.setattr(catalog_module, "revivable_interval", reference_revivable_interval)
        parsed = scenario(seed)
    assert searched["seen"] == parsed["seen"]
    assert searched["objects"] == parsed["objects"]
    assert searched["ledger"] == parsed["ledger"]
    assert (searched["sim_seconds"], searched["dollars"]) == (
        parsed["sim_seconds"], parsed["dollars"])
    # The scenario reaches what it is for.
    seen = searched["seen"]
    syncs = [entry[1] for entry in seen if entry[0] == "sync"]
    [(_, logs, checkpoints)] = [entry for entry in seen if entry[0] == "n2"]
    assert 1 < logs[0] < checkpoints[0] == logs[-1]  # pruned before its first upload
    assert syncs[2]["n1"][1] < syncs[2]["n3"][1]  # the lost log
    assert "n2" not in syncs[3]  # down
    revived_at = seen[seen.index(("cluster_info", "cluster_info_000000000001.json")) - 1]
    assert {low for low, _ in syncs[5].values()} == {revived_at[1]}  # a new incarnation
    assert seen[-1] == ("rows", [(22 * 40,)])
