"""Catalog sync uploads the log as segments: the records oracle.

After every sync, the records a node's shared area holds — read through the
one segment reader — are its local log's records, byte for byte, above the
newest uploaded checkpoint (the base a revive starts from), and every one of
them is the record the commit coordinator committed.  Each sync lists a
node's area once and writes at most a segment and a checkpoint, however many
commits came before it.  The scenario covers a segment lost from shared
storage, a node whose local logs were pruned before it synced, a node down,
syncs with and without a checkpoint, revive (which truncates every node) and
the second incarnation that follows.
"""

from typing import Dict

import pytest

from repro import EonCluster
from repro.catalog.transaction_log import LogStore, parse_segment, segment_name
from repro.cluster.revive import revive


def lines(store: LogStore) -> Dict[int, bytes]:
    """Every record line the store's segments hold, by version."""
    held = {}
    for first, last in store.listing().segments:
        data = store.segment_bytes([(first, last)])
        parse_segment(first, last, data)  # the reader accepts the segment
        held.update(zip(range(first, last + 1), data.split(b"\n")))
    return held


def scenario(seed: int) -> list:
    cluster = EonCluster(["n1", "n2", "n3"], shard_count=3, seed=seed)
    shared = cluster.shared
    committed: Dict[int, bytes] = {}
    lost: Dict[str, set] = {}
    seen = []
    batches = iter(range(100))

    def load(count: int) -> None:
        for batch in (next(batches) for _ in range(count)):
            cluster.load("t", [(batch * 100 + i, f"g{i % 5}") for i in range(40)])

    def requests(op: str) -> int:
        return shared.op_stats[op].requests

    def sync(include_checkpoint: bool) -> None:
        before = requests("LIST"), requests("PUT")
        intervals = cluster.sync_catalogs(include_checkpoint)
        up = cluster.up_nodes()
        assert requests("LIST") - before[0] == len(up)
        assert requests("PUT") - before[1] <= 2 * len(up)
        committed.update((r.version, r.to_bytes()) for r in cluster.coordinator.log_history)
        for node in up:
            store = cluster.shared_meta_store(node.name)
            listing = store.listing()
            base = listing.checkpoints[-1]
            uploaded, local = lines(store), lines(node.catalog.log_store)
            missing = lost.get(node.name, set())
            assert {v: b for v, b in uploaded.items() if v > base} == {
                v: b for v, b in local.items() if v > base and v not in missing
            }
            assert all(committed[v] == b for v, b in uploaded.items())
            assert intervals[node.name] == listing.interval()
            if not any(v > base for v in missing):
                assert intervals[node.name][1] == node.catalog.state.version
        seen.append(("sync", intervals))
        seen.append(("truncation", cluster.compute_truncation_version()))

    # n2 checkpoints, and prunes its local logs, every three commits, so its
    # first upload lacks the logs its oldest kept checkpoint covers.
    cluster.nodes["n2"].catalog.checkpoint_every = 3
    cluster.execute("create table t (a int, b varchar)")
    load(9)
    sync(False)  # no checkpoint uploaded yet: each node writes its first
    seen.append(("n2", cluster.shared_meta_store("n2").listing()))
    load(3)
    sync(False)
    # A segment lost from shared storage: n1's interval stops below it.
    store = cluster.shared_meta_store("n1")
    first, last = store.listing().segments[-1]
    store.fs.delete(segment_name(first, last))
    lost["n1"] = set(range(first, last + 1))
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
    lost.clear()
    load(3)
    sync(False)
    sync(True)
    puts = requests("PUT")
    sync(True)  # nothing new: no segment, and no checkpoint twice
    assert requests("PUT") == puts
    seen.append(("rows", cluster.query("select count(*) from t").rows.to_pylist()))
    return seen


@pytest.mark.parametrize("seed", [3, 8])
def test_uploaded_records_are_the_local_log(seed):
    seen = scenario(seed)
    syncs = [entry[1] for entry in seen if entry[0] == "sync"]
    [(_, n2)] = [entry for entry in seen if entry[0] == "n2"]
    # Pruned before its first upload: one segment, from past version 1 up
    # to the checkpoint that store's first sync encoded.
    assert len(n2.segments) == 1 and 1 < n2.segments[0][0]
    assert n2.checkpoints == [n2.segments[0][1]]
    assert syncs[2]["n1"][1] < syncs[2]["n3"][1]  # the lost segment
    assert "n2" not in syncs[3]  # down
    revived_at = seen[seen.index(("cluster_info", "cluster_info_000000000001.json")) - 1]
    assert {low for low, _ in syncs[5].values()} == {revived_at[1]}  # a new incarnation
    assert seen[-1] == ("rows", [(22 * 40,)])
