"""One write path: every ROS container of either flavor comes out of
``repro.load.copy.write_stream``.

The Enterprise fingerprint (``pinned_enterprise_writes.json``) was written
before Enterprise's own COPY, moveout, mergeout, recovery and
redistribution writers were folded into the shared path.  It pins, after
each stage of one scenario, every container's metadata, the owner map, the
bytes of every file on every node's disk, and every query's answer and
simulated latency.  Regenerate it (only on purpose) with
``PYTHONPATH=src python tests/test_write_path.py``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro import ColumnType, EnterpriseCluster, EonCluster, Segmentation
from repro.catalog.mvcc import container_to_json
from repro.cluster import enterprise
from repro.common.types import TableSchema
from repro.errors import CatalogError, ClusterError
from repro.storage.container import RowSet
from repro.tuple_mover.mergeout import MergeoutCoordinatorService

PINNED_PATH = Path(__file__).parent / "pinned_enterprise_writes.json"

QUERIES = (
    "select count(*), sum(a), min(b), max(c) from t",
    "select b, count(*), sum(c) from t group by b order by b",
    "select a, b from t where a < 40 order by a",
    "select x, y from r order by x",
)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _t_rows(batch: int, n: int):
    return [(batch * 1000 + i, f"g{(batch + i) % 5}", (i % 17) * 0.25) for i in range(n)]


def _mergeout(cluster: EnterpriseCluster, name: str) -> int:
    """One node's mergeout, in strata small enough for these few rows."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(enterprise, "STRATA_WIDTH", 3)
        patch.setattr(enterprise, "STRATA_BASE_BYTES", 256)
        return cluster.mergeout(name)


def snapshot(cluster: EnterpriseCluster) -> dict:
    containers = sorted(
        (container_to_json(c) for c in cluster.catalog.state.containers.values()),
        key=lambda c: c["sid"],
    )
    files = {
        name: {f: _sha(data) for f, data in sorted(node.local_fs._objects.items())}
        for name, node in sorted(cluster.nodes.items())
    }
    queries = []
    for sql in QUERIES:
        result = cluster.query(sql)
        answer = json.dumps(result.rows.to_pylist(), default=str).encode()
        queries.append([_sha(answer), result.stats.latency_seconds])
    return {
        "containers": json.loads(json.dumps(containers, default=str)),
        "owner": dict(sorted(cluster.container_owner.items())),
        "files": files,
        "queries": queries,
    }


def enterprise_fingerprint() -> dict:
    """Direct load, kill + recover, WOS load + moveout, mergeout, add_node.

    Recovery runs while each projection holds one container per region and
    the replicated table one per node: the states in which the writers this
    fingerprint was taken from gave the right answer."""
    cluster = EnterpriseCluster(["e1", "e2", "e3"], seed=11)
    cluster.create_table(
        "t", [("a", ColumnType.INT), ("b", ColumnType.VARCHAR), ("c", ColumnType.FLOAT)]
    )
    cluster.create_table("r", [("x", ColumnType.INT), ("y", ColumnType.VARCHAR)],
                         create_super=False)
    cluster.create_projection("r_p", "r", ["x", "y"], ["x"], Segmentation.replicated())
    stages, returns = {}, {}
    returns["direct"] = [
        cluster.load("t", _t_rows(0, 240), direct=True),
        cluster.load("r", [(i, f"y{i % 4}") for i in range(50)]),
    ]
    stages["direct"] = snapshot(cluster)
    cluster.kill_node("e2")
    stages["killed"] = snapshot(cluster)
    returns["recover"] = cluster.recover_node("e2")
    stages["recovered"] = snapshot(cluster)
    returns["direct"] += [cluster.load("t", _t_rows(b, 240), direct=True) for b in range(1, 6)]
    returns["wos"] = [cluster.load("t", _t_rows(b, 45)) for b in range(6, 9)]
    returns["moveout"] = [cluster.moveout(name) for name in cluster.node_order]
    stages["moveout"] = snapshot(cluster)
    returns["mergeout"] = [
        _mergeout(cluster, name) for name in cluster.node_order
    ]
    stages["mergeout"] = snapshot(cluster)
    returns["add_node"] = cluster.add_node("e4")
    stages["added"] = snapshot(cluster)
    return json.loads(json.dumps({"stages": stages, "returns": returns}))


@pytest.fixture(scope="module")
def fingerprint():
    return enterprise_fingerprint()


PINNED = json.loads(PINNED_PATH.read_text()) if PINNED_PATH.exists() else None


class TestEnterpriseFingerprint:
    @pytest.mark.parametrize(
        "stage", ["direct", "killed", "recovered", "moveout", "mergeout", "added"]
    )
    def test_stage_is_byte_identical(self, fingerprint, stage):
        assert fingerprint["stages"][stage] == PINNED["stages"][stage]

    def test_what_each_call_returned(self, fingerprint):
        assert fingerprint["returns"] == PINNED["returns"]


# ---------------------------------------------------------------------------
# what the separate writers had drifted into


def _eon(**kw) -> EonCluster:
    return EonCluster(["n1", "n2", "n3"], shard_count=3, seed=4, **kw)


def _enterprise(**kw) -> EnterpriseCluster:
    return EnterpriseCluster(["e1", "e2", "e3"], seed=4, **kw)


def _cached(cluster, table: str) -> dict:
    """Depot entries holding a container of ``table``'s, per node."""
    out = {}
    for name, node in cluster.nodes.items():
        state = node.catalog.state
        sids = [sid for sid, c in state.containers.items()
                if state.projections[c.projection].anchor_table == table]
        out[name] = [sid for sid in sids if node.cache.contains(sid)]
    return out


class TestMergeoutOutputIsShaped:
    """A merged container carries its table and partition key to the depot
    like a loaded one, so the shaping policy applies to it."""

    def _merged(self, cluster, partition_by=""):
        cluster.execute(f"create table t (k int, d int){partition_by}")
        for b in range(8):
            cluster.load("t", [(b * 60 + i, i % 2) for i in range(60)])
        report = MergeoutCoordinatorService(cluster, strata_width=3, base_bytes=256).run_all()
        assert report.jobs_run > 0
        return cluster

    def test_a_denied_table_stays_out_of_every_depot(self):
        cluster = _eon()
        for node in cluster.nodes.values():
            node.cache.policy.deny_tables.add("t")
        cluster = self._merged(cluster)
        assert all(cached == [] for cached in _cached(cluster, "t").values())

    def test_a_pinned_partition_pins_its_merged_containers(self):
        cluster = _eon()
        for node in cluster.nodes.values():
            node.cache.policy.pin = lambda info: info.partition_key == 1
        cluster = self._merged(cluster, " partition by d")
        pinned_containers = 0
        for name, sids in _cached(cluster, "t").items():
            node = cluster.nodes[name]
            ones = [sid for sid in sids if node.catalog.state.containers[sid].partition_key == 1]
            assert node.cache.pinned_bytes == sum(
                node.catalog.state.containers[sid].size_bytes for sid in ones
            )
            pinned_containers += len(ones)
        assert pinned_containers > 0


@pytest.mark.parametrize("flavor", [_eon, _enterprise])
def test_a_copy_with_the_wrong_columns_is_a_catalog_error(flavor):
    cluster = flavor()
    cluster.create_table("t", [("a", ColumnType.INT), ("b", ColumnType.VARCHAR)])
    wrong = RowSet.from_rows(TableSchema.of(("z", ColumnType.INT)), [(1,)])
    with pytest.raises(CatalogError):
        cluster.load("t", wrong)


class TestEnterprisePartitions:
    COLUMNS = [("d", ColumnType.INT), ("v", ColumnType.FLOAT)]
    ROWS = [(day % 4, float(day)) for day in range(400)]

    def _keys(self, cluster) -> set:
        states = ([n.catalog.state for n in cluster.nodes.values()]
                  if isinstance(cluster, EonCluster) else [cluster.catalog.state])
        return {c.partition_key for state in states for c in state.containers.values()}

    @pytest.mark.parametrize("direct", [True, False])
    def test_both_flavors_give_the_same_partition_keys(self, direct):
        eon = _eon()
        eon.create_table("ev", self.COLUMNS, partition_by="d")
        eon.load("ev", self.ROWS)
        enterprise = _enterprise()
        enterprise.create_table("ev", self.COLUMNS, partition_by="d")
        enterprise.load("ev", self.ROWS, direct=direct)
        for name in enterprise.node_order:
            enterprise.moveout(name)
        assert self._keys(enterprise) == self._keys(eon) == {0, 1, 2, 3}
        for c in enterprise.catalog.state.containers.values():
            assert c.bounds["d"] == (c.partition_key, c.partition_key)
        answer = "select d, count(*), sum(v) from ev group by d order by d"
        assert enterprise.query(answer).rows.to_pylist() == eon.query(answer).rows.to_pylist()


class TestEnterpriseTopology:
    def _loaded(self) -> EnterpriseCluster:
        cluster = _enterprise()
        cluster.create_table("t", [("k", ColumnType.INT), ("g", ColumnType.VARCHAR)])
        for b in range(8):
            cluster.load("t", [(b * 50 + i, f"g{i % 3}") for i in range(50)], direct=True)
        return cluster

    def test_add_node_with_a_node_down_changes_nothing(self):
        cluster = self._loaded()
        cluster.kill_node("e2")
        before = cluster.query("select count(*), sum(k) from t").rows.to_pylist()
        assert before == [(400, sum(range(400)))]
        containers = dict(cluster.catalog.state.containers)
        with pytest.raises(ClusterError):
            cluster.add_node("e4")
        assert "e4" not in cluster.nodes and cluster.shard_map.count == 3
        assert cluster.catalog.state.containers == containers
        assert cluster.query("select count(*), sum(k) from t").rows.to_pylist() == before

    def test_repair_after_per_node_mergeout_keeps_the_answer(self):
        """Base and buddy merge separately, so a region's containers no
        longer pair up one to one; repair rewrites the region from all of
        the surviving copy's containers, and both of the node's copies serve
        the same rows again."""
        cluster = self._loaded()
        for name in cluster.node_order:
            _mergeout(cluster, name)
        sql = "select g, count(*), sum(k) from t group by g order by g"
        expect = cluster.query(sql).rows.to_pylist()
        cluster.kill_node("e2")
        cluster.recover_node("e2")
        assert cluster.query(sql).rows.to_pylist() == expect  # e2's base copy
        cluster.kill_node("e1")
        assert cluster.query(sql).rows.to_pylist() == expect  # e2's buddy copy

    def test_add_node_copies_every_replicated_container(self):
        cluster = _enterprise()
        cluster.create_table("r", [("x", ColumnType.INT)], create_super=False)
        cluster.create_projection("r_p", "r", ["x"], ["x"], Segmentation.replicated())
        cluster.load("r", [(i,) for i in range(10)], direct=True)
        cluster.load("r", [(i,) for i in range(10, 30)], direct=True)
        cluster.add_node("e4")
        held = {name: 0 for name in cluster.node_order}
        for c in cluster.catalog.state.containers.values():
            held[cluster.container_owner[str(c.sid)]] += c.row_count
        assert held == {name: 30 for name in cluster.node_order}


class TestEnterprisePartitionedTopology:
    """A partitioned table gives every node one group per (projection,
    region, partition key): a replicated projection several per node.
    Repair, mergeout and redistribution keep every node's rows."""

    SQL = (
        "select d, count(*), sum(k) from t group by d order by d",
        "select d, count(*), sum(x) from r group by d order by d",
    )

    def _loaded(self) -> EnterpriseCluster:
        cluster = _enterprise()
        cluster.create_table("t", [("k", ColumnType.INT), ("d", ColumnType.INT)],
                             partition_by="d")
        cluster.create_table("r", [("x", ColumnType.INT), ("d", ColumnType.INT)],
                             partition_by="d", create_super=False)
        cluster.create_projection("r_p", "r", ["x", "d"], ["x"], Segmentation.replicated())
        for b in range(4):
            cluster.load("t", [(b * 50 + i, i % 3) for i in range(50)], direct=True)
            cluster.load("r", [(b * 10 + i, i % 2) for i in range(10)], direct=True)
        return cluster

    def _answers(self, cluster) -> list:
        return [cluster.query(sql).rows.to_pylist() for sql in self.SQL]

    def _rows_held(self, cluster) -> dict:
        """Rows per (owner, projection, partition key); every container
        holds one key."""
        held = {}
        for c in cluster.catalog.state.containers.values():
            assert c.bounds["d"] == (c.partition_key, c.partition_key)
            group = (cluster.container_owner[str(c.sid)], c.projection, c.partition_key)
            held[group] = held.get(group, 0) + c.row_count
        return held

    def test_recover_node_keeps_the_answer_and_every_nodes_rows(self):
        cluster = self._loaded()
        answers, held = self._answers(cluster), self._rows_held(cluster)
        assert {k for (owner, p, k) in held if owner == "e2" and p == "r_p"} == {0, 1}
        cluster.kill_node("e2")
        cluster.recover_node("e2")
        assert all(node.is_up for node in cluster.nodes.values())
        assert self._answers(cluster) == answers
        assert self._rows_held(cluster) == held

    def test_mergeout_then_recover_keeps_every_nodes_rows(self):
        cluster = self._loaded()
        answers, held = self._answers(cluster), self._rows_held(cluster)
        assert sum(_mergeout(cluster, n)
                   for n in cluster.node_order) > 0
        assert self._rows_held(cluster) == held
        cluster.kill_node("e3")
        cluster.recover_node("e3")
        assert self._answers(cluster) == answers
        assert self._rows_held(cluster) == held

    def test_add_node_keeps_the_answer_and_copies_every_key(self):
        cluster = self._loaded()
        answers = self._answers(cluster)
        cluster.add_node("e4")
        assert self._answers(cluster) == answers
        replicated = {(owner, k): rows for (owner, p, k), rows in self._rows_held(cluster).items()
                      if p == "r_p"}
        assert replicated == {(n, k): 20 for n in cluster.node_order for k in (0, 1)}


def test_enterprise_mergeout_records_the_mergeout_job_span():
    cluster = TestEnterpriseTopology()._loaded()
    cluster.enable_observability()
    jobs = _mergeout(cluster, "e1")
    spans = [s for s in cluster.obs.tracer.spans if s.name == "mergeout_job"]
    assert len(spans) == jobs > 0
    assert {s.attrs["node"] for s in spans} == {"e1"}


if __name__ == "__main__":
    PINNED_PATH.write_text(json.dumps(enterprise_fingerprint(), indent=1) + "\n")
