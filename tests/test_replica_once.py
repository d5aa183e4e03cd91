"""A replicated dimension is decoded and hashed once per query.

Every node holds the same replica-shard container image — one bytes object,
written to each depot — so a query decodes each such image once for all its
participants (``EonStorageProvider._append_replica``) and factorizes a
replicated join build once for all whose scans read the same
(``Executor._join_build``).  Walled here, on four nodes and a replicated
``dim`` joined to a segmented ``fact``:

* ``decode_block`` runs once per replica image per query, and ``_KeyEncoder``
  once per replicated build;
* with the memos patched out, every node's ``ScanResult`` ledger, depot LRU
  order and statistics, ``QueryStats`` and the answer are the same;
* a node holding a damaged copy — another bytes object — still raises
  ``CorruptBlock``, after a clean node has decoded the image;
* each node's rows own their arrays: a kept block is copied into every node,
  never aliased between two.
"""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from repro import ColumnType, EonCluster
from repro.catalog.objects import Segmentation
from repro.cluster.session import EonStorageProvider
from repro.engine import operators
from repro.errors import CorruptBlock
from repro.sharding import assignment
from repro.storage import column as column_module
from repro.storage.encoding import CodedStrings
from tests.test_sql import parse_expression

NODES = ["a", "b", "c", "d"]
DIM = [("d_id", ColumnType.INT), ("d_name", ColumnType.VARCHAR), ("d_weight", ColumnType.FLOAT)]
FACT = [("f_dim", ColumnType.INT), ("f_value", ColumnType.FLOAT), ("f_ts", ColumnType.INT)]

QUERIES = [
    "select d_name, count(*) n, sum(f_value) s from fact join dim on f_dim = d_id "
    "group by d_name order by d_name",
    "select d_name, count(*) n from fact join dim on f_dim = d_id "
    "where d_id < 3000 group by d_name order by d_name",
    "select f_ts, d_weight, d_name from fact join dim on f_dim = d_id "
    "where f_ts < 40 order by f_ts",
    "select d_name, d_weight from dim where d_id = 5010",
    "select d_name, count(*) n, sum(f_value) s from fact join dim on f_dim = d_id "
    "group by d_name order by d_name",
]


def build() -> EonCluster:
    cluster = EonCluster(NODES, shard_count=4, seed=5)
    cluster.create_table("dim", DIM, create_super=False)
    cluster.create_table("fact", FACT, create_super=False)
    cluster.create_projection("dim_p", "dim", [n for n, _ in DIM], ["d_id"],
                              Segmentation.replicated())
    cluster.create_projection("fact_p", "fact", [n for n, _ in FACT], ["f_ts"],
                              Segmentation.by_hash("f_dim"))
    # Two dimension containers, the first of two blocks per column: sorted
    # ids (DELTA), a few names (DICT), random weights (PLAIN).
    draw = np.random.default_rng(5)
    for lo, hi in ((0, 5_000), (5_000, 5_060)):
        cluster.load("dim", [(k, f"name-{k % 6}", float(draw.random())) for k in range(lo, hi)])
    cluster.load("fact", [(int(draw.integers(0, 5_060)), float(draw.random()), ts)
                          for ts in range(8_000)])
    return cluster


def dim_locations(cluster) -> list:
    """The dimension's containers, the one of 5 000 rows first."""
    state = cluster.any_up_node().catalog.state
    containers = sorted(state.containers_of("dim_p"), key=lambda c: -c.row_count)
    return [c.location for c in containers]


@pytest.fixture
def decodes(monkeypatch) -> Counter:
    """Blocks decoded, by the id of the image they were decoded from."""
    counts = Counter()
    real = column_module.decode_block

    def counting(data, view=False):
        counts[id(memoryview(data).obj)] += 1
        return real(data, view)

    monkeypatch.setattr(column_module, "decode_block", counting)
    return counts


@pytest.fixture
def encoders(monkeypatch) -> list:
    built = []

    class Counting(operators._KeyEncoder):
        def __init__(self, column):
            built.append(len(column))
            super().__init__(column)

    monkeypatch.setattr(operators, "_KeyEncoder", Counting)
    return built


def without_memos(patch) -> None:
    """The scan and the join as they were: every node decodes its replica
    containers and factorizes its own build; every session solves its
    layout."""
    def append_replica(self, reader, data, block_indices, out):
        reader.append_blocks(out, block_indices)
        return None

    patch.setattr(EonStorageProvider, "_append_replica", append_replica)
    patch.setattr(assignment, "_LAYOUTS_KEPT", 0)


def counters(result) -> dict:
    fields = dataclasses.asdict(dataclasses.replace(result, rows=None))
    del fields["rows"]
    return fields


def trail(monkeypatch, memos: bool) -> list:
    """What each query showed: scans, depots, shared storage, stats, answer."""
    with monkeypatch.context() as patch:
        if not memos:
            without_memos(patch)
        assignment._layouts.clear()
        cluster = build()
        scans = []
        real_scan = EonStorageProvider.scan

        def recording(self, node, projection, columns, predicate, replicated):
            result = real_scan(self, node, projection, columns, predicate, replicated)
            scans.append((node, projection, counters(result)))
            return result

        patch.setattr(EonStorageProvider, "scan", recording)
        seen = []
        for seed, sql in enumerate(QUERIES):
            del scans[:]
            result = cluster.query(sql, seed=seed)
            seen.append((
                list(scans),
                {n: (dataclasses.asdict(node.cache.stats), node.cache.warm_list(1 << 30))
                 for n, node in cluster.nodes.items()},
                dataclasses.asdict(cluster.shared.metrics),
                dataclasses.asdict(result.stats),
                result.rows.to_pylist(),
                [result.rows.column(name).dtype for name in result.rows.schema.names],
            ))
        return seen


class TestOncePerQuery:
    def test_every_node_holds_one_image(self):
        cluster = build()
        for location in dim_locations(cluster):
            images = {id(node.cache.peek(location)) for node in cluster.nodes.values()}
            assert len(images) == 1

    def test_decoded_once_hashed_once(self, decodes, encoders, monkeypatch):
        cluster = build()
        sql = QUERIES[0]
        cluster.query(sql, seed=1)  # warm: every depot holds every file
        images = {id(cluster.nodes["a"].cache.peek(name)) for name in dim_locations(cluster)}
        decodes.clear(), encoders.clear()
        result = cluster.query(sql, seed=1)
        participants = len(result.stats.per_node)
        assert participants == len(NODES)
        once = {image: decodes[image] for image in images}
        # ``d_id`` and ``d_name``: three blocks each, once for the query.
        assert sum(once.values()) == 2 * 3
        assert encoders == [5_060]  # one build, factorized once
        decodes.clear(), encoders.clear()
        with monkeypatch.context() as patch:
            without_memos(patch)
            cluster.query(sql, seed=1)
        assert {image: decodes[image] for image in images} == {
            image: participants * count for image, count in once.items()}
        assert encoders == [5_060] * participants

    def test_nothing_but_the_work_changes(self, monkeypatch):
        assert trail(monkeypatch, memos=True) == trail(monkeypatch, memos=False)


def scan_dim(cluster, where=None, order=NODES) -> dict:
    """``EonStorageProvider.scan`` of the dimension on each node, in
    ``order``, on one provider (one query)."""
    predicate = parse_expression(where) if where else None
    with cluster.create_session(seed=3) as session:
        provider = EonStorageProvider(session)
        results = {node: provider.scan(node, "dim_p", ["d_id", "d_name", "d_weight"],
                                       predicate, True)
                   for node in order}
        provider.settle_io()
    return results


class TestEachNodeItsOwn:
    @pytest.mark.parametrize("where", [None, "d_id >= 5000", "d_id between 4100 and 4200"])
    def test_rows_own_their_arrays_and_alias_no_other_node(self, where, decodes):
        cluster = build()
        scan_dim(cluster, where)
        decodes.clear()
        results = scan_dim(cluster, where)
        assert decodes  # the kept layouts' scans still decode, once
        arrays = {}
        for node, result in results.items():
            assert result.rows.num_rows
            for name in ("d_id", "d_weight"):
                values = result.rows.column(name)
                assert values.flags.owndata and values.flags.writeable
                arrays[node, name] = values
            codes = result.rows.held("d_name")
            assert isinstance(codes, CodedStrings)
            arrays[node, "d_name"] = codes.codes
        for (node, name), values in arrays.items():
            for (other, other_name), more in arrays.items():
                if node < other and name == other_name:
                    assert not np.shares_memory(values, more)
                    assert values.tolist() == more.tolist()
        # Scribbling on one node's rows leaves the next node's alone.
        first, second = results["a"].rows, results["b"].rows
        want = second.column("d_weight").tolist()
        first.column("d_weight")[:] = -1.0
        assert second.column("d_weight").tolist() == want

    def test_a_damaged_copy_is_found_after_a_clean_node_decoded(self):
        cluster = build()
        scan_dim(cluster)
        location = dim_locations(cluster)[0]
        node = cluster.nodes["c"]
        data = node.cache.peek(location)
        # The first block's header names an encoding that does not exist;
        # the node's kept layout is still that of the clean image.
        node.local_fs.write(node.cache._key(location), b"\x09" + data[1:])
        assert node.cache.peek(location) is not data
        with pytest.raises(CorruptBlock):
            scan_dim(cluster, order=["a", "b", "c", "d"])
        # The clean nodes alone read as before.
        clean = scan_dim(cluster, order=["a", "b", "d"])
        assert len({tuple(r.rows.column("d_id").tolist()) for r in clean.values()}) == 1

    def test_a_node_with_another_copy_decodes_its_own(self, decodes):
        cluster = build()
        scan_dim(cluster)
        location = dim_locations(cluster)[0]
        node = cluster.nodes["b"]
        data = node.cache.peek(location)
        node.local_fs.write(node.cache._key(location), bytes(bytearray(data)))
        decodes.clear()
        results = scan_dim(cluster)
        copy = node.cache.peek(location)
        assert copy is not data and copy == data
        # Three columns of two blocks: once for the other three nodes, once
        # for ``b``'s own copy.
        assert decodes[id(data)] == decodes[id(copy)] == 3 * 2
        assert len({tuple(r.rows.column("d_weight").tolist()) for r in results.values()}) == 1
