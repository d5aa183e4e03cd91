"""The scan-path wall: a footer is parsed once per depot residency, a value
is copied once, and nothing but the real clock can tell.

ROS files are immutable and named by SID, so a node's depot keeps what the
first reader of a file parsed (a ``ContainerLayout``) beside the entry and
forgets it on every road the entry leaves by.  The scan decodes blocks
straight into per-column lists — PLAIN numeric blocks as read-only views of
the depot's bytes — and concatenates once per column.  Walled here:

* the lifecycle of a layout (parses are counted as ``json.loads`` calls made
  from ``repro.storage.column``, where both footers are read);
* depot statistics, LRU order and every ``ScanResult`` counter, identical with
  and without kept layouts, evictions included;
* a damaged image under a SID whose layout was kept is still found out;
* what a scan returns is writable, owns its data and aliases no depot byte;
* rows, row order and dtypes equal to the scan as it was before — one
  ``read_rowset`` per container, filtered, then ``RowSet.concat`` — spelled
  out below as :func:`reference_scan`;
* DICT and RLE string blocks reach the scan's result as dictionary codes —
  no per-row Python object is built before an operator asks for the text —
  and a pass of the TPC-H queries makes text of a tenth of its string cells
  at most (counted at ``CodedStrings.text``).
"""

import dataclasses
import json
import random
import types

import numpy as np
import pytest

from repro import ColumnType, EonCluster
from repro.cache.disk_cache import FileCache, ShapingPolicy
from repro.cluster.session import EonStorageProvider
from repro.common.types import TableSchema
from repro.engine.expressions import extract_column_bounds
from repro.engine.pruning import prune_containers
from repro.errors import CorruptBlock
from repro.sql.parser import parse_expression
from repro.storage import column as column_module
from repro.storage.container import RowSet, read_container, write_container
from repro.storage.delete_vector import (
    combine_positions,
    mask_from_positions,
    read_delete_vector,
)
from repro.storage.encoding import (
    CodedStrings,
    Encoding,
    choose_encoding,
    decode_block,
    encode_block,
)

COLUMNS = [
    ("k", ColumnType.INT), ("g", ColumnType.INT), ("x", ColumnType.INT),
    ("s", ColumnType.VARCHAR), ("f", ColumnType.FLOAT), ("b", ColumnType.BOOL),
    ("d", ColumnType.DATE),
]
NAMES = [name for name, _ in COLUMNS]
PROJECTION = "t_super"
NODES = ["a", "b", "c", "d"]
SESSION_SEED = 11


def table_rows(lo: int, hi: int) -> list:
    """Sorted dense keys (DELTA), long runs (RLE), random ints and floats
    (PLAIN), a few strings with NULLs (DICT), bools, dates."""
    draw = random.Random(lo)
    return [
        (k, k // 700, draw.randrange(-10**9, 10**9),
         draw.choice([None, "ab", "b", "é", "long-" * 3]),
         None if k % 13 == 0 else draw.random(), k % 3 == 0, 9_000 + k % 40)
        for k in range(lo, hi)
    ]


def build(cache_bytes: int = 256 << 20) -> EonCluster:
    cluster = EonCluster(NODES, shard_count=2, seed=3, cache_bytes=cache_bytes)
    cluster.create_table("t", COLUMNS)
    # Two loads of two blocks per container, one of a single small block.
    cluster.load("t", table_rows(0, 12_000))
    cluster.load("t", table_rows(12_000, 24_000))
    cluster.load("t", table_rows(24_000, 24_060))
    return cluster


@pytest.fixture
def cluster() -> EonCluster:
    return build()


@pytest.fixture
def parses(monkeypatch) -> list:
    """One entry per footer parsed while the fixture is live."""
    calls = []

    def loads(text):
        calls.append(len(text))
        return json.loads(text)

    monkeypatch.setattr(
        column_module, "json", types.SimpleNamespace(loads=loads, dumps=json.dumps)
    )
    return calls


def scan(cluster, columns=NAMES, where=None, **session_options) -> dict:
    """``EonStorageProvider.scan`` on every participant: {node: ScanResult}."""
    predicate = parse_expression(where) if where else None
    with cluster.create_session(seed=SESSION_SEED, **session_options) as session:
        provider = EonStorageProvider(session)
        results = {
            node: provider.scan(node, PROJECTION, list(columns), predicate, False)
            for node in session.participants()
        }
        provider.settle_io()
    return results


def counters(result) -> dict:
    """Every field of a ScanResult but its rows."""
    fields = dataclasses.asdict(dataclasses.replace(result, rows=None))
    del fields["rows"]
    return fields


def content(results: dict) -> dict:
    """Comparable rows per node; floats by their bits (NULL is NaN)."""
    return {
        node: {
            name: (values.view(np.int64) if values.dtype.kind == "f" else values).tolist()
            for name, values in result.rows.columns.items()
        }
        for node, result in results.items()
    }


def locations(cluster) -> list:
    state = cluster.any_up_node().catalog.state
    return sorted(c.location for c in state.containers_of(PROJECTION))


def kept_layouts(cluster) -> int:
    return sum(
        node.cache.layout_of(name) is not None
        for node in cluster.nodes.values() for name in locations(cluster)
    )


# ---------------------------------------------------------------------------
# (i) the lifecycle of a layout


class TestLayoutLifecycle:
    def test_the_second_read_of_a_resident_container_parses_nothing(self, cluster, parses):
        first = scan(cluster)
        scanned = sum(r.containers_scanned for r in first.values())
        assert scanned == 6
        # One container footer and one footer per column file read.
        assert len(parses) == scanned * (1 + len(NAMES))
        del parses[:]
        second = scan(cluster)
        assert parses == []
        assert content(second) == content(first)

    def test_layouts_fill_lazily_per_column(self, cluster, parses):
        scan(cluster, columns=["k", "x"])
        assert len(parses) == 6 * 3
        del parses[:]
        scan(cluster, columns=["k", "x", "s"])  # only ``s`` is new to the layouts
        assert len(parses) == 6
        del parses[:]
        scan(cluster, columns=["s", "k"], where="k between 100 and 200")
        assert parses == []

    def _warm(self, cluster, parses):
        """Scan until nothing parses; (a node holding a layout, the file)."""
        scan(cluster), scan(cluster)
        del parses[:]
        for node in cluster.nodes.values():
            for name in locations(cluster):
                if node.cache.layout_of(name) is not None:
                    return node, name
        raise AssertionError("no layout was kept")

    def _assert_one_container_parses_again(self, cluster, parses):
        scan(cluster)
        assert len(parses) == 1 + len(NAMES)
        del parses[:]
        scan(cluster)
        assert parses == []

    def test_eviction_forgets_the_layout(self, cluster, parses):
        node, _ = self._warm(cluster, parses)
        cache = node.cache
        held = [name for name in locations(cluster) if cache.layout_of(name) is not None]
        # Room for the filler alone: everything else is evicted.
        roomy, cache.capacity_bytes = cache.capacity_bytes, 64
        assert cache.put("filler", b"\0" * 64)
        cache.capacity_bytes = roomy
        assert cache.stats.evictions >= len(held) and cache.file_count == 1
        assert not any(cache.layout_of(name) for name in held)
        scan(cluster)
        assert len(parses) == len(held) * (1 + len(NAMES))
        assert all(cache.layout_of(name) for name in held)

    def test_drop_forgets_the_layout(self, cluster, parses):
        node, name = self._warm(cluster, parses)
        node.cache.drop(name)
        assert node.cache.layout_of(name) is None
        self._assert_one_container_parses_again(cluster, parses)

    def test_a_put_over_the_same_name_forgets_the_layout(self, cluster, parses):
        node, name = self._warm(cluster, parses)
        node.cache.put(name, node.cache.peek(name), node.cache.info_of(name))
        assert node.cache.layout_of(name) is None
        self._assert_one_container_parses_again(cluster, parses)

    def test_clear_forgets_every_layout(self, cluster, parses):
        node, _ = self._warm(cluster, parses)
        held = sum(node.cache.layout_of(name) is not None for name in locations(cluster))
        node.cache.clear()
        assert not any(node.cache.layout_of(name) for name in locations(cluster))
        scan(cluster)
        assert len(parses) == held * (1 + len(NAMES))

    def test_self_heal_forgets_the_layout(self, cluster, parses):
        """The local disk lost the file under the depot: ``get`` reports a
        miss and forgets the entry, its layout with it."""
        node, name = self._warm(cluster, parses)
        node.local_fs.delete(node.cache._key(name))
        assert node.cache.layout_of(name) is not None  # nobody has looked yet
        scan(cluster)
        assert len(parses) == 1 + len(NAMES)
        assert node.cache.contains(name) and node.cache.layout_of(name) is not None
        del parses[:]
        node.local_fs.delete(node.cache._key(name))
        assert node.cache.peek(name) is None
        assert node.cache.layout_of(name) is None

    def test_a_session_that_bypasses_the_depot_attaches_nothing(self, cluster, parses):
        first = scan(cluster, use_cache=False)
        again = len(parses)
        assert again == 6 * (1 + len(NAMES))
        scan(cluster, use_cache=False)
        assert len(parses) == 2 * again
        assert kept_layouts(cluster) == 0
        # ... and uses none that a depot session attached.
        scan(cluster)
        del parses[:]
        assert content(scan(cluster, use_cache=False)) == content(first)
        assert len(parses) == again

    def test_a_file_the_policy_keeps_out_attaches_nothing(self, cluster, parses):
        for node in cluster.nodes.values():
            node.cache.clear()
            node.cache.policy = ShapingPolicy(deny_tables={"t"})
        scan(cluster)
        again = len(parses)
        assert again == 6 * (1 + len(NAMES))
        scan(cluster)
        assert len(parses) == 2 * again
        assert kept_layouts(cluster) == 0
        assert all(node.cache.file_count == 0 for node in cluster.nodes.values())

    def test_a_layout_is_kept_only_for_a_resident_file(self):
        from repro.shared_storage.posix import MemoryFilesystem

        cache = FileCache(MemoryFilesystem(), capacity_bytes=100)
        cache.keep_layout("absent", object())
        assert cache.layout_of("absent") is None
        cache.put("here", b"12345")
        before = dataclasses.replace(cache.stats)
        layout = object()
        cache.keep_layout("here", layout)
        assert cache.layout_of("here") is layout
        assert cache.stats == before  # out of band: no hit, no miss


class TestNothingButTheClockCanTell:
    """Depot statistics, LRU order and scan counters with kept layouts and
    without (``keep_layout`` disabled: every read parses), through a depot
    too small for the table, so that entries come and go."""

    QUERIES = [
        (NAMES, None),
        (["k", "s"], "k between 3000 and 9000"),
        (["x", "f"], "k >= 20000"),
        (NAMES, None),
        (["g"], "k = 12345"),
        (["k", "s"], "k between 3000 and 9000"),
        (NAMES, "g < 5"),
    ]

    def _run(self, keep: bool, monkeypatch, parses) -> list:
        with monkeypatch.context() as patch:
            if not keep:
                patch.setattr(FileCache, "keep_layout", lambda self, name, layout: None)
            cluster = build(cache_bytes=300_000)  # one big container, not two
            del parses[:]
            trail = []
            for columns, where in self.QUERIES:
                results = scan(cluster, columns, where)
                trail.append((
                    {node: counters(result) for node, result in results.items()},
                    content(results),
                    {name: dataclasses.asdict(node.cache.stats)
                     for name, node in cluster.nodes.items()},
                    {name: node.cache.warm_list(1 << 30)
                     for name, node in cluster.nodes.items()},
                    dataclasses.asdict(cluster.shared.metrics),
                ))
            assert any(node.cache.stats.evictions for node in cluster.nodes.values())
            trail.append(len(parses))
            return trail

    def test_identical_with_and_without_kept_layouts(self, monkeypatch, parses):
        *cold, cold_parses = self._run(False, monkeypatch, parses)
        *warm, warm_parses = self._run(True, monkeypatch, parses)
        assert warm == cold
        assert warm_parses < cold_parses

    def test_a_cold_and_a_warm_layout_scan_of_one_query(self, cluster, parses):
        def observe():
            before = {n: dataclasses.replace(node.cache.stats)
                      for n, node in cluster.nodes.items()}
            results = scan(cluster, ["k", "s", "f"], "k between 5000 and 18000")
            moved = {
                n: {key: value - getattr(before[n], key)
                    for key, value in dataclasses.asdict(node.cache.stats).items()}
                for n, node in cluster.nodes.items()
            }
            order = {n: node.cache.warm_list(1 << 30) for n, node in cluster.nodes.items()}
            return {n: counters(r) for n, r in results.items()}, moved, order, content(results)

        cold = observe()
        assert parses
        del parses[:]
        warm = observe()
        assert parses == []
        assert warm == cold


# ---------------------------------------------------------------------------
# (ii) a kept layout hides no damage


class TestDamageIsStillFound:
    def test_a_damaged_image_put_under_a_known_sid(self, cluster):
        scan(cluster), scan(cluster)
        damaged = 0
        for node in cluster.nodes.values():
            for name in locations(cluster):
                if node.cache.layout_of(name) is None:
                    continue
                data = node.cache.peek(name)
                # Still a container by its trailer; its footer is not JSON.
                node.cache.put(name, data[:-40] + b"\xff" * 28 + data[-12:],
                               node.cache.info_of(name))
                damaged += 1
        assert damaged
        with pytest.raises(CorruptBlock):
            scan(cluster)

    def test_a_damaged_block_under_a_kept_layout(self, cluster):
        """Blocks are checked on every decode, layout or no layout: bytes
        that change under a kept layout (no road does that) still raise."""
        scan(cluster), scan(cluster)
        for node in cluster.nodes.values():
            for name in locations(cluster):
                data = node.cache.peek(name)
                if data is not None:
                    # The first block's header: an encoding that does not exist.
                    node.local_fs.write(node.cache._key(name), b"\x09" + data[1:])
        with pytest.raises(CorruptBlock):
            scan(cluster)


# ---------------------------------------------------------------------------
# (iii) what a scan returns is the caller's


class TestScanResultsOwnTheirData:
    @pytest.mark.parametrize("where", [None, "k >= 24000", "k between 100 and 300"])
    def test_writable_owned_and_stable_under_scribbling(self, cluster, where):
        first = scan(cluster, NAMES, where)
        before = content(first)
        assert any(result.rows.num_rows for result in first.values())
        for result in first.values():
            for name, values in result.rows.columns.items():
                assert values.flags.writeable and values.flags.owndata, name
                values[:] = "scribble" if values.dtype == object else 1
        assert content(scan(cluster, NAMES, where)) == before

    def test_a_column_of_one_plain_block_is_a_copy(self, cluster):
        """``k >= 24000`` leaves the 60-row load: one container per shard,
        one block per column, and ``x`` is PLAIN."""
        results = scan(cluster, ["x"], "k >= 24000")
        assert sum(result.containers_scanned for result in results.values()) == 2
        for node, result in results.items():
            if not result.containers_scanned:
                continue  # the initiator serves no shard
            values = result.rows.column("x")
            assert 0 < len(values) < 60
            assert choose_encoding(values) is Encoding.PLAIN
            assert values.flags.writeable and values.flags.owndata
            for name in locations(cluster):
                image = cluster.nodes[node].cache.peek(name)
                if image is not None:
                    assert not np.shares_memory(values, np.frombuffer(image, dtype=np.uint8))

    def test_a_plain_view_is_read_only_and_only_plain_is_a_view(self):
        plain = encode_block(np.array([5, -3, 9], dtype=np.int64), Encoding.PLAIN)
        view = decode_block(plain, view=True)
        assert not view.flags.writeable and not view.flags.owndata
        assert np.shares_memory(view, np.frombuffer(plain, dtype=np.uint8))
        assert decode_block(plain).flags.writeable
        for encoding in (Encoding.RLE, Encoding.DICT, Encoding.DELTA):
            block = encode_block(np.array([1, 1, 2, 3], dtype=np.int64), encoding)
            assert decode_block(block, view=True).flags.writeable


# ---------------------------------------------------------------------------
# (iv) same rows, same order, same dtypes as the scan that built RowSets


def reference_scan(cluster, session, node_name, columns, predicate):
    """The scan as it was: per container one ``read_rowset`` (or the blocks
    that match), delete vectors and the hash-crunch share applied to that
    RowSet, then one ``RowSet.concat`` — None when nothing contributes."""
    state = session.snapshots[node_name].state
    bounds = extract_column_bounds(predicate)
    parts = []
    for shard, sub_index, share_count in session.shards_of(node_name):
        containers = sorted(state.containers_of(PROJECTION, shard), key=lambda c: str(c.sid))
        kept, _ = prune_containers(containers, predicate)
        if session.crunch == "container" and share_count > 1:
            kept = [c for i, c in enumerate(kept) if i % share_count == sub_index]
        hash_crunch = session.crunch == "hash" and share_count > 1
        read = list(columns) + (["k"] if hash_crunch and "k" not in columns else [])
        for container in kept:
            reader = read_container(cluster.shared_data.read(container.location))
            dvs = state.delete_vectors_for(str(container.sid))
            if bounds and not dvs:
                rows = reader.read_rowset_blocks(read, reader.matching_blocks(bounds))
            else:
                rows = reader.read_rowset(read)
            if dvs:
                positions = [read_delete_vector(cluster.shared_data.read(dv.location))
                             for dv in dvs]
                rows = rows.filter(
                    mask_from_positions(combine_positions(positions), container.row_count))
            if hash_crunch and rows.num_rows:
                hashes = cluster.shard_map.hash_rowset(rows, ["k"])
                rows = rows.filter(hashes % np.uint64(share_count) == np.uint64(sub_index))
            rows = rows.select(list(columns))
            if rows.num_rows:
                parts.append(rows)
    return RowSet.concat(parts) if parts else None


def assert_same_column(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype
    if got.dtype.kind == "f":
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
    else:
        assert got.tolist() == want.tolist()


def assert_scan_equals_reference(cluster, columns, where, **session_options) -> int:
    predicate = parse_expression(where) if where else None
    total = 0
    with cluster.create_session(seed=SESSION_SEED, **session_options) as session:
        provider = EonStorageProvider(session)
        for node in session.participants():
            got = provider.scan(node, PROJECTION, list(columns), predicate, False).rows
            want = reference_scan(cluster, session, node, columns, predicate)
            assert got.schema.names == list(columns)
            if want is None:
                assert got.num_rows == 0
                want = RowSet.empty(got.schema)
            for name in columns:
                assert_same_column(got.column(name), want.column(name))
            total += got.num_rows
        provider.settle_io()
    return total


CASES = [
    (NAMES, None),
    (["s", "k"], "k between 4000 and 4500"),          # prunes blocks and containers
    (["x", "f", "b"], "k >= 11000 and k < 13000"),
    (["g", "d"], "k = 24010"),                        # the single-block containers
    (["f"], "k > 99999"),                             # nothing at all
    (["s"], "g < 3 and s = 'ab'"),                    # bounds on two columns
]


class TestSameRowsAsTheRowSetScan:
    @pytest.mark.parametrize("columns,where", CASES)
    def test_plain_session(self, cluster, columns, where):
        assert_scan_equals_reference(cluster, columns, where)
        assert_scan_equals_reference(cluster, columns, where)  # on kept layouts

    def test_every_encoding_is_in_the_table(self, cluster):
        data = cluster.shared_data.read(locations(cluster)[0])
        reader = read_container(data)
        encodings = {
            name: Encoding(reader.column_reader(name)._data[0]) for name in NAMES
        }
        assert encodings["k"] is Encoding.DELTA and encodings["g"] is Encoding.RLE
        assert encodings["s"] is Encoding.DICT
        assert {encodings["x"], encodings["f"], encodings["b"]} == {Encoding.PLAIN}
        assert reader.block_count() == 2

    @pytest.mark.parametrize("columns,where", CASES)
    def test_containers_with_delete_vectors(self, cluster, columns, where):
        cluster.execute("delete from t where k between 4100 and 4199")
        cluster.execute("delete from t where x < 0 and k < 9000")
        cluster.execute("delete from t where k >= 24000 and k < 24030")
        state = cluster.any_up_node().catalog.state
        assert len(state.delete_vectors) >= 3
        assert_scan_equals_reference(cluster, columns, where)
        assert_scan_equals_reference(cluster, columns, where)

    def test_a_container_whose_every_row_is_deleted(self, cluster):
        cluster.execute("delete from t where k >= 24000")
        assert assert_scan_equals_reference(cluster, NAMES, "k >= 23990") > 0
        # Container min/max prune the rest: only the emptied ones are read.
        assert assert_scan_equals_reference(cluster, ["x"], "k >= 24000") == 0
        assert sum(r.containers_scanned for r in scan(cluster, ["x"], "k >= 24000").values()) == 2

    @pytest.mark.parametrize("crunch", ["hash", "container"])
    @pytest.mark.parametrize("columns,where", CASES[:4])
    def test_crunch_sessions(self, cluster, crunch, columns, where):
        cluster.execute("delete from t where k between 4100 and 4199")
        options = dict(crunch=crunch, nodes_per_shard=2)
        with cluster.create_session(seed=SESSION_SEED, **options) as session:
            assert max(share for _, _, share in
                       sum(map(session.shards_of, session.participants()), [])) == 2
        total = assert_scan_equals_reference(cluster, columns, where, **options)
        assert total == assert_scan_equals_reference(cluster, columns, where)

    def test_hash_crunch_without_the_segmentation_column(self, cluster):
        """The share is computed on ``k``; the scan returns only ``s``."""
        assert_scan_equals_reference(cluster, ["s"], None, crunch="hash", nodes_per_shard=2)


class TestTheOneRead:
    """``append_blocks`` under ``read_rowset`` and ``read_rowset_blocks``."""

    SCHEMA = TableSchema.of(*COLUMNS)

    def _image(self, rows) -> bytes:
        return write_container(RowSet.from_rows(self.SCHEMA, rows), block_rows=500)

    def test_read_rowset_is_the_blocks_in_order(self):
        rows = table_rows(0, 1_700)
        reader = read_container(self._image(rows))
        got = reader.read_rowset()
        want = RowSet.from_rows(self.SCHEMA, rows)
        for name in NAMES:
            assert_same_column(got.column(name), want.column(name))
            column = reader.column_reader(name)
            blocks = [column.read_block(i) for i in range(len(column.blocks))]
            assert_same_column(got.column(name), np.concatenate(blocks))
            assert got.column(name).flags.writeable and got.column(name).flags.owndata
        picked = reader.read_rowset_blocks(["x", "s"], [3, 1])
        assert picked.column("x").tolist() == [r[2] for r in rows[1500:1700] + rows[500:1000]]
        assert picked.column("s").tolist() == [r[3] for r in rows[1500:1700] + rows[500:1000]]

    def test_an_empty_container_appends_nothing(self):
        reader = read_container(self._image([]))
        out = {name: [] for name in NAMES}
        reader.append_blocks(out)
        assert out == {name: [] for name in NAMES}
        empty = reader.read_rowset()
        assert empty.num_rows == 0
        for name, ctype in COLUMNS:
            assert empty.column(name).dtype == ctype.dtype

    def test_a_reader_on_a_layout_parses_nothing_and_reads_the_same(self, parses):
        image = self._image(table_rows(0, 1_200))
        first = read_container(image)
        want = first.read_rowset(["k", "s"])
        assert len(parses) == 3
        del parses[:]
        again = read_container(image, first.layout)
        got = again.read_rowset(["k", "s"])
        assert parses == []
        assert got == want
        assert again.matching_blocks({"k": (600, 700)}) == [1]
        again.read_rowset(["f"])  # a column the layout has not seen yet
        assert len(parses) == 1
        assert set(first.layout.columns) == {"k", "s", "f"}


# ---------------------------------------------------------------------------
# (vi) strings stay dictionary codes until an operator asks for the text


@pytest.fixture
def texts(monkeypatch) -> list:
    """Row counts of every ``CodedStrings`` turned into Python objects."""
    made = []
    real = CodedStrings.text

    def counting(self):
        if self._text is None:
            made.append(len(self))
        return real(self)

    monkeypatch.setattr(CodedStrings, "text", counting)
    return made


class TestStringsStayCodes:
    @pytest.mark.parametrize("options", [
        {}, {"use_cache": False}, {"crunch": "hash", "nodes_per_shard": 2},
        {"crunch": "container", "nodes_per_shard": 2},
    ])
    def test_a_scan_builds_no_text_delete_vectors_and_crunch_included(
            self, cluster, texts, options):
        cluster.execute("delete from t where k between 4100 and 4199")
        results = scan(cluster, ["s", "g"], "g < 5", **options)
        assert texts == []
        held = [r.rows.held("s") for r in results.values() if r.rows.num_rows]
        assert held and all(isinstance(values, CodedStrings) for values in held)
        # The text is made when asked for, once, and is an ordinary array.
        rows = next(r.rows for r in results.values() if r.rows.num_rows)
        assert rows.column("s") is rows.column("s") and texts == [rows.num_rows]
        assert rows.column("s").dtype == object and rows.column("s").flags.owndata

    def test_one_plain_block_in_a_column_and_the_column_is_text(self, texts):
        """All-distinct strings are stored PLAIN; beside DICT blocks of the
        same column they make the scan's column text, as before."""
        schema = TableSchema.of(("k", ColumnType.INT), ("s", ColumnType.VARCHAR))
        rows = [(k, f"unique-{k}" if k < 500 else "ab"[k % 2]) for k in range(1_000)]
        reader = read_container(write_container(RowSet.from_rows(schema, rows), block_rows=500))
        column = reader.column_reader("s")
        assert isinstance(column.read_block(0, view=True), np.ndarray)
        assert isinstance(column.read_block(1, view=True), CodedStrings)
        assert isinstance(reader.read_rowset_blocks(["s"], [1]).held("s"), CodedStrings)
        got = reader.read_rowset(["s"])
        assert isinstance(got.held("s"), np.ndarray)
        assert got.column("s").tolist() == [s for _, s in rows]

    def test_the_twenty_queries_make_text_of_a_tenth_of_their_string_cells_at_most(
            self, tpch_eon, texts, monkeypatch):
        """ROADMAP item 3's property, counted: what a pass of the TPC-H
        queries scans as DICT or RLE strings reaches group-by, predicates,
        joins and sorts as codes; text is made of what PLAIN blocks hold and
        of the few rows that leave an operator as a result."""
        from repro.workloads.tpch import TPCH_QUERIES

        cells = {"string": 0, "plain": 0}

        def counting(data, view=False):
            values = decode_block(data, view)
            if values.dtype == object:
                cells["string"] += len(values)
                cells["plain"] += len(values) * isinstance(values, np.ndarray)
            return values

        monkeypatch.setattr(column_module, "decode_block", counting)
        for seed, query in enumerate(TPCH_QUERIES):
            tpch_eon.query(query.sql, seed=seed, pushdown="off").rows.to_pylist()
        assert cells["string"] > 50_000
        assert cells["plain"] + sum(texts) <= cells["string"] // 10
