"""A local read costs the blocks the scan decodes, not the container file.

Vertica is a column store: a scan reads the columns it names, and the
position index lets it skip the blocks whose min/max cannot match.  So an Eon
depot hit and an Enterprise local-disk read are charged one local-disk
request of the bytes handed to ``decode_block`` — the blocks of the columns
read that survive block pruning, and a delete vector's blocks — while a file
fetched for the batch is charged its fetch and nothing more.  That request is
a unit in the node's per-query lane pool, as a GET is.  Walled here, against
a meter of the test's own (``decode_block`` wrapped to note the length of
every buffer it is handed, grouped by the file a scan took out of its batch
last):

* a warm scan pools exactly one ``estimate_read_seconds`` of each
  container's decoded bytes, in container order, and charges nothing in its
  own ``io_seconds``; ``bytes_from_cache`` is their sum: a full scan, a
  column subset, a block-pruned scan, containers with delete vectors and a
  hash-crunch share;
* every node of a replicated scan pays for its own copy, though one node
  decodes for all of them;
* Enterprise charges the blocks of the columns it reads, not the file;
* on both flavors, a warm scan of k > 1 containers on one node settles at
  their lane makespan over ``LANES``, below their serial sum;
* over column subsets and predicate bounds: the charge is the meter's, and
  never more than charging every file whole.
"""

import functools

import pytest
from hypothesis import given, settings, strategies as st

from repro import ColumnType, EnterpriseCluster
from repro.common.clock import charge_parallel
from repro.cluster.enterprise import EnterpriseStorageProvider
from repro.cluster.session import EonStorageProvider
from repro.io.scheduler import LANES, IOScheduler
from repro.shared_storage.posix import MemoryFilesystem
from repro.storage import column as column_module
from repro.storage.container import read_container
from tests.test_replica_once import build as build_replicated
from tests.test_scan_path import NAMES, PROJECTION, SESSION_SEED, build
from tests.test_sql import parse_expression


class Meter:
    """``(file, [lengths handed to decode_block while it was the file last
    taken out of a batch])`` per file, in the order a scan took them."""

    def __init__(self, patch):
        self.files = []
        decode, consume = column_module.decode_block, IOScheduler.consume

        def metered_decode(data, view=False):
            if self.files:  # not a DELETE's read, say
                self.files[-1][1].append(memoryview(data).nbytes)
            return decode(data, view)

        def metered_consume(scheduler, batch, node, key, result):
            data = consume(scheduler, batch, node, key, result)
            self.files.append((key, [], len(data)))
            return data

        patch.setattr(column_module, "decode_block", metered_decode)
        patch.setattr(IOScheduler, "consume", metered_consume)

    def take(self) -> list:
        files, self.files = self.files, []
        return files


@pytest.fixture
def meter(monkeypatch) -> Meter:
    return Meter(monkeypatch)


def delete_vector_names(cluster) -> set:
    state = cluster.any_up_node().catalog.state
    return {dv.location for dv in state.delete_vectors.values()}


def per_container(files, delete_vectors) -> list:
    """Decoded bytes per container read: a delete vector's are its
    container's, read in the same request."""
    totals = []
    for key, lengths, _ in files:
        if key in delete_vectors:
            totals[-1] += sum(lengths)
        else:
            totals.append(sum(lengths))
    return totals


def scan_each(cluster, meter, columns, where=None, **session_options) -> dict:
    """``EonStorageProvider.scan`` on every participant of one query:
    ``{node: (ScanResult, what the meter saw, the units its scan pooled)}``
    — a node scans once, so its pool holds that scan's units alone."""
    predicate = parse_expression(where) if where else None
    seen = {}
    with cluster.create_session(seed=SESSION_SEED, **session_options) as session:
        provider = EonStorageProvider(session)
        for node in session.participants():
            meter.take()
            result = provider.scan(node, PROJECTION, list(columns), predicate, False)
            seen[node] = (result, meter.take())
        pooled = provider._pool.per_node
        seen = {node: (*scan, pooled.get(node, [])) for node, scan in seen.items()}
        provider.settle_io()
    return seen


def expected_units(local_fs, totals) -> list:
    """One local request per container that decoded something."""
    return [local_fs.estimate_read_seconds(nbytes) for nbytes in totals if nbytes]


def assert_pooled(result, units, expected) -> None:
    """The scan pooled ``expected`` as it is and charged none of it at once;
    its own figure, what scan-by-scan charging would count, is their sum."""
    assert units == expected
    assert result.io_seconds == 0
    assert result.io_pooled_seconds == sum(units)


def assert_charged_what_was_decoded(cluster, seen) -> int:
    """No scan of ``seen`` missed the depot, and each pooled one request per
    container of what the meter saw; returns the bytes decoded."""
    delete_vectors = delete_vector_names(cluster)
    decoded = 0
    for node, (result, files, units) in seen.items():
        assert result.depot_misses == 0
        totals = per_container(files, delete_vectors)
        assert result.bytes_from_cache == sum(totals)
        assert_pooled(result, units, expected_units(cluster.nodes[node].local_fs, totals))
        decoded += sum(totals)
    return decoded


def whole_files(seen) -> int:
    return sum(size for _, files, _ in seen.values() for _, _, size in files)


@pytest.fixture
def warm():
    """The scan-path table on four nodes, every depot holding every file
    it serves (a first scan fetched what the load did not leave there)."""
    cluster = build()
    with cluster.create_session(seed=SESSION_SEED) as session:
        provider = EonStorageProvider(session)
        for node in session.participants():
            provider.scan(node, PROJECTION, NAMES, None, False)
    return cluster


class TestAHitCostsItsDecodedBlocks:
    def test_a_full_scan(self, warm, meter):
        seen = scan_each(warm, meter, NAMES)
        decoded = assert_charged_what_was_decoded(warm, seen)
        # Every block of every column, and nothing else: the file's footers
        # are not read again.
        assert 0 < decoded < whole_files(seen)

    def test_a_column_subset(self, warm, meter):
        full = assert_charged_what_was_decoded(warm, scan_each(warm, meter, NAMES))
        subset = assert_charged_what_was_decoded(warm, scan_each(warm, meter, ["k", "s"]))
        assert 0 < subset < full / 2

    def test_a_block_pruned_scan(self, warm, meter):
        unpruned = assert_charged_what_was_decoded(warm, scan_each(warm, meter, ["k", "x"]))
        seen = scan_each(warm, meter, ["k", "x"], "k between 1000 and 3000")
        assert sum(result.blocks_pruned for result, _, _ in seen.values()) > 0
        assert 0 < assert_charged_what_was_decoded(warm, seen) < unpruned

    def test_containers_with_delete_vectors(self, warm, meter):
        warm.execute("delete from t where k between 4100 and 4199")
        warm.execute("delete from t where k >= 24000 and k < 24030")
        scan_each(warm, meter, NAMES, "k < 30000")  # warm the delete vectors
        seen = scan_each(warm, meter, ["k", "f"], "k < 30000")
        dvs = delete_vector_names(warm)
        assert any(key in dvs and lengths for _, files, _ in seen.values()
                   for key, lengths, _ in files)
        assert assert_charged_what_was_decoded(warm, seen) > 0

    def test_a_hash_crunch_share(self, warm, meter):
        options = dict(crunch="hash", nodes_per_shard=2)
        scan_each(warm, meter, NAMES, **options)  # each share's node warmed
        seen = scan_each(warm, meter, ["s"], **options)
        # Each share reads the segmentation column beside what it returns.
        alone = scan_each(warm, meter, ["s"])
        assert assert_charged_what_was_decoded(warm, seen) > (
            assert_charged_what_was_decoded(warm, alone))

    def test_a_file_fetched_for_the_batch_pays_its_fetch_only(self, meter):
        cluster = build()
        for node in cluster.nodes.values():
            node.cache.clear()
        seen = scan_each(cluster, meter, NAMES)
        assert whole_files(seen) > 0
        for result, _, units in seen.values():
            assert result.depot_hits == 0
            assert result.bytes_from_cache == 0 == result.io_seconds
            # What the node pooled is its fetch units, and no local read.
            assert len(units) == result.s3_requests + result.peer_fetches


class TestEveryReplicaReaderPays:
    def test_each_node_pays_for_its_own_copy(self, meter):
        cluster = build_replicated()
        columns = ["d_id", "d_name"]
        with cluster.create_session(seed=3) as session:
            provider = EonStorageProvider(session)
            results = {}
            for node in sorted(cluster.nodes):
                meter.take()
                results[node] = (provider.scan(node, "dim_p", columns, None, True), meter.take())
            pooled = dict(provider._pool.per_node)
        decoded = {node: sum(sum(lengths) for _, lengths, _ in files)
                   for node, (_, files) in results.items()}
        first, *rest = sorted(cluster.nodes)
        # One node decoded the blocks; every node read its copy of them.
        assert decoded[first] > 0 and all(decoded[node] == 0 for node in rest)
        state = cluster.any_up_node().catalog.state
        images = [cluster.nodes[first].cache.peek(c.location)
                  for c in sorted(state.containers_of("dim_p"), key=lambda c: c.location)]
        per_image = [block_bytes(image, columns) for image in images]
        assert sum(per_image) == decoded[first]
        for node, (result, _) in results.items():
            assert result.depot_hits == len(images)
            assert result.bytes_from_cache == decoded[first]
            assert_pooled(result, pooled[node],
                          expected_units(cluster.nodes[node].local_fs, per_image))


def block_bytes(image: bytes, columns) -> int:
    """The stored length of every block of ``columns`` in a container image,
    from its footers."""
    reader = read_container(image)
    return sum(block.length for name in columns for block in reader.column_reader(name).blocks)


def enterprise_two_loads() -> EnterpriseCluster:
    """Three Enterprise nodes, each holding two containers of its region."""
    cluster = EnterpriseCluster(["e1", "e2", "e3"], seed=3)
    cluster.create_table("t", [
        ("k", ColumnType.INT), ("s", ColumnType.VARCHAR), ("x", ColumnType.INT),
        ("f", ColumnType.FLOAT),
    ])
    for lo in (0, 9_000):
        cluster.load("t", [(i, f"s{i % 5}", i * 3, i / 7) for i in range(lo, lo + 9_000)],
                     direct=True)
    return cluster


def container_images(cluster, patch) -> list:
    """``(filesystem, image)`` of every container file read from a local
    disk from now on, in read order."""
    containers = {c.location for c in cluster.catalog.state.containers.values()}
    images = []
    real_read = MemoryFilesystem.read

    def read(fs, name):
        data = real_read(fs, name)
        if name in containers:
            images.append((fs, data))
        return data

    patch.setattr(MemoryFilesystem, "read", read)
    return images


class TestEnterpriseReadsItsColumns:
    def test_a_scan_charges_the_blocks_of_the_columns_it_reads(self, monkeypatch):
        cluster = enterprise_two_loads()
        images = container_images(cluster, monkeypatch)
        columns = ["k", "s"]
        provider = EnterpriseStorageProvider(cluster.create_session(seed=1))
        for node in provider.participants():
            del images[:]
            result = provider.scan(node, "t_super", columns, None, False)
            assert len(images) == result.containers_scanned > 0
            per_image = [block_bytes(data, columns) for _, data in images]
            assert result.bytes_from_cache == sum(per_image)
            assert_pooled(result, provider._pool.per_node[node],
                          expected_units(cluster.nodes[node].local_fs, per_image))
            # Half the columns' blocks: well under the files themselves.
            assert sum(per_image) < sum(len(data) for _, data in images) * 0.75


class TestAWarmScanOverlapsItsLocalReads:
    """A scan that reads k > 1 containers from one node's local disk settles
    them as k lane units, as it would k GETs: their makespan over ``LANES``,
    below their serial sum.  The units are the meter's, not the pool's."""

    @staticmethod
    def assert_overlapped(units: dict, settled: dict) -> None:
        assert max(map(len, units.values())) > 1
        for node, node_units in units.items():
            assert settled.get(node, 0.0) == charge_parallel(node_units, LANES)[0]
            if len(node_units) > 1:
                assert settled[node] < sum(node_units)

    def test_eon(self, warm, meter):
        delete_vectors = delete_vector_names(warm)
        units = {}
        with warm.create_session(seed=SESSION_SEED) as session:
            provider = EonStorageProvider(session)
            for node in session.participants():
                meter.take()
                result = provider.scan(node, PROJECTION, NAMES, None, False)
                assert result.depot_misses == 0 == result.io_seconds
                totals = per_container(meter.take(), delete_vectors)
                units[node] = expected_units(warm.nodes[node].local_fs, totals)
            self.assert_overlapped(units, provider.settle_io())

    def test_enterprise(self, monkeypatch):
        cluster = enterprise_two_loads()
        images = container_images(cluster, monkeypatch)
        columns = ["k", "f"]
        provider = EnterpriseStorageProvider(cluster.create_session(seed=1))
        units = {}
        for node in provider.participants():
            del images[:]
            result = provider.scan(node, "t_super", columns, None, False)
            assert result.containers_scanned > 1 and result.io_seconds == 0
            local_fs = cluster.nodes[node].local_fs
            units[node] = expected_units(
                local_fs, [block_bytes(data, columns) for _, data in images])
        self.assert_overlapped(units, provider.settle_io())


@functools.lru_cache(maxsize=1)
def warm_once():
    """One warm cluster for the property (examples only read it)."""
    cluster = build()
    cluster.execute("delete from t where k between 4100 and 4199")
    for options in ({}, {"crunch": "hash", "nodes_per_shard": 2}):
        with cluster.create_session(seed=SESSION_SEED, **options) as session:
            provider = EonStorageProvider(session)
            for node in session.participants():
                provider.scan(node, PROJECTION, NAMES, None, False)
    return cluster


class TestTheChargeIsTheMeters:
    @given(
        columns=st.lists(st.sampled_from(NAMES), min_size=1, max_size=len(NAMES), unique=True),
        low=st.one_of(st.none(), st.integers(-100, 25_000)),
        span=st.integers(0, 26_000),
        on_x=st.booleans(),
        crunch=st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_over_column_subsets_and_bounds(self, columns, low, span, on_x, crunch):
        cluster = warm_once()
        where = None
        if low is not None:
            where = f"k between {low} and {low + span}"
            if on_x:
                where += " and x < 0"
        options = {"crunch": "hash", "nodes_per_shard": 2} if crunch else {}
        with pytest.MonkeyPatch.context() as patch:
            seen = scan_each(cluster, Meter(patch), columns, where, **options)
        assert_charged_what_was_decoded(cluster, seen)
        for node, (_, files, units) in seen.items():
            whole = expected_units(cluster.nodes[node].local_fs, [size for _, _, size in files])
            assert sum(units) <= sum(whole)

