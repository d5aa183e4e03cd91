"""A container's sort order is a row index: a scan hands on only the rows of
its kept blocks whose leading sort key lies in the predicate's bounds on it.

The contract is spelled out here with nothing of ``src/``'s selection rule
(:func:`reference_mask`): a full read of the container, the kept blocks found
from the values themselves, and the key's interval as a mask.  Held to it:

* ``ContainerReader.append_kept`` on random sorted containers — int and float
  keys, NaN and duplicates at the bounds, empty containers, blocks of a few
  rows, ``<``/``<=``/``=``/``between``, bounds outside the data and float
  literals on int keys — and the predicate's answer over what it hands on;
* both cluster flavors' scans, and their answers against a full-block scan
  plus the predicate;
* a bound on the second sort column trims nothing;
* every container a load and a mergeout leave is sorted on its projection's
  leading key — the premise of the rule.
"""

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import ColumnType, EnterpriseCluster, EonCluster, RowSet, Segmentation, TableSchema
from repro.cluster.enterprise import EnterpriseStorageProvider
from repro.cluster.session import EonStorageProvider
from repro.engine.expressions import extract_column_bounds
from repro.engine.pruning import prune_containers
from repro.load import copy as copy_module
from repro.storage import container as container_module
from repro.storage.container import interval_key, read_container, write_container
from repro.storage.delete_vector import combine_positions, mask_from_positions, read_delete_vector
from repro.tuple_mover import MergeoutCoordinatorService
from tests.test_sql import parse_expression


# ---------------------------------------------------------------------------
# the contract, from a full read


def _could_hold(values: np.ndarray, lo, hi) -> bool:
    """Whether a block of ``values`` could hold one in [lo, hi]: a block of
    NULLs (or of no rows) always could."""
    present = [v for v in values.tolist() if v is not None and v == v]
    if not present:
        return True
    return (lo is None or max(present) >= lo) and (hi is None or min(present) <= hi)


def block_spans(reader) -> list:
    """``(row_start, row_count)`` of each block of a container (its geometry
    is shared by every column)."""
    return [(b.row_start, b.row_count)
            for b in reader.column_reader(reader.column_order[0]).blocks]


def reference_mask(rows: RowSet, spans: list, bounds: dict, key: str) -> np.ndarray:
    """Which rows of a container (``rows``, a full read) a scan hands on: those
    of the blocks whose values could meet every bound of ``bounds`` on a
    column the container has, and of those — where ``bounds`` bound the
    leading sort column ``key`` — the rows whose key lies in its [lo, hi]."""
    mask = np.zeros(rows.num_rows, dtype=bool)
    for start, count in spans:
        part = slice(start, start + count)
        mask[part] = all(_could_hold(rows.column(c)[part], lo, hi)
                         for c, (lo, hi) in bounds.items() if c in rows.schema)
    if key in bounds:
        lo, hi = bounds[key]
        values = rows.column(key)
        with np.errstate(invalid="ignore"):
            if lo is not None:
                mask &= values >= lo
            if hi is not None:
                mask &= values <= hi
    return mask


def reference_rows(data: bytes, columns: list, predicate, key: str, live=None) -> RowSet:
    """The rows one container hands on, by :func:`reference_mask`; a
    container with delete vectors (``live``, its live-row mask) is read
    whole."""
    reader = read_container(data)
    full = reader.read_rowset()
    if live is not None:
        return full.filter(live).select(columns)
    mask = reference_mask(full, block_spans(reader), extract_column_bounds(predicate), key)
    return full.filter(mask).select(columns)


def reference_scan(cluster, session, node_name, columns, predicate, projection, key,
                   share_column=None):
    """An Eon scan as the contract has it: per container in storage-name
    order, what :func:`reference_rows` hands on (delete vectors applied;
    cut to the interval of ``key`` only when the scan's ``columns`` read
    it), the hash-crunch share of that, then one ``RowSet.concat`` — None
    when nothing contributes."""
    state = session.snapshots[node_name].state
    parts = []
    for shard, sub_index, share_count in session.shards_of(node_name):
        containers = sorted(state.containers_of(projection, shard), key=lambda c: str(c.sid))
        kept, _ = prune_containers(containers, predicate)
        if session.crunch == "container" and share_count > 1:
            kept = [c for i, c in enumerate(kept) if i % share_count == sub_index]
        hash_crunch = session.crunch == "hash" and share_count > 1
        read = list(columns) + ([share_column] if hash_crunch and share_column not in columns
                                else [])
        for container in kept:
            live = None
            dvs = state.delete_vectors_for(str(container.sid))
            if dvs:
                positions = [read_delete_vector(cluster.shared_data.read(dv.location))
                             for dv in dvs]
                live = mask_from_positions(combine_positions(positions), container.row_count)
            rows = reference_rows(cluster.shared_data.read(container.location), read,
                                  predicate, key if key in columns else None, live)
            if hash_crunch and rows.num_rows:
                hashes = cluster.shard_map.hash_rowset(rows, [share_column])
                rows = rows.filter(hashes % np.uint64(share_count) == np.uint64(sub_index))
            rows = rows.select(list(columns))
            if rows.num_rows:
                parts.append(rows)
    return RowSet.concat(parts) if parts else None


def bits(rows: RowSet) -> list:
    """Rows comparable with NaN in them: floats by their bits."""
    columns = [values.view(np.int64) if values.dtype.kind == "f" else values
               for values in map(rows.column, rows.schema.names)]
    return list(zip(*(c.tolist() for c in columns)))


# ---------------------------------------------------------------------------
# (i) the reader's rule on random containers

SCHEMA_INT = TableSchema.of(("k", ColumnType.INT), ("v", ColumnType.INT))
SCHEMA_FLOAT = TableSchema.of(("k", ColumnType.FLOAT), ("v", ColumnType.INT))
#: Literals reach past the keys' range, and halves fall between int keys.
LITERALS = st.integers(-14, 14).map(lambda n: n / 2 if n % 3 else n // 2)


@st.composite
def keys(draw, kind: ColumnType) -> list:
    """Few distinct values, so duplicates sit at the bounds; NaN among floats."""
    value = st.integers(-5, 5)
    if kind is ColumnType.FLOAT:
        value = st.one_of(st.just(float("nan")), st.integers(-5, 5).map(lambda n: n / 2))
    return draw(st.lists(value, max_size=40))


@st.composite
def wheres(draw) -> str:
    op = draw(st.sampled_from(["<", "<=", "=", ">", ">=", "between"]))
    lo, hi = sorted((draw(LITERALS), draw(LITERALS)))
    where = f"k between {lo} and {hi}" if op == "between" else f"k {op} {lo}"
    if draw(st.booleans()):
        where += f" and v < {draw(st.integers(0, 40))}"  # a second bounded column
    return where


@given(kind=st.sampled_from([ColumnType.INT, ColumnType.FLOAT]), data=st.data(),
       block_rows=st.integers(1, 6), where=wheres())
@settings(max_examples=300, deadline=None)
def test_the_reader_hands_on_the_reference_rows(kind, data, block_rows, where):
    schema = SCHEMA_INT if kind is ColumnType.INT else SCHEMA_FLOAT
    values = data.draw(keys(kind))
    rows = RowSet(schema, {"k": kind.coerce(values),
                           "v": np.arange(len(values), dtype=np.int64)}).sort_by(["k"])
    image = write_container(rows, block_rows=block_rows)[0]
    predicate = parse_expression(where)
    bounds = extract_column_bounds(predicate)
    key = interval_key(("k",), bounds, schema)
    assert key is not None and key[0] == "k"

    reader = read_container(image)
    out = {"k": [], "v": []}
    pruned = reader.append_kept(out, bounds, key)
    got = RowSet.from_blocks(schema, out)

    full = read_container(image).read_rowset()
    spans = block_spans(reader)
    want = full.filter(reference_mask(full, spans, bounds, "k"))
    assert bits(got) == bits(want)
    # Every row of a kept block is handed on or trimmed; a pruned block is neither.
    kept = full.filter(reference_mask(full, spans, bounds, ""))
    assert got.num_rows + reader.rows_trimmed == kept.num_rows
    assert pruned == sum(
        not all(_could_hold(full.column(c)[s:s + n], lo, hi) for c, (lo, hi) in bounds.items())
        for s, n in spans
    )
    # The predicate's answer over what the scan hands on is its answer
    # over the whole container.
    answer = got.filter(predicate.evaluate(got).astype(bool))
    assert bits(answer) == bits(full.filter(predicate.evaluate(full).astype(bool)))


@pytest.mark.parametrize("kind", [ColumnType.INT, ColumnType.FLOAT])
def test_an_empty_container_hands_on_nothing(kind):
    schema = SCHEMA_INT if kind is ColumnType.INT else SCHEMA_FLOAT
    reader = read_container(write_container(RowSet.empty(schema), block_rows=2)[0])
    bounds = {"k": (0, 3)}
    out = {"k": [], "v": []}
    assert reader.append_kept(out, bounds, interval_key(("k",), bounds, schema)) == 0
    assert out == {"k": [], "v": []} and reader.rows_trimmed == 0


def test_no_key_without_a_numeric_bound_on_a_numeric_leading_column():
    schema = TableSchema.of(("k", ColumnType.INT), ("s", ColumnType.VARCHAR),
                            ("b", ColumnType.BOOL))
    assert interval_key(("k", "s"), {"k": (1, 4)}, schema) == ("k", 1, 4)
    assert interval_key(("k", "s"), {"k": (None, 4.5)}, schema) == ("k", -np.inf, 4.5)
    assert interval_key(("k",), {"s": (1, 4)}, schema) is None      # not the leading column
    assert interval_key(("s", "k"), {"s": ("a", "b")}, schema) is None  # VARCHAR
    assert interval_key(("b",), {"b": (True, True)}, schema) is None    # BOOL
    assert interval_key(("k",), {"k": (True, 3)}, schema) is None       # not a number
    assert interval_key((), {"k": (1, 4)}, schema) is None


# ---------------------------------------------------------------------------
# (ii) both flavors, end to end

COLUMNS = [("k", ColumnType.FLOAT), ("v", ColumnType.INT), ("w", ColumnType.INT)]
SCHEMA = TableSchema.of(*COLUMNS)


def small_blocks(patch, block_rows: int) -> None:
    """Every container the write path makes, in blocks of ``block_rows``."""
    patch.setattr(copy_module, "write_container",
                  partial(container_module.write_container, block_rows=block_rows))


def loaded(flavor: str, batches: list):
    if flavor == "eon":
        cluster = EonCluster(["a", "b", "c"], shard_count=2, seed=5)
        cluster.create_table("t", COLUMNS)
        for batch in batches:
            cluster.load("t", batch)
    else:
        cluster = EnterpriseCluster(["e1", "e2", "e3"], seed=5)
        cluster.create_table("t", COLUMNS)
        for batch in batches:
            cluster.load("t", batch, direct=True)
    return cluster


def flavor_scans(cluster, columns, predicate) -> dict:
    """Every participant's scan of ``t_super``: {node: (rows, reference)};
    Enterprise's reference is for the union of its nodes' scans."""
    if isinstance(cluster, EonCluster):
        with cluster.create_session(seed=3) as session:
            provider = EonStorageProvider(session)
            return {
                node: (provider.scan(node, "t_super", columns, predicate, False),
                       reference_scan(cluster, session, node, columns, predicate,
                                      "t_super", "k"))
                for node in session.participants()
            }
    provider = EnterpriseStorageProvider(cluster.create_session(seed=3))
    state = cluster.catalog.state
    want = [reference_rows(cluster.nodes[cluster.container_owner[c.location]]
                           .local_fs.read(c.location), columns, predicate, "k")
            for c in state.containers_of("t_super")
            if c in prune_containers([c], predicate)[0]]
    return {
        "*": ([provider.scan(node, "t_super", columns, predicate, False)
               for node in provider.participants()], want)
    }


@pytest.mark.parametrize("flavor", ["eon", "enterprise"])
@given(drawn=st.lists(st.tuples(
           st.one_of(st.just(float("nan")), st.integers(-6, 6).map(lambda n: n / 2)),
           st.integers(0, 9)), max_size=60),
       block_rows=st.integers(1, 5), where=wheres())
@settings(max_examples=25, deadline=None)
def test_both_flavors_scan_the_reference_rows(flavor, drawn, block_rows, where):
    rows = [(k, v, w) for v, (k, w) in enumerate(drawn)]
    where = where.replace(" v <", " w <")
    predicate = parse_expression(where)
    with pytest.MonkeyPatch.context() as patch:
        small_blocks(patch, block_rows)
        cluster = loaded(flavor, [rows[0::2], rows[1::2]])
    for node, (got, want) in flavor_scans(cluster, ["k", "w"], predicate).items():
        if node == "*":  # Enterprise: the nodes' scans together, as multisets
            assert sorted(sum((bits(r.rows) for r in got), [])) == sorted(
                sum((bits(r) for r in want), []))
        else:
            assert bits(got.rows) == (bits(want) if want is not None else [])
    # The answer: a full-block scan of every row, then the predicate.
    everything = RowSet.from_rows(SCHEMA, rows)
    answer = everything.filter(predicate.evaluate(everything).astype(bool))
    result = cluster.query(f"select k, v, w from t where {where}")
    assert sorted(bits(result.rows)) == sorted(bits(answer))


# ---------------------------------------------------------------------------
# (iii) only the leading sort column is an index


@pytest.fixture
def two_keys() -> EonCluster:
    cluster = EonCluster(["a", "b", "c"], shard_count=2, seed=5)
    cluster.create_table("t", [("a", ColumnType.INT), ("b", ColumnType.INT),
                               ("v", ColumnType.INT)])
    cluster.create_projection("t_ab", "t", ["a", "b", "v"], ["a", "b"],
                              Segmentation.by_hash("v"))
    with pytest.MonkeyPatch.context() as patch:
        small_blocks(patch, 8)
        cluster.load("t", [(i // 10, i % 10, i) for i in range(400)])
    return cluster


def scans(cluster, projection, where) -> list:
    predicate = parse_expression(where)
    with cluster.create_session(seed=3) as session:
        provider = EonStorageProvider(session)
        return [
            (provider.scan(node, projection, ["a", "b", "v"], predicate, False),
             reference_scan(cluster, session, node, ["a", "b", "v"], predicate,
                            projection, "a"))
            for node in session.participants()
        ]


def test_a_bound_on_the_second_sort_column_trims_nothing(two_keys):
    results = scans(two_keys, "t_ab", "b between 3 and 5")
    assert sum(got.rows.num_rows for got, _ in results) == sum(
        want.num_rows for _, want in results if want is not None)
    for got, want in results:
        assert got.rows_trimmed == 0
        assert bits(got.rows) == (bits(want) if want is not None else [])
    # Every row of every container was handed on: blocks of 8 rows hold
    # every value of ``b`` each, so none is pruned either.
    assert sum(got.rows.num_rows for got, _ in results) == 400


def test_a_bound_on_the_leading_sort_column_does_trim(two_keys):
    results = scans(two_keys, "t_ab", "a between 3 and 5 and b = 4")
    assert sum(got.rows_trimmed for got, _ in results) > 0
    for got, want in results:
        assert bits(got.rows) == (bits(want) if want is not None else [])


# ---------------------------------------------------------------------------
# (iv) the premise: every container is sorted on its projection's leading key


def assert_sorted(values: np.ndarray) -> None:
    """Non-decreasing, NULLs (NaN or None) last."""
    if values.dtype.kind == "O":
        null = np.array([v is None for v in values.tolist()], dtype=bool)
    elif values.dtype.kind == "f":
        null = np.isnan(values)
    else:
        null = np.zeros(len(values), dtype=bool)
    assert not (null[:-1] & ~null[1:]).any(), "a NULL before a value"
    present = values[~null].tolist()
    assert present == sorted(present)


def all_sorted(state, read) -> int:
    """Every container of ``state`` checked on its projection's leading key;
    returns how many there were."""
    checked = 0
    for container in state.containers.values():
        owner = (state.projections.get(container.projection)
                 or state.live_aggs.get(container.projection))
        key = owner.sort_order[0]
        assert_sorted(read_container(read(container)).read_rowset([key]).column(key))
        checked += 1
    return checked


def unsorted_batches(count: int) -> list:
    draw = np.random.default_rng(7)
    return [
        [(None if j % 11 == 0 else float(draw.integers(-50, 50)),
          int(draw.integers(0, 30)), int(draw.integers(0, 1000)))
         for j in range(int(draw.integers(5, 60)))]
        for _ in range(count)
    ]


def test_every_eon_container_is_sorted_on_its_leading_key():
    cluster = EonCluster(["a", "b", "c"], shard_count=2, seed=5)
    cluster.create_table("t", COLUMNS)
    cluster.create_projection("t_w", "t", ["w", "k", "v"], ["w", "k"],
                              Segmentation.by_hash("v"))
    with pytest.MonkeyPatch.context() as patch:
        small_blocks(patch, 4)
        for batch in unsorted_batches(8):
            cluster.load("t", batch)
        cluster.execute("delete from t where v < 10")
        report = MergeoutCoordinatorService(cluster, strata_width=2,
                                            base_bytes=1 << 10).run_all()
    assert report.jobs_run > 0
    state = cluster.any_up_node().catalog.state
    assert all_sorted(state, lambda c: cluster.shared_data.read(c.location)) >= 4


def test_every_enterprise_container_is_sorted_on_its_leading_key():
    cluster = EnterpriseCluster(["e1", "e2", "e3"], seed=5)
    cluster.create_table("t", COLUMNS)
    for batch in unsorted_batches(8):
        cluster.load("t", batch, direct=True)
    assert sum(cluster.mergeout(name) for name in sorted(cluster.nodes)) > 0
    state = cluster.catalog.state
    read = lambda c: cluster.nodes[cluster.container_owner[c.location]].local_fs.read(c.location)
    assert all_sorted(state, read) >= 4
