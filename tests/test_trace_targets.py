"""Every callable the end-to-end benchmark traces still exists, and what its
counter reads off each call is still there.

``benchmarks/e2e/layer_trace.py`` wraps the layers' callables from outside,
by ``module:qualname``, and counts units of work with ``count(args,
result)``.  Tier-1 collects only ``tests/``, so a rename of a traced function
— or a result its counter can no longer measure, which the tracer books as 0
units without a word — would otherwise be found by the benchmark driver, not
by the test run.  The file is loaded by path: nothing here imports the
benchmark as a package, and nothing under ``benchmarks/e2e`` is edited for
this test.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from repro import ColumnType, EonCluster
from repro.common.types import TableSchema
from repro.engine.expressions import col
from repro.engine.operators import AggregateSpec, JoinBuild, aggregate, hash_join, sort_limit
from repro.storage.container import RowSet
from repro.storage.encoding import CodedStrings, Encoding, decode_block, encode_block
from repro.tuple_mover.mergeout import MergeoutCoordinatorService

LAYER_TRACE = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "layer_trace.py"


def _load_layer_trace():
    spec = importlib.util.spec_from_file_location("e2e_layer_trace", LAYER_TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _load_layer_trace().TARGETS


def test_there_are_targets_and_the_scan_path_is_among_them():
    paths = {path for _, path, _ in TARGETS}
    assert len(paths) == len(TARGETS) > 40
    assert {
        "repro.storage.encoding:decode_block",
        "repro.storage.container:read_container",
        "repro.storage.container:ContainerReader.read_rowset",
        "repro.storage.container:ContainerReader.read_rowset_blocks",
        "repro.storage.container:ContainerReader.matching_blocks",
        "repro.cache.disk_cache:FileCache.get",
        "repro.cache.disk_cache:FileCache.put",
        "repro.cluster.session:EonStorageProvider.scan",
    } <= paths


def _resolve(path: str):
    module_name, qualname = path.split(":")
    module = importlib.import_module(module_name)
    owner_name, _, attr = qualname.rpartition(".")
    if owner_name:
        # A method is rebound on the class that defines it, not inherited.
        return getattr(module, owner_name).__dict__[attr]
    return getattr(module, attr)


def test_every_target_resolves_to_a_callable_under_src_repro():
    src = Path(__file__).resolve().parents[1] / "src" / "repro"
    broken = []
    for span, path, _count in TARGETS:
        try:
            target = _resolve(path)
            defined_in = Path(importlib.import_module(target.__module__).__file__)
            ok = callable(target) and defined_in.is_relative_to(src)
        except (ImportError, AttributeError, KeyError) as exc:
            ok, target = False, repr(exc)
        # A span is named for its layer: the ``src/repro/<module>`` directory.
        if not ok or span.split(".")[0] != path.split(".")[1]:
            broken.append((span, path, target))
    assert broken == []


def test_the_tracer_binds_every_target():
    """What the benchmark itself does first: one binding site or more per
    target (a function imported by name has one per importing module)."""
    tracer = _load_layer_trace().LayerTracer()
    bound = {original for _, _, original, _ in tracer._sites}
    assert len(bound) == len(TARGETS)


# ---------------------------------------------------------------------------
# the counters: what ``count(args, result)`` reads off each target still is
# there.  The tracer books 0 units, silently, for a call whose shape its
# counter does not know — ``storage.decode_ns_per_value`` would then divide
# by fewer values and nothing would fail but the benchmark's meaning.

COUNTS = {span: count for span, _path, count in TARGETS if count is not None}


def test_every_counted_target_has_a_case_below():
    assert set(COUNTS) == {
        "storage.decode", "storage.encode", "engine.hash_join", "engine.aggregate",
        "engine.sort_limit", "tuple_mover.mergeout",
    }


def _strings(values) -> np.ndarray:
    out = np.empty(len(values), dtype=object)
    out[:] = values
    return out


def test_decode_and_encode_count_the_rows_of_a_block_coded_or_not():
    flags = _strings(["A", "N", "R", None] * 50)
    cases = [
        (flags, Encoding.DICT), (np.sort(flags[flags != None]), Encoding.RLE),  # noqa: E711
        (flags, Encoding.PLAIN), (np.arange(300), Encoding.DELTA),
        (np.arange(300) * 0.5, Encoding.PLAIN), (_strings([]), Encoding.DICT),
    ]
    for values, encoding in cases:
        block = encode_block(values, encoding)
        assert COUNTS["storage.encode"]((values, encoding), block) == len(values)
        for view in (False, True):
            result = decode_block(block, view)
            coded = view and values.dtype == object and encoding is not Encoding.PLAIN
            assert isinstance(result, CodedStrings if coded else np.ndarray)
            assert COUNTS["storage.decode"]((block, view), result) == len(values)


def _batch() -> RowSet:
    schema = TableSchema.of(("k", ColumnType.INT), ("s", ColumnType.VARCHAR))
    coded = decode_block(encode_block(_strings(["b", "a", None, "a"]), Encoding.DICT), view=True)
    return RowSet(schema, {"k": np.array([1, 2, 3, 2]), "s": coded})


def test_the_operators_are_counted_by_the_rows_of_their_rowsets():
    left = _batch()
    right = _batch().rename({"k": "rk", "s": "rs"})
    for build in (right, JoinBuild(right, ["rk"])):
        out = hash_join(left, build, ["k"], ["rk"])
        assert COUNTS["engine.hash_join"]((left, build, ["k"], ["rk"]), out) == 8
    specs = [AggregateSpec("count", None, "n"), AggregateSpec("max", col("s"), "top")]
    out = aggregate(left, ["s"], specs)
    assert COUNTS["engine.aggregate"]((left, ["s"], specs), out) == 4
    assert isinstance(out, RowSet) and out.num_rows == 3
    out = sort_limit(left, [("s", True)], 2)
    assert COUNTS["engine.sort_limit"]((left, [("s", True)], 2), out) == 4
    assert isinstance(out, RowSet) and out.num_rows == 2


def test_a_traced_query_books_every_value_it_decodes():
    """End to end, through the tracer's own wrappers: a full scan of two
    string columns (stored DICT and RLE) and an int decodes rows x columns
    values, and each operator span carries its input rows."""
    cluster = EonCluster(["a", "b"], shard_count=2, seed=7)
    cluster.create_table("t", [("k", ColumnType.INT), ("flag", ColumnType.VARCHAR),
                               ("run", ColumnType.VARCHAR)])
    rows = [(k, "ANR"[k % 3], f"r{k // 100}") for k in range(600)]
    for start in range(0, 600, 150):
        cluster.load("t", rows[start:start + 150])
    tracer = _load_layer_trace().LayerTracer()
    with tracer.installed():
        result = cluster.query(
            "select flag, run, count(*), max(k) from t group by flag, run order by run, flag")
        queried = len(tracer.spans)
        report = MergeoutCoordinatorService(cluster, strata_width=2, base_bytes=256).run_all()
    assert result.rows.num_rows == 18
    booked = tracer.self_times(0, queried, {-1: 1.0})
    assert booked["storage.decode"]["units"] == 600 * 3
    assert booked["engine.aggregate"]["units"] >= 600
    assert booked["engine.sort_limit"]["units"] == 18
    merged = tracer.self_times(queried, len(tracer.spans), {-1: 1.0})
    assert report.bytes_written > 0
    assert merged["tuple_mover.mergeout"]["units"] == report.bytes_written
    assert merged["storage.decode"]["units"] > 0 == merged["storage.decode"]["units"] % 3
