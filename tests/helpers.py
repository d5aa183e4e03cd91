"""What the test walls share: a result's row digest and the storage demand a
query makes (the differential walls that compare charges), the TPC-H
cluster loaded in slices they run on, and SQLite mirrors of the TPC-H and
dashboard tables (the walls that compare answers, through
``SqliteOracle.check``)."""

from __future__ import annotations

import hashlib
import math
from types import SimpleNamespace
from typing import Dict, List, Tuple

from repro.sim.oracle import SqliteOracle
from repro.storage.container import RowSet
from repro.workloads.dashboard import dashboard_query, load_dashboard_data
from repro.workloads.tpch import TpchData, load_tpch, setup_tpch_schema


def row_digest(rows: List[tuple]) -> str:
    """Order-insensitive digest of a result's rows: floats rounded to 6
    places, NaN spelled ``"nan"``."""
    canon = [
        tuple(("nan" if math.isnan(v) else round(v, 6)) if isinstance(v, float) else v
              for v in row)
        for row in rows
    ]
    return hashlib.sha256(repr(sorted(canon, key=repr)).encode()).hexdigest()


def s3_snapshot(cluster) -> tuple:
    m = cluster.shared.metrics
    return (m.get_requests, m.bytes_read, m.put_requests)


def demand_sig(cluster, result, s3_before) -> tuple:
    """Everything the query demanded of the storage hierarchy: per-node
    scan/fetch accounting (``rows_scanned`` and ``blocks_pruned`` too) plus
    the *delta* of the global GET/PUT ledgers (the absolute counters are
    cluster-cumulative)."""
    per_node = tuple(
        (
            name,
            w.bytes_from_shared,
            w.bytes_from_cache,
            w.rows_scanned,
            w.containers_scanned,
            w.containers_pruned,
            w.blocks_pruned,
            w.prefetch_hits,
            w.peer_fetches,
            w.coalesced_gets,
        )
        for name, w in sorted(result.stats.per_node.items())
    )
    delta = tuple(
        now - before for now, before in zip(s3_snapshot(cluster), s3_before)
    )
    return per_node + (delta,)


def clear_depots(cluster):
    """Every depot emptied, writers' layouts with their files: the next
    read of a file fetches it and parses its footers."""
    for node in cluster.nodes.values():
        node.cache.clear()
    return cluster


def lineitem_slices(data: TpchData) -> List[list]:
    """Three extra lineitem COPYs, so each shard holds several containers —
    the shape that exercises dedup, coalescing and prefetch."""
    rows = data.tables["lineitem"].to_pylist()
    return [rows[slice_no::7][:40] for slice_no in range(3)]


def load_in_slices(cluster, data: TpchData):
    """The TPC-H tables, then :func:`lineitem_slices`, into ``cluster``."""
    setup_tpch_schema(cluster)
    load_tpch(cluster, data)
    for chunk in lineitem_slices(data):
        cluster.load("lineitem", chunk)
    return cluster


def sqlite_mirror(tables: Dict[str, RowSet]) -> SqliteOracle:
    """SQLite holding each ``RowSet`` of ``tables`` under its name."""
    oracle = None
    for name, rows in tables.items():
        columns = [(c.name, c.ctype) for c in rows.schema.columns]
        if oracle is None:
            oracle = SqliteOracle(name, columns, rows.to_pylist())
        else:
            oracle.add_table(name, columns, rows.to_pylist())
    return oracle


def dashboard_mirror(n_events: int) -> Tuple[Dict[str, RowSet], SqliteOracle]:
    """The tables ``load_dashboard_data`` writes, in its load order, and
    SQLite's mirror of them.  ``dashboard_query`` keeps the top 20 totals:
    the cut must fall between two different totals of SQLite's answer
    without the LIMIT, or a tie would let each engine keep other rows."""
    tables: Dict[str, RowSet] = {}
    load_dashboard_data(SimpleNamespace(load=tables.__setitem__), n_events=n_events)
    oracle = sqlite_mirror(tables)
    totals = [row[2] for row in oracle.query(dashboard_query().rsplit("limit", 1)[0])]
    assert len(totals) > 20 and totals[19] > totals[20], "the LIMIT cuts through a tie"
    return tables, oracle


def answered(result):
    """A cluster that answers every query with ``result``: holds a run
    already taken (cold, crunched, on a subcluster) to SQLite through
    ``SqliteOracle.check``."""
    return SimpleNamespace(query=lambda sql, seed: result)
