"""Per-layer metrics of a traced run: span self times at reference speed
plus deltas of the program's public stats structs over the measured phase."""

from __future__ import annotations

import statistics
from typing import Dict, Sequence

from repro.obs.metrics import cluster_metrics

from harness import Pass, SpeedMeter, class_medians_ms, geomean, real_ops_per_s
from layer_trace import LayerTracer


def counters(cluster) -> Dict[str, float]:
    """Flat snapshot of the counters the per-layer metrics are deltas of."""
    summary = cluster_metrics(cluster)
    metrics = cluster.shared.metrics
    flat: Dict[str, float] = {f"depot.{k}": v for k, v in summary["depot"].items()}
    flat.update({f"io.{k}": v for k, v in summary["io"].items()})
    flat.update(
        {
            "s3.requests": metrics.total_requests
            + summary["s3"]["totals"].get("select_requests", 0),
            "s3.get_requests": metrics.get_requests,
            "s3.put_requests": metrics.put_requests,
            "s3.bytes_read": metrics.bytes_read,
            "s3.bytes_written": metrics.bytes_written,
            "s3.sim_seconds": metrics.sim_seconds,
            "s3.dollars": metrics.dollars,
            "s3.retries": metrics.transient_failures,
            "obs.spans_dropped": cluster.obs.tracer.dropped,
        }
    )
    scheduler = cluster.service_scheduler
    flat["services.mergeout_jobs"] = scheduler.stats.mergeout_jobs if scheduler else 0
    return flat


def live_containers(cluster) -> int:
    return len(
        {sid for node in cluster.up_nodes() for sid in node.catalog.state.containers}
    )


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(
    passes: Sequence[Pass],
    tracer: LayerTracer,
    meter: SpeedMeter,
    before: Dict[str, float],
    after: Dict[str, float],
    gc_gen2_collections: int,
    cluster,
    extra: Dict[str, float],
) -> Dict[str, float]:
    traced = [p for p in passes if p.traced]
    # ``--quick`` has a single pass; its "plain" numbers are then the traced
    # pass's own and the overhead reads 0.
    plain = [p for p in passes if not p.traced] or traced
    ops = sum(p.requests for p in passes)
    traced_ops = sum(p.requests for p in traced)
    plain_ops = sum(p.requests for p in plain)
    delta = {k: after[k] - before[k] for k in after}

    def counted(name: str, group: Sequence[Pass] = passes) -> float:
        return sum(p.counters.get(name, 0) for p in group)

    def real_seconds(group: Sequence[Pass]) -> float:
        return sum(p.real_seconds for p in group)

    # Span self times, each span at its op's reference speed.
    # ``bench.*`` spans are the benchmark's own checks, not the program.
    names = [name for name in tracer.names if not name.startswith("bench.")]
    self_ms = {name: 0.0 for name in names}
    calls = {name: 0 for name in names}
    units = {name: 0 for name in names}
    for p in traced:
        speed = {op.op_id: op.speed for op in p.ops}
        by_name = tracer.self_times(p.first_span, p.last_span, speed)
        for name in names:
            entry = by_name[name]
            self_ms[name] += entry["self_ns"] / 1e6
            calls[name] += entry["calls"]
            units[name] += entry["units"]

    out: Dict[str, float] = {}
    for name in names:
        out[f"{name}_self_ms_per_op"] = _ratio(self_ms[name], traced_ops)

    def ns_per_unit(name: str) -> float:
        return _ratio(self_ms[name] * 1e6, units[name])

    out.update(
        {
            "engine.hash_join_ns_per_input_row": ns_per_unit("engine.hash_join"),
            "engine.hash_join_calls_per_op": _ratio(calls["engine.hash_join"], traced_ops),
            "engine.aggregate_ns_per_input_row": ns_per_unit("engine.aggregate"),
            "engine.rows_scanned_per_row_returned": _ratio(
                counted("rows_scanned"), counted("rows_returned")
            ),
            "engine.sim_cpu_ms_per_op": _ratio(counted("sim_cpu_s") * 1e3, ops),
            "storage.blocks_pruned_per_op": _ratio(counted("blocks_pruned"), ops),
            "storage.containers_pruned_share": _ratio(
                counted("containers_pruned"),
                counted("containers_pruned") + counted("containers_scanned"),
            ),
            "storage.decode_ns_per_value": ns_per_unit("storage.decode"),
            "storage.decode_blocks_per_op": _ratio(calls["storage.decode"], traced_ops),
            "storage.encode_ns_per_value": ns_per_unit("storage.encode"),
            "load.rows_per_real_s": _ratio(
                counted("rows_loaded", plain),
                sum(
                    op.real_ns for p in plain for op in p.ops if op.cls == "copy"
                ) / 1e9,
            ),
            "load.containers_written_per_copy": _ratio(
                counted("containers_written"), counted("copies")
            ),
            "cache.hit_rate": _ratio(
                delta["depot.hits"], delta["depot.hits"] + delta["depot.misses"]
            ),
            "cache.byte_hit_rate": _ratio(
                delta["depot.bytes_read"],
                delta["depot.bytes_read"] + delta["depot.bytes_missed"],
            ),
            "cache.evictions_per_op": _ratio(delta["depot.evictions"], ops),
            "cache.bytes_evicted_per_op": _ratio(delta["depot.bytes_evicted"], ops),
            "io.s3_gets_per_op": _ratio(delta["io.s3_gets"], ops),
            "io.coalesced_gets_per_op": _ratio(delta["io.coalesced_gets"], ops),
            "io.prefetched_files_per_op": _ratio(delta["io.prefetched_files"], ops),
            "io.pushdown_selects_per_op": _ratio(delta["io.pushdown_selects"], ops),
            "shared_storage.requests_per_op": _ratio(delta["s3.requests"], ops),
            "shared_storage.dollars_per_kop": _ratio(delta["s3.dollars"] * 1e3, ops),
            "shared_storage.sim_ms_per_op": _ratio(delta["s3.sim_seconds"] * 1e3, ops),
            "shared_storage.get_requests_per_op": _ratio(delta["s3.get_requests"], ops),
            "shared_storage.put_requests_per_op": _ratio(delta["s3.put_requests"], ops),
            "shared_storage.bytes_read_per_op": _ratio(delta["s3.bytes_read"], ops),
            "shared_storage.bytes_written_per_op": _ratio(delta["s3.bytes_written"], ops),
            "shared_storage.retries_per_kop": _ratio(delta["s3.retries"] * 1e3, ops),
            "wm.queue_wait_sim_ms_per_op": _ratio(counted("queue_wait_sim_s") * 1e3, ops),
            "wm.rejected_share": _ratio(
                counted("closed_loop_rejected"), counted("closed_loop_requests")
            ),
            "obs.events_per_op": _ratio(calls["obs.record"], traced_ops),
            "obs.spans_dropped": delta["obs.spans_dropped"],
            "tuple_mover.bytes_rewritten_per_user_byte": _ratio(
                units["tuple_mover.mergeout"],
                # Bytes rewritten are only seen in traced passes; compare
                # them with the user bytes those passes loaded.
                counted("user_bytes", traced),
            ),
            "tuple_mover.jobs_per_tick": _ratio(
                delta["services.mergeout_jobs"], counted("ticks")
            ),
            "cluster.service_ticks_per_kop": _ratio(counted("ticks") * 1e3, ops),
            "tuple_mover.live_containers_at_end": live_containers(cluster),
            "cluster.revive_real_s": extra.get("cluster.revive_real_s", 0.0),
            "cluster.revive_sim_s": extra.get("cluster.revive_sim_s", 0.0),
            "process.traced_ms_per_op": _ratio(real_seconds(traced) * 1e3, traced_ops),
            "process.cpu_ms_per_op": _ratio(
                sum(p.cpu_ns for p in plain) / 1e6, plain_ops
            ),
            "process.gc_gen2_collections": gc_gen2_collections,
            # Every third pass is traced, symmetrically about the middle of
            # the run, so growth of the data over the run cancels.
            "process.trace_overhead_pct": 100.0 * (
                real_ops_per_s(plain) / real_ops_per_s(traced) - 1.0
            ),
            "process.unattributed_share": 1.0 - _ratio(
                sum(self_ms.values()), real_seconds(traced) * 1e3
            ),
            # The plain readings, for whoever distrusts the compensation.
            "process.calibration_ms": statistics.median(meter.kernel_ns) / 1e6,
            "process.raw_ms_geomean": geomean(
                list(class_medians_ms(plain, raw=True).values())
            ),
            "process.raw_ops_per_s": _ratio(
                plain_ops, sum(op.raw_ns for p in plain for op in p.ops) / 1e9
            ),
            "process.failed_op_share": _ratio(sum(p.failed for p in passes), ops),
        }
    )
    return out
