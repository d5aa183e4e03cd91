"""An interactive vsql-style shell over an in-process Eon cluster.

    python -m repro.shell --nodes 3 --shards 3

SQL statements end with ``;``.  Backslash meta-commands mirror vsql's:

    \\dt           list tables
    \\dp           list projections and subscriptions
    \\nodes        node states, cache stats
    \\plan         toggle plan printing
    \\stats        stats of the last query + cluster depot/S3 totals
    \\profile SQL  run a query with profiling; print per-operator profile
    \\doctor [ID]  explain why a recorded query was slow (default: slowest)
    \\design [apply]  cost-based designer over the recorded workload;
                  with ``apply``, create/drop projections and log the run
    \\kill NODE    kill a node
    \\recover NODE recover a node
    \\q            quit

System tables are available through plain SQL, e.g.::

    select * from v_monitor.depot_activity;
    select request, s3_dollars from v_monitor.dc_requests_issued;

and "why was request N slow" is one of them (the components ``\\doctor``
blames from)::

    select request_id, duration_seconds, queue_wait_seconds,
           failover_backoff_seconds, retry_backoff_seconds, retries,
           storage_io_seconds
    from v_monitor.dc_requests_issued order by duration_seconds desc limit 5;
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Iterable, List, Optional, Sequence

from repro import EonCluster
from repro.errors import ReproError


def format_table(
    title: str,
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
) -> str:
    """Fixed-width table with a title rule (floats to two places)."""
    cells = [[str(h) for h in headers]] + [[_fmt(v) for v in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = [title, "=" * len(title)]
    lines.append("  ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells[1:]:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:,.2f}"
    return str(value)


class Shell:
    def __init__(self, cluster: EonCluster, write: Callable[[str], None]):
        self.cluster = cluster
        self.write = write
        self.show_plans = False
        self.last_stats = None
        self._buffer: List[str] = []

    # -- driving ------------------------------------------------------------------

    def feed(self, line: str) -> bool:
        """Process one input line; returns False when the shell should exit."""
        stripped = line.strip()
        if not self._buffer and stripped.startswith("\\"):
            return self._meta(stripped)
        if not stripped:
            return True
        self._buffer.append(line)
        if stripped.endswith(";"):
            sql = "\n".join(self._buffer)
            self._buffer = []
            self._run_sql(sql)
        return True

    def run(self, lines: Iterable[str]) -> None:
        for line in lines:
            if not self.feed(line):
                return

    # -- SQL ----------------------------------------------------------------------

    def _run_sql(self, sql: str) -> None:
        try:
            # Eon clusters take any statement through execute(); clusters
            # without it (Enterprise) still serve SELECTs via query().
            execute = getattr(self.cluster, "execute", None)
            if execute is not None:
                result = execute(sql)
            else:
                result = self.cluster.query(sql)
        except ReproError as exc:
            self.write(f"ERROR: {exc}")
            return
        from repro.engine.executor import QueryResult
        from repro.load.copy import CopyReport

        if isinstance(result, QueryResult):
            self.last_stats = result.stats
            rows = result.rows
            self.write(format_table(
                f"({rows.num_rows} rows)", rows.schema.names, rows.to_pylist()
            ))
            if self.show_plans:
                self.write(result.plan.describe())
            self.write(
                f"time: {result.stats.latency_seconds * 1000:.2f} ms (simulated)"
            )
        elif isinstance(result, CopyReport):
            self.write(
                f"COPY {result.rows_loaded} rows, "
                f"{result.containers_written} containers, "
                f"version {result.version}"
            )
        else:
            self.write(f"OK (version {self.cluster.version})")

    def _profile(self, sql: str) -> None:
        """Run one SELECT with profiling on; print its operator profile."""
        sql = sql.strip().rstrip(";").strip()
        if not sql:
            self.write("usage: \\profile select ...")
            return
        obs = self.cluster.enable_observability()
        try:
            result = self.cluster.query(sql)
        except ReproError as exc:
            self.write(f"ERROR: {exc}")
            return
        self.last_stats = result.stats
        if not obs.profiles:
            self.write("no profile recorded")
            return
        profile = obs.profiles[-1]
        rows = [
            [
                op.path_id, op.operator, op.node, op.rows,
                op.sim_seconds * 1000, op.depot_hits, op.depot_misses,
                op.s3_requests, f"{op.s3_dollars:.6f}", op.detail,
            ]
            for op in profile.operators
        ]
        self.write(format_table(
            f"profile (request {profile.request_id}, "
            f"{profile.latency_seconds * 1000:.2f} ms simulated)",
            ["path", "operator", "node", "rows", "ms", "depot_hits",
             "depot_misses", "s3_gets", "s3_dollars", "detail"],
            rows,
        ))

    def _doctor(self, args: List[str]) -> None:
        """Explain a recorded query's latency (default: the slowest one)."""
        from repro.obs.doctor import diagnose

        request_id: Optional[int] = None
        if args:
            try:
                request_id = int(args[0])
            except ValueError:
                self.write("usage: \\doctor [request_id]")
                return
        try:
            diagnosis = diagnose(self.cluster, request_id)
        except ReproError as exc:
            self.write(f"ERROR: {exc}")
            return
        self.write(diagnosis.render())

    # -- meta commands ----------------------------------------------------------------

    def _design(self, args: List[str]) -> None:
        """Run the cost-based designer over the recorded workload; with
        ``apply``, create the winning projections and drop superseded
        ``_dbd`` versions."""
        from repro.engine.designer import DatabaseDesigner

        self.cluster.enable_observability()
        designer = DatabaseDesigner.for_cluster(self.cluster)
        report = designer.ingest_recorded(self.cluster)
        for sql, reason in report.skipped:
            self.write(f"skipped: {sql!r} ({reason})")
        if not report.used:
            self.write(
                "no recorded SELECTs to design from; run queries first "
                "(e.g. via \\profile) so the designer has a workload"
            )
            return
        try:
            if args and args[0] == "apply":
                run = designer.apply(self.cluster)
                self.write(
                    f"designer run {run.run_id}: {run.search_mode} search "
                    f"over {run.candidates_scored} candidates, "
                    f"est {run.estimated_seconds:.4f}s vs baseline "
                    f"{run.baseline_seconds:.4f}s"
                )
                self.write(
                    f"created: {', '.join(run.created) or '(none)'}; "
                    f"dropped: {', '.join(run.dropped) or '(none)'}; "
                    f"kept: {', '.join(run.kept) or '(none)'}"
                )
                return
            proposals = designer.propose()
        except ReproError as exc:
            self.write(f"ERROR: {exc}")
            return
        if not proposals:
            self.write("no proposals (workload has no usable table scans)")
            return
        for proposal in proposals:
            self.write(proposal.to_sql())
            for reason in proposal.reasons:
                self.write(f"  -- {reason}")

    def _meta(self, command: str) -> bool:
        parts = command.split()
        name, args = parts[0], parts[1:]
        if name in ("\\q", "\\quit"):
            self.write("bye")
            return False
        if name == "\\dt":
            state = self.cluster.any_up_node().catalog.state
            rows = [
                [t.name, ", ".join(t.schema.names), t.partition_by or ""]
                for t in sorted(state.tables.values(), key=lambda t: t.name)
            ]
            self.write(format_table("tables", ["name", "columns", "partition by"], rows))
        elif name == "\\dp":
            state = self.cluster.any_up_node().catalog.state
            rows = []
            for p in sorted(state.projections.values(), key=lambda p: p.name):
                seg = (
                    "replicated"
                    if p.segmentation.is_replicated
                    else f"hash({', '.join(p.segmentation.columns)})"
                )
                rows.append([p.name, p.anchor_table, seg, ", ".join(p.sort_order)])
            self.write(format_table(
                "projections", ["name", "table", "segmentation", "sort"], rows
            ))
        elif name == "\\nodes":
            rows = []
            for node in self.cluster.nodes.values():
                shards = sorted(node.catalog.subscribed_shards or ())
                rows.append([
                    node.name, node.state.value, str(shards),
                    node.cache.file_count, f"{node.cache.stats.hit_rate:.0%}",
                ])
            self.write(format_table(
                "nodes", ["name", "state", "shards", "cached files", "hit rate"], rows
            ))
        elif name == "\\plan":
            self.show_plans = not self.show_plans
            self.write(f"plan printing {'on' if self.show_plans else 'off'}")
        elif name == "\\stats":
            if self.last_stats is None:
                self.write("no query yet")
            else:
                s = self.last_stats
                self.write(
                    f"latency={s.latency_seconds * 1000:.2f}ms "
                    f"rows={s.total_rows_scanned} "
                    f"cache={s.total_bytes_from_cache}B "
                    f"s3={s.total_bytes_from_shared}B "
                    f"net={s.network_bytes}B"
                )
            from repro.obs.metrics import cluster_metrics

            # Backend-agnostic: every section is optional, so the same
            # shell works over clusters without depots or shared storage
            # (Enterprise mode).
            summary = cluster_metrics(self.cluster)
            depot = summary.get("depot")
            if depot:
                self.write(
                    f"depot: hit_rate={depot['hit_rate']:.1%} "
                    f"byte_hit_rate={depot['byte_hit_rate']:.1%} "
                    f"evictions={depot['evictions']} "
                    f"rejected_by_policy={depot['rejected_by_policy']}"
                )
            totals = summary.get("s3", {}).get("totals")
            if totals:
                line = (
                    f"s3: requests={totals['requests']} "
                    f"dollars=${totals['dollars']:.6f} "
                    f"retries={totals['retries']}"
                )
                if "select_requests" in totals:
                    line += (
                        f" selects={totals['select_requests']} "
                        f"bytes_scanned={totals['bytes_scanned']}B"
                    )
                self.write(line)
            engine = summary.get("engine")
            if engine:
                self.write(
                    f"plans: prepared={engine['statements_prepared']} "
                    f"reused={engine['plans_reused']}"
                )
        elif name == "\\profile":
            self._profile(" ".join(args))
        elif name == "\\doctor":
            self._doctor(args)
        elif name == "\\design":
            self._design(args)
        elif name == "\\kill" and args:
            try:
                self.cluster.kill_node(args[0])
                self.write(f"killed {args[0]}")
            except (ReproError, KeyError) as exc:
                self.write(f"ERROR: {exc}")
        elif name == "\\recover" and args:
            try:
                self.cluster.recover_node(args[0])
                self.write(f"recovered {args[0]}")
            except (ReproError, KeyError) as exc:
                self.write(f"ERROR: {exc}")
        elif name in ("\\h", "\\help", "\\?"):
            self.write(__doc__ or "")
        else:
            self.write(f"unknown command {command!r} (try \\h)")
        return True


def main() -> int:
    parser = argparse.ArgumentParser(description="repro Eon-mode SQL shell")
    parser.add_argument("--nodes", type=int, default=3)
    parser.add_argument("--shards", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    options = parser.parse_args()
    cluster = EonCluster(
        [f"node{i}" for i in range(options.nodes)],
        shard_count=options.shards,
        seed=options.seed,
    )
    print(f"repro shell — Eon mode, {options.nodes} nodes, "
          f"{options.shards} shards.  \\h for help, \\q to quit.")
    shell = Shell(cluster, print)

    try:
        while True:
            prompt = "repro=> " if not shell._buffer else "repro-> "
            sys.stdout.write(prompt)
            sys.stdout.flush()
            line = sys.stdin.readline()
            if not line:
                break
            if not shell.feed(line):
                break
    except KeyboardInterrupt:
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
