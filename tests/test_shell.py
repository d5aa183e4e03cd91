"""The interactive shell: SQL round trips and meta-commands."""

import pytest

from repro import EonCluster
from repro.shell import Shell, format_table


@pytest.fixture
def shell_io():
    cluster = EonCluster(["n1", "n2", "n3"], shard_count=3, seed=25)
    output = []
    shell = Shell(cluster, output.append)
    return shell, output


def text(output):
    return "\n".join(output)


class TestFormatTable:
    def test_format_table(self):
        text = format_table("Title", ["a", "bb"], [[1, 2.5], ["x", 3.0]])
        lines = text.splitlines()
        assert lines[0] == "Title"
        assert "2.50" in text and "x" in text


class TestSql:
    def test_create_load_select(self, shell_io):
        shell, output = shell_io
        shell.run([
            "create table t (a int, b varchar);",
            "insert into t values (1, 'x'), (2, 'y');",
            "select b, count(*) n from t group by b order by b;",
        ])
        assert "COPY 2 rows" in text(output)
        assert "(2 rows)" in text(output)
        assert "x" in text(output) and "y" in text(output)

    def test_multiline_statement(self, shell_io):
        shell, output = shell_io
        shell.run([
            "create table t (a int);",
            "select a",
            "from t",
            "where a > 0;",
        ])
        assert "(0 rows)" in text(output)

    def test_sql_error_reported_not_raised(self, shell_io):
        shell, output = shell_io
        shell.run(["select zzz from nowhere;"])
        assert "ERROR" in text(output)

    def test_plan_toggle(self, shell_io):
        shell, output = shell_io
        shell.run([
            "create table t (a int);",
            "\\plan",
            "select count(*) from t;",
        ])
        assert "Aggregate" in text(output)


class TestMetaCommands:
    def test_dt_lists_tables(self, shell_io):
        shell, output = shell_io
        shell.run(["create table zebra (a int);", "\\dt"])
        assert "zebra" in text(output)

    def test_dp_lists_projections(self, shell_io):
        shell, output = shell_io
        shell.run(["create table t (a int);", "\\dp"])
        assert "t_super" in text(output)
        assert "hash(a)" in text(output)

    def test_nodes_listing(self, shell_io):
        shell, output = shell_io
        shell.run(["\\nodes"])
        assert "n1" in text(output) and "UP" in text(output)

    def test_kill_and_recover(self, shell_io):
        shell, output = shell_io
        shell.run([
            "create table t (a int);",
            "insert into t values (1);",
            "\\kill n2",
            "select count(*) from t;",
            "\\recover n2",
        ])
        assert "killed n2" in text(output)
        assert "recovered n2" in text(output)
        assert "(1 rows)" in text(output)

    def test_stats_after_query(self, shell_io):
        shell, output = shell_io
        shell.run([
            "create table t (a int);",
            "insert into t values (1);",
            "select count(*) from t;",
            "\\stats",
        ])
        assert "latency=" in text(output)

    def test_stats_before_query(self, shell_io):
        shell, output = shell_io
        shell.run(["\\stats"])
        assert "no query yet" in text(output)

    def test_quit_stops_processing(self, shell_io):
        shell, output = shell_io
        shell.run(["\\q", "\\dt"])  # \dt never runs
        assert "bye" in text(output)
        assert "tables" not in text(output)

    def test_unknown_command(self, shell_io):
        shell, output = shell_io
        shell.run(["\\frobnicate"])
        assert "unknown command" in text(output)

    def test_help(self, shell_io):
        shell, output = shell_io
        shell.run(["\\h"])
        assert "meta-commands" in text(output)


class TestObservabilityCommands:
    def test_stats_reports_depot_and_s3_totals(self, shell_io):
        shell, output = shell_io
        shell.run([
            "create table t (a int);",
            "insert into t values (1), (2);",
            "select count(*) from t;",
            "\\stats",
        ])
        assert "depot: hit_rate=" in text(output)
        assert "byte_hit_rate=" in text(output)
        assert "s3: requests=" in text(output)
        assert "dollars=$" in text(output)

    def test_stats_totals_shown_even_before_any_query(self, shell_io):
        shell, output = shell_io
        shell.run(["\\stats"])
        assert "no query yet" in text(output)
        assert "depot: hit_rate=" in text(output)

    def test_profile_prints_operator_table(self, shell_io):
        shell, output = shell_io
        shell.run([
            "create table t (a int);",
            "insert into t values (1), (2), (3);",
            "\\profile select count(*) from t;",
        ])
        assert "profile (request" in text(output)
        assert "Scan" in text(output)
        assert "Aggregate" in text(output)
        assert "depot_hits" in text(output)

    def test_profile_sets_last_stats(self, shell_io):
        shell, output = shell_io
        shell.run([
            "create table t (a int);",
            "insert into t values (1);",
            "\\profile select a from t;",
            "\\stats",
        ])
        assert "latency=" in text(output)

    def test_profile_without_sql_prints_usage(self, shell_io):
        shell, output = shell_io
        shell.run(["\\profile"])
        assert "usage: \\profile" in text(output)

    def test_profile_reports_errors(self, shell_io):
        shell, output = shell_io
        shell.run(["\\profile select zzz from nowhere;"])
        assert "ERROR" in text(output)

    def test_system_table_query_through_shell(self, shell_io):
        shell, output = shell_io
        shell.run([
            "select node_name, hits from v_monitor.depot_activity;",
        ])
        assert "(3 rows)" in text(output)
        assert "n1" in text(output)


class TestDoctorCommand:
    def test_doctor_before_observability_reports_error(self, shell_io):
        shell, output = shell_io
        shell.run(["\\doctor"])
        assert "ERROR" in text(output)

    def test_doctor_renders_verdict_after_profiled_query(self, shell_io):
        shell, output = shell_io
        shell.run([
            "create table t (a int);",
            "insert into t values (1), (2), (3);",
            "\\profile select count(*) from t;",
            "\\doctor",
        ])
        assert "dominant cause:" in text(output)
        assert "breakdown:" in text(output)

    def test_doctor_accepts_explicit_request_id(self, shell_io):
        shell, output = shell_io
        shell.run([
            "create table t (a int);",
            "insert into t values (1);",
            "\\profile select a from t;",
        ])
        request_id = shell.cluster.obs.requests[-1].request_id
        shell.run([f"\\doctor {request_id}"])
        assert f"request {request_id}" in text(output)
        assert "dominant cause:" in text(output)

    def test_doctor_unknown_id_reports_error(self, shell_io):
        shell, output = shell_io
        shell.run([
            "create table t (a int);",
            "insert into t values (1);",
            "\\profile select a from t;",
            "\\doctor 424242",
        ])
        assert "ERROR" in text(output)

    def test_doctor_non_integer_argument_prints_usage(self, shell_io):
        shell, output = shell_io
        shell.run(["\\doctor soon"])
        assert "usage: \\doctor" in text(output)

    def test_doctor_listed_in_help(self, shell_io):
        shell, output = shell_io
        shell.run(["\\help"])
        assert "\\doctor" in text(output)


class TestEnterpriseShell:
    """The shell is backend-agnostic: the same meta commands run over a
    cluster with no depots, no shared storage, and no ``execute()``."""

    @pytest.fixture
    def ent_shell_io(self):
        from repro import ColumnType, EnterpriseCluster

        cluster = EnterpriseCluster(["e1", "e2", "e3"], seed=19)
        cluster.create_table("t", [("a", ColumnType.INT)])
        cluster.load("t", [(i,) for i in range(30)])
        output = []
        return Shell(cluster, output.append), output

    def test_select_round_trip(self, ent_shell_io):
        shell, output = ent_shell_io
        shell.run(["select count(*) from t;"])
        assert "(1 rows)" in text(output)
        assert "30" in text(output)

    def test_stats_before_query_does_not_crash(self, ent_shell_io):
        shell, output = ent_shell_io
        shell.run(["\\stats"])
        assert "no query yet" in text(output)
        # No shared storage: the S3 ledger section is simply absent.
        assert "s3:" not in text(output)

    def test_stats_after_query_shows_latency(self, ent_shell_io):
        shell, output = ent_shell_io
        shell.run([
            "select count(*) from t;",
            "\\stats",
        ])
        assert "latency=" in text(output)


class TestObservabilityOnBothFlavors:
    """``\\profile``, ``\\doctor`` and ``v_monitor`` go through the one query
    path, so the baseline flavor has them too (``\\profile`` used to die there
    with an AttributeError)."""

    @pytest.fixture(params=["eon", "enterprise"])
    def loaded_shell_io(self, request):
        from repro import ColumnType, EnterpriseCluster

        if request.param == "eon":
            cluster = EonCluster(["n1", "n2", "n3"], shard_count=3, seed=25)
        else:
            cluster = EnterpriseCluster(["n1", "n2", "n3"], seed=19)
        cluster.create_table("t", [("a", ColumnType.INT)])
        cluster.load("t", [(i,) for i in range(30)])
        output = []
        return Shell(cluster, output.append), output

    def test_profile_prints_operator_table(self, loaded_shell_io):
        shell, output = loaded_shell_io
        shell.run(["\\profile select count(*) from t;"])
        assert "profile (request 1," in text(output)
        assert "Scan" in text(output) and "Aggregate" in text(output)
        assert "ERROR" not in text(output)

    def test_doctor_explains_the_profiled_query(self, loaded_shell_io):
        shell, output = loaded_shell_io
        shell.run(["\\doctor"])
        assert "ERROR" in output[-1]  # nothing recorded yet
        shell.run(["\\profile select count(*) from t;", "\\doctor"])
        assert "-- doctor: request 1 --" in text(output)
        assert "dominant cause: execution" in text(output)

    def test_resource_pools_through_sql(self, loaded_shell_io):
        shell, output = loaded_shell_io
        shell.run([
            "select count(*) from t;",
            "select pool_name, node_count, slots_in_use, admitted "
            "from v_monitor.resource_pools;",
        ])
        assert "ERROR" not in text(output)
        assert "general" in text(output)
        row = next(line for line in text(output).splitlines() if "general" in line)
        assert row.split() == ["general", "3", "0", "1"]


class TestStatsSelectTotals:
    def test_stats_reports_pushdown_scan_totals(self):
        cluster = EonCluster(["n1", "n2"], shard_count=2, seed=31)
        output = []
        shell = Shell(cluster, output.append)
        shell.run(["create table t (a int, b int);"])
        cluster.load("t", [(i, i * 3) for i in range(200)])
        for node in cluster.nodes.values():
            node.cache.clear()
        # On the cleared depot the default ``auto`` pushes the scan down.
        shell.run([
            "select sum(b) from t where a < 10;",
            "\\stats",
        ])
        assert cluster.shared.op_stats["SELECT"].requests > 0
        assert "selects=" in text(output)
        assert "bytes_scanned=" in text(output)
