"""The interactive SQL shell."""

import pytest

from repro import SharkContext
from repro.shell import Shell, format_table, run


@pytest.fixture
def session():
    shark = SharkContext(num_workers=2)
    output: list[str] = []
    shell = Shell(shark=shark, write=output.append)
    return shell, output


def drive(shell, *lines):
    for line in lines:
        shell.feed(line)


class TestFormatTable:
    def test_alignment_and_nulls(self):
        text = format_table(
            ["name", "n"], [("alice", 1), (None, 12345)]
        )
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert any("NULL" in line for line in lines[2:])
        assert all(len(line) == len(lines[0]) for line in lines[:2])

    def test_float_formatting(self):
        text = format_table(["x"], [(1.5,), (2.0,)])
        assert "1.5" in text
        assert "2" in text


class TestStatements:
    def test_create_load_query(self, session):
        shell, output = session
        drive(
            shell,
            "CREATE TABLE t (a INT, b STRING) "
            "TBLPROPERTIES ('shark.cache'='true');",
            "INSERT INTO t VALUES (1, 'x'), (2, 'y');",
            "SELECT b, a FROM t ORDER BY a;",
        )
        text = "\n".join(output)
        assert "inserted 2 rows" in text
        assert "2 row(s)" in text
        assert "x" in text and "y" in text

    def test_multiline_statement(self, session):
        shell, output = session
        drive(shell, "SELECT 1 + 1", "AS answer;")
        assert any("answer" in line for line in output)
        assert any("2" in line for line in output)

    def test_prompt_reflects_buffer(self, session):
        shell, __ = session
        assert shell.prompt.strip() == "shark>"
        shell.feed("SELECT 1")
        assert shell.prompt.strip() == "->"

    def test_error_reported_not_raised(self, session):
        shell, output = session
        drive(shell, "SELECT nope FROM missing;")
        assert any("error:" in line for line in output)
        assert shell.running

    def test_truncation_notice(self, session):
        shell, output = session
        drive(
            shell,
            "CREATE TABLE big (n INT) TBLPROPERTIES ('shark.cache'='true');",
        )
        shell.shark.load_rows("big", [(i,) for i in range(100)])
        drive(shell, "SELECT n FROM big;")
        assert any("showing first" in line for line in output)


class TestDotCommands:
    def test_tables_and_describe(self, session):
        shell, output = session
        drive(
            shell,
            "CREATE TABLE t (a INT) TBLPROPERTIES ('shark.cache'='true');",
            ".tables",
            ".describe t",
        )
        text = "\n".join(output)
        assert "t" in text
        assert "columnar memstore" in text

    def test_describe_counts_blocks_and_deltas(self, session):
        shell, output = session
        drive(
            shell,
            "CREATE TABLE t (a INT) TBLPROPERTIES ('shark.cache'='true');",
            ".describe t",  # never loaded: no block list yet
        )
        assert "blocks" not in "\n".join(output)
        shell.shark.load_rows("t", [(i,) for i in range(8)], num_partitions=2)
        for value in (8, 9, 10):  # 8 | 8+9 merged | 8+9, 10
            drive(shell, f"INSERT INTO t VALUES ({value});")
        drive(shell, ".describe t")
        assert "  -- 11 rows" in output
        assert "  -- 4 blocks, 2 deltas" in output

    def test_explain(self, session):
        shell, output = session
        drive(
            shell,
            "CREATE TABLE t (a INT) TBLPROPERTIES ('shark.cache'='true');",
            ".explain SELECT COUNT(*) FROM t WHERE a > 1",
        )
        assert any("Aggregate" in line for line in output)

    def test_workers_and_kill(self, session):
        shell, output = session
        drive(shell, ".workers")
        assert sum("alive" in line for line in output) == 2
        drive(shell, ".kill 0", ".workers")
        assert any("DEAD" in line for line in output)

    def test_kill_then_query_recovers(self, session):
        shell, output = session
        drive(
            shell,
            "CREATE TABLE t (a INT) TBLPROPERTIES ('shark.cache'='true');",
        )
        shell.shark.load_rows("t", [(i,) for i in range(20)])
        drive(shell, "SELECT COUNT(*) FROM t;", ".kill 1",
              "SELECT COUNT(*) FROM t;")
        tables = [entry for entry in output if "\n20" in entry]
        assert len(tables) == 2  # same answer before and after the kill

    def test_help_quit_unknown(self, session):
        shell, output = session
        drive(shell, ".help", ".bogus", ".quit")
        text = "\n".join(output)
        assert "dot-commands" in text.lower() or "Dot-commands" in text
        assert "unknown command" in text
        assert not shell.running

    def test_notes_after_query(self, session):
        shell, output = session
        drive(
            shell,
            "CREATE TABLE t (a INT) TBLPROPERTIES ('shark.cache'='true');",
        )
        shell.shark.load_rows("t", [(i,) for i in range(40)], 8)
        drive(shell, "SELECT COUNT(*) FROM t WHERE a = 3;", ".notes")
        assert any("map pruning" in line for line in output)

    def test_submit_queries_drain(self, session):
        shell, output = session
        drive(shell, "CREATE TABLE t (a INT);")
        shell.shark.load_rows("t", [(i,) for i in range(40)], 4)
        drive(
            shell,
            ".submit SELECT COUNT(*) FROM t",
            ".submit SELECT a, COUNT(*) FROM t GROUP BY a",
            ".queries",
            ".drain",
        )
        text = "\n".join(output)
        # First .submit lazily enables the lifecycle manager.
        assert "submitted query 0" in text
        assert "submitted query 1" in text
        assert "lifecycle: 2 submitted" in text
        assert "done" in text

    def test_cancel_submitted_query(self, session):
        shell, output = session
        drive(shell, "CREATE TABLE t (a INT);")
        shell.shark.load_rows("t", [(i,) for i in range(40)], 4)
        drive(
            shell,
            ".submit SELECT COUNT(*) FROM t",
            ".cancel 0",
            ".cancel 99",
            ".drain",
        )
        text = "\n".join(output)
        assert "cancellation requested for query 0" in text
        assert "no submitted query '99'" in text
        assert "cancelled" in text

    def test_queries_without_lifecycle(self, session):
        shell, output = session
        drive(shell, ".queries", ".drain")
        assert output.count("(no submitted queries)") == 2

    def test_doctor_usage_and_diff(self, session, tmp_path):
        shell, output = session
        drive(shell, ".doctor one-arg")
        assert any("usage: .doctor" in line for line in output)
        # Two tiny logs of the same one-query corpus: the second run is
        # identical, so the doctor reports zero regressions.
        drive(
            shell,
            "CREATE TABLE t (a INT) TBLPROPERTIES ('shark.cache'='true');",
        )
        shell.shark.load_rows("t", [(i,) for i in range(20)])
        paths = []
        for index in range(2):
            path = tmp_path / f"run{index}.jsonl"
            shell.shark.enable_event_log(path, source="shell-test")
            drive(shell, "SELECT COUNT(*) FROM t;")
            shell.shark.close_event_log()
            paths.append(path)
        drive(shell, f".doctor {paths[0]} {paths[1]}")
        text = "\n".join(output)
        assert "query doctor:" in text
        assert "1 paired query, 0 regressed" in text

    def test_eventlog_and_history(self, session, tmp_path):
        shell, output = session
        path = tmp_path / "shell.jsonl"
        drive(shell, ".eventlog", ".eventlog off", ".history")
        assert output == [
            "(no event log; `.eventlog <path>` to start one)",
            "(no event log open)",
            "usage: .history <path> [query-id-or-name]",
        ]
        drive(
            shell,
            "CREATE TABLE t (a INT) TBLPROPERTIES ('shark.cache'='true');",
            f".eventlog {path}",
            "SELECT COUNT(*) FROM t;",
            ".eventlog",
            f".history {path}",
            ".eventlog off",
        )
        text = "\n".join(output)
        assert f"event log open at {path}" in text
        assert f"event log: {path} (1 queries logged)" in text
        assert f"(note: {path} is still open for writing" in text
        assert f"closed event log {path}" in text
        del output[:]
        drive(shell, f".history {path}", f".history {path} q0000")
        text = "\n".join(output)
        assert "query history: 1 query from 1 log file(s)" in text
        assert "query q0000 [sql] ok" in text
        assert "== runtime profile (" in text
        drive(shell, f".history {path} q0009")
        assert output[-1] == "error: \"no query 'q0009' in history\""

    def test_doctor_missing_log_errors(self, session, tmp_path):
        shell, output = session
        drive(shell, f".doctor {tmp_path}/a.jsonl {tmp_path}/b.jsonl")
        assert any(line.startswith("error:") for line in output)


class TestRunHelper:
    def test_run_stops_at_quit(self):
        output: list[str] = []
        shell = run(
            ["SELECT 1;", ".quit", "SELECT 2;"],
            shark=SharkContext(num_workers=2),
            write=output.append,
        )
        assert not shell.running
        text = "\n".join(output)
        assert "1" in text


class TestServingCommands:
    def _start(self, shell):
        drive(
            shell,
            "CREATE TABLE t (a INT, b STRING) "
            "TBLPROPERTIES ('shark.cache'='true');",
            "INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'x');",
            ".server start",
        )

    def test_server_requires_start(self, session):
        shell, output = session
        drive(shell, ".server")
        assert "no server" in output[-1]
        drive(shell, ".tenants")
        assert "no tenants" in output[-1]

    def test_server_start_is_idempotent(self, session):
        shell, output = session
        self._start(shell)
        assert any("server started" in line for line in output)
        drive(shell, ".server start")
        assert "server already running" in output[-1]

    def test_tenant_lifecycle_and_submit_drain(self, session):
        shell, output = session
        self._start(shell)
        drive(shell, ".tenants add dash interactive")
        assert "tenant dash registered [interactive, weight 8]" in output[-1]
        drive(shell, ".tenants add crawl best_effort")
        drive(shell, ".tenants")
        text = "\n".join(output)
        assert "tenant dash [interactive, w8]" in text
        assert "tenant crawl [best_effort, w1]" in text

        drive(shell, ".server submit dash SELECT COUNT(*) FROM t;")
        assert "accepted query 0 for tenant dash (interactive)" in output[-1]
        drive(shell, ".server drain")
        text = "\n".join(output)
        assert "served 0" in text and "done" in text
        assert "1 completed" in text

    def test_bad_tenant_inputs_report_errors(self, session):
        shell, output = session
        self._start(shell)
        drive(shell, ".tenants add vip platinum")
        assert output[-1].startswith("error:")
        drive(shell, ".server submit nobody SELECT 1;")
        assert "unknown tenant" in output[-1]
        drive(shell, ".server submit onlytenant")
        assert "usage: .server submit" in output[-1]
        drive(shell, ".server bounce")
        assert "unknown server subcommand" in output[-1]

    def test_metrics_show_serving_section(self, session):
        shell, output = session
        self._start(shell)
        drive(shell, ".tenants add dash interactive")
        drive(shell, ".server submit dash SELECT COUNT(*) FROM t;")
        drive(shell, ".server drain", ".metrics")
        text = "\n".join(output)
        assert "== serving ==" in text
        assert "server.admitted = 1" in text
