"""End-to-end tracing: real queries, forced failures, EXPLAIN ANALYZE."""

from __future__ import annotations

import pytest

from repro import SharkContext
from repro.datatypes import INT, STRING, Schema


def _joined(cores_per_worker: int) -> SharkContext:
    context = SharkContext(num_workers=4, cores_per_worker=cores_per_worker)
    context.create_table(
        "users", Schema.of(("uid", INT), ("name", STRING)), cached=True
    )
    context.load_rows(
        "users", [(i, f"user{i}") for i in range(40)], num_partitions=8
    )
    context.create_table(
        "clicks", Schema.of(("uid", INT), ("url", STRING)), cached=True
    )
    context.load_rows(
        "clicks",
        [(i % 40, f"/page/{i}") for i in range(200)],
        num_partitions=8,
    )
    return context


@pytest.fixture
def shark() -> SharkContext:
    return _joined(cores_per_worker=2)


def _tasks_by_lane(shark: SharkContext) -> dict:
    by_lane: dict = {}
    for task in shark.trace.spans_in_category("task"):
        by_lane.setdefault(task.lane, []).append(task)
    return by_lane


def _most_at_once(spans) -> int:
    """The most spans running at one instant (an end frees its slot for
    a span starting at the same time)."""
    edges = sorted(
        [(span.end, -1) for span in spans]
        + [(span.start, 1) for span in spans]
    )
    running = most = 0
    for __, step in edges:
        running += step
        most = max(most, running)
    return most


def _grouped_on_two_by_two() -> SharkContext:
    """A traced GROUP BY over 8 cached blocks on 2 workers x 2 cores.
    Blocks 0, 1, 4 and 5 hold 50 groups each, the rest one: a worker's
    two cores free at different times, so its tasks overlap unevenly."""
    shark = SharkContext(num_workers=2, cores_per_worker=2)
    shark.create_table("t", Schema.of(("k", INT), ("s", STRING)), cached=True)
    rows = [(i, f"s{i}" if (i // 50) % 4 < 2 else "x") for i in range(400)]
    shark.load_rows("t", rows, 8)
    shark.enable_tracing()
    shark.sql("SELECT s, COUNT(*) FROM t GROUP BY s")
    return shark


JOIN_QUERY = (
    "SELECT name, COUNT(*) AS n FROM users JOIN clicks "
    "ON users.uid = clicks.uid GROUP BY name"
)


class TestQueryTracing:
    def test_span_hierarchy_of_a_query(self, shark):
        shark.enable_tracing()
        shark.sql(JOIN_QUERY)
        trace = shark.trace

        queries = trace.spans_in_category("query")
        jobs = trace.spans_in_category("job")
        stages = trace.spans_in_category("stage")
        tasks = trace.spans_in_category("task")
        assert len(queries) == 1
        assert jobs and stages and tasks
        # Jobs nest under the query; stages under jobs; tasks under stages.
        assert all(j.parent_id == queries[0].span_id for j in jobs)
        job_ids = {j.span_id for j in jobs}
        assert all(s.parent_id in job_ids for s in stages)
        stage_ids = {s.span_id for s in stages}
        assert all(t.parent_id in stage_ids for t in tasks)

    def test_spans_are_closed_and_ordered(self, shark):
        shark.enable_tracing()
        shark.sql(JOIN_QUERY)
        for span in shark.trace.spans:
            assert span.end >= span.start
        # A task runs inside its stage's interval.
        for task in shark.trace.spans_in_category("task"):
            stage = shark.trace.span(task.parent_id)
            assert task.start >= stage.start
            assert task.end <= stage.end

    def test_worker_lanes_serialize_tasks(self):
        # One core a worker: its lane runs one task at a time.
        shark = _joined(cores_per_worker=1)
        shark.enable_tracing()
        shark.sql(JOIN_QUERY)
        by_lane = _tasks_by_lane(shark)
        assert len(by_lane) > 1  # work spread over workers
        for spans in by_lane.values():
            ordered = sorted(spans, key=lambda s: s.start)
            for earlier, later in zip(ordered, ordered[1:]):
                assert later.start >= earlier.end

    def test_worker_lanes_run_at_most_cores_tasks_at_once(self, shark):
        shark.enable_tracing()
        shark.sql(JOIN_QUERY)
        most = [_most_at_once(s) for s in _tasks_by_lane(shark).values()]
        assert max(most) == 2  # the fixture's cores per worker

    def test_a_grouped_query_fills_two_cores_and_no_more(self):
        by_lane = _tasks_by_lane(_grouped_on_two_by_two())
        assert set(by_lane) == {0, 1}
        assert max(_most_at_once(s) for s in by_lane.values()) == 2

    def test_chrome_rows_keep_every_task_whole(self):
        """Tasks a worker runs at once go on rows of their own: no two
        task events of a row overlap, and each keeps its span's length."""
        shark = _grouped_on_two_by_two()
        document = shark.trace.to_chrome_trace()
        names = {
            event["tid"]: event["args"]["name"]
            for event in document["traceEvents"]
            if event["name"] == "thread_name"
        }
        assert "worker 0" in names.values()
        assert {"worker 0 core 1", "worker 1 core 1"} & set(names.values())
        assert not any("core 2" in name for name in names.values())
        rows: dict = {}
        for event in document["traceEvents"]:
            if event["ph"] == "X" and event["cat"] == "task":
                rows.setdefault(event["tid"], []).append(event)
        for events in rows.values():
            ordered = sorted(events, key=lambda event: event["ts"])
            for earlier, later in zip(ordered, ordered[1:]):
                assert later["ts"] >= earlier["ts"] + earlier["dur"] - 1e-6
        exported = [event["dur"] for events in rows.values() for event in events]
        spans = shark.trace.spans_in_category("task")
        assert sorted(exported) == pytest.approx(
            sorted(span.duration * 1e6 for span in spans)
        )

    def test_disabled_tracing_records_nothing(self, shark):
        shark.sql(JOIN_QUERY)
        assert len(shark.trace) == 0

    def test_metrics_count_engine_activity(self, shark):
        before = shark.metrics.value("tasks.launched")
        shark.sql(JOIN_QUERY)
        assert shark.metrics.value("tasks.launched") > before
        assert shark.metrics.value("jobs.submitted") >= 1
        assert shark.metrics.value("shuffle.write.bytes") > 0


@pytest.fixture
def grouped_shark() -> SharkContext:
    """The fault-tolerance workload: a wide GROUP BY whose map stage is
    long enough that a mid-query kill always loses shuffle output."""
    context = SharkContext(num_workers=5, cores_per_worker=2)
    context.create_table(
        "metrics", Schema.of(("group_key", STRING), ("value", INT)),
        cached=True,
    )
    context.load_rows(
        "metrics",
        [(f"g{i % 13}", i % 97) for i in range(4000)],
        num_partitions=10,
    )
    return context


GROUP_QUERY = (
    "SELECT group_key, COUNT(*) AS n, SUM(value) AS total "
    "FROM metrics GROUP BY group_key"
)


class TestFailureTracing:
    def _run_with_mid_query_kill(self, shark, worker_id=3):
        expected = sorted(shark.sql(GROUP_QUERY).rows)
        shark.enable_tracing()
        base = shark.engine.cluster.total_tasks_completed
        shark.inject_failure(worker_id=worker_id, after_tasks=base + 5)
        shark.engine.reset_profiles()
        result = shark.sql(GROUP_QUERY)
        assert sorted(result.rows) == expected
        recovered = sum(
            profile.recovered_tasks for profile in shark.engine.profiles
        )
        assert recovered > 0, "kill did not force recovery"
        return recovered

    def test_kill_and_recovery_events(self, grouped_shark):
        shark = grouped_shark
        recovered = self._run_with_mid_query_kill(shark)

        trace = shark.trace
        kills = trace.events_named("worker.kill")
        assert len(kills) == 1
        assert kills[0].args["worker_id"] == 3
        assert trace.events_in_category("recovery"), (
            "expected lineage-recovery events after the kill"
        )
        assert shark.metrics.value("tasks.recovered") >= recovered

    def test_recovery_task_spans_are_marked(self, grouped_shark):
        shark = grouped_shark
        self._run_with_mid_query_kill(shark, worker_id=2)
        reexecutions = shark.trace.events_named("task.reexecution")
        recovery_spans = [
            span
            for span in shark.trace.spans_in_category("task")
            if span.args.get("recovery")
        ]
        assert reexecutions or recovery_spans

    def test_chrome_trace_of_failure_run(self, grouped_shark, tmp_path):
        shark = grouped_shark
        self._run_with_mid_query_kill(shark, worker_id=1)
        path = tmp_path / "failure.json"
        shark.trace.write_chrome_trace(str(path))
        import json

        document = json.loads(path.read_text())
        names = {event["name"] for event in document["traceEvents"]}
        assert "worker.kill" in names
        assert "lineage.recovery" in names or "task.reexecution" in names


class TestExplainAnalyze:
    def test_output_shape_on_cached_join(self, shark):
        text = shark.explain_analyze(JOIN_QUERY)
        assert "== runtime profile" in text
        assert "simulated seconds" in text
        assert "sim-s" in text
        assert "tasks" in text
        assert "rows" in text
        assert "result: 40 row(s)" in text
        # The plan itself still leads the output.
        assert text.index("Join") < text.index("== runtime profile")

    def test_reports_shuffle_bytes(self, shark):
        text = shark.explain_analyze(JOIN_QUERY)
        assert "shuffle write" in text

    def test_rows_match_plain_execution(self, shark):
        result = shark.sql(f"EXPLAIN ANALYZE {JOIN_QUERY}")
        assert result.schema.names == ["plan"]
        assert result.plan_text == "\n".join(r[0] for r in result.rows)

    def test_explain_without_analyze_does_not_execute(self, shark):
        before = shark.metrics.value("tasks.launched")
        shark.sql(f"EXPLAIN {JOIN_QUERY}")
        assert shark.metrics.value("tasks.launched") == before

    def test_attempts_surface_after_failure(self, grouped_shark):
        shark = grouped_shark
        shark.sql(GROUP_QUERY)  # warm
        base = shark.engine.cluster.total_tasks_completed
        shark.inject_failure(worker_id=3, after_tasks=base + 5)
        text = shark.explain_analyze(GROUP_QUERY)
        assert "recovered tasks (lineage re-execution):" in text


class TestShellObservability:
    def test_profile_and_metrics_commands(self, shark):
        from repro.shell import run

        out: list[str] = []
        run(
            [
                f".profile {JOIN_QUERY}",
                ".metrics",
            ],
            shark=shark,
            write=out.append,
        )
        text = "\n".join(out)
        assert "== runtime profile" in text
        assert "tasks.launched" in text

    def test_trace_command_round_trip(self, shark, tmp_path):
        from repro.shell import run

        path = tmp_path / "shell.json"
        out: list[str] = []
        run(
            [
                ".trace on",
                "SELECT COUNT(*) FROM clicks;",
                f".trace {path}",
                ".trace off",
            ],
            shark=shark,
            write=out.append,
        )
        assert path.exists()
        assert any("tracing enabled" in line for line in out)
        assert any("tracing disabled" in line for line in out)

    def test_help_lists_observability_commands(self):
        from repro.shell import HELP_TEXT

        assert ".profile" in HELP_TEXT
        assert ".metrics" in HELP_TEXT
        assert ".trace" in HELP_TEXT
