"""S3: Chrome-trace export contract, including a faulty (retries +
speculation) run.

Checked per export: required keys on every event, named lanes, and the
recovery instants of a chaotic run.
"""

from __future__ import annotations

import json

import pytest

from repro import SharkContext
from repro.datatypes import DOUBLE, INT, STRING, Schema
from repro.faults import FaultInjector

_REQUIRED_KEYS = {
    "M": {"name", "ph", "pid", "tid", "args"},
    "X": {"name", "cat", "ph", "ts", "dur", "pid", "tid"},
    "i": {"name", "cat", "ph", "ts", "pid", "tid", "s"},
}


def _traced_shark(fault_injector=None) -> SharkContext:
    shark = SharkContext(
        num_workers=4, cores_per_worker=2, fault_injector=fault_injector
    )
    shark.create_table(
        "readings",
        Schema.of(("bucket", STRING), ("day", INT), ("value", DOUBLE)),
        cached=True,
    )
    shark.load_rows(
        "readings",
        [(f"b{i % 6}", i % 12, float(i % 90)) for i in range(4000)],
        num_partitions=8,
    )
    shark.enable_tracing()
    shark.sql(
        "SELECT bucket, COUNT(*) AS n, SUM(value) AS total "
        "FROM readings GROUP BY bucket"
    )
    return shark


@pytest.fixture(scope="module")
def chaotic_document():
    """The export of a run with retries and speculation."""
    injector = FaultInjector(
        seed=13,
        transient_failure_rate=0.15,
        # Three a stage, so one of the query's lands after
        # SPECULATION_MIN_PEERS fast peers and is speculated.
        stragglers_per_stage=3,
        straggler_slowdown=50.0,
    )
    shark = _traced_shark(fault_injector=injector)
    retried = sum(p.retried_tasks for p in shark.engine.profiles)
    speculative = sum(
        p.speculative_tasks for p in shark.engine.profiles
    )
    assert retried > 0 and speculative > 0  # the run was actually chaotic
    return shark.trace.to_chrome_trace()


def _check_required_keys(document):
    for event in document["traceEvents"]:
        assert event["ph"] in _REQUIRED_KEYS, event
        missing = _REQUIRED_KEYS[event["ph"]] - set(event)
        assert not missing, f"{event['ph']} event missing {missing}"


class TestCompleteStyle:
    def test_required_keys_and_json_round_trip(self):
        shark = _traced_shark()
        document = shark.trace.to_chrome_trace(
            metadata={"query": "agg"}
        )
        _check_required_keys(document)
        again = json.loads(json.dumps(document))
        assert again["metadata"] == {"query": "agg"}
        assert any(
            event["ph"] == "X" for event in again["traceEvents"]
        )


class TestChaoticRun:
    def test_required_keys(self, chaotic_document):
        _check_required_keys(chaotic_document)

    def test_driver_and_worker_lanes_named(self, chaotic_document):
        names = {
            event["args"]["name"]
            for event in chaotic_document["traceEvents"]
            if event["ph"] == "M" and event["name"] == "thread_name"
        }
        assert "driver" in names
        assert any(name.startswith("worker ") for name in names)

    def test_retry_and_speculation_visible(self, chaotic_document):
        instants = {
            event["name"]
            for event in chaotic_document["traceEvents"]
            if event["ph"] == "i"
        }
        assert "task.retry" in instants
        assert "task.speculative" in instants
