"""Unit tests of the benchmark harness itself (not of the program).

Run with::

    python -m pytest benchmarks/perf/tests -q -o addopts=""
"""

from __future__ import annotations

import sys
from datetime import date
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[3]))

from benchmarks.perf import datagen, harness, oracle, run  # noqa: E402
from benchmarks.perf.harness import OpSample, PassSample  # noqa: E402
from benchmarks.perf.spans import Recorder  # noqa: E402


# -- percentiles and the sample-count rule --------------------------------
def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert harness.percentile(values, 50) == 50
    assert harness.percentile(values, 90) == 90
    assert harness.percentile(values, 100) == 100
    assert harness.percentile([7.0], 90) == 7.0
    assert harness.percentile([3, 1, 2], 50) == 2


def test_percentile_of_nothing_raises():
    with pytest.raises(ValueError):
        harness.percentile([], 50)


def test_p90_needs_100_samples_for_ten_beyond():
    assert harness.samples_beyond(100, 90) == 10
    assert harness.samples_beyond(99, 90) == 9
    assert harness.samples_beyond(105, 90) == 10
    assert harness.samples_beyond(1000, 99) == 10
    # The count really is the number of samples above the percentile.
    values = list(range(250))
    p90 = harness.percentile(values, 90)
    assert sum(v > p90 for v in values) == harness.samples_beyond(250, 90)


def test_median_even_and_odd():
    assert harness.median([3, 1, 2]) == 2
    assert harness.median([4, 1, 3, 2]) == 2.5


# -- calibration maths ------------------------------------------------------
def test_speed_factor_is_one_at_reference_speed():
    ref = harness.REF_SPIN_S
    assert harness.speed_factor(ref, ref) == pytest.approx(1.0)


def test_calibration_cancels_a_uniform_slowdown():
    """A machine running everything 1.5x slower reports the same
    calibrated seconds."""
    ref = harness.REF_SPIN_S
    ops = [OpSample("a", 0.2, 0.01, True), OpSample("b", 0.3, 0.02, True)]
    fast = PassSample(ops, ref, ref)
    slow = PassSample(
        [OpSample(o.key, o.wall_s * 1.5, o.sim_s, True) for o in ops],
        ref * 1.5,
        ref * 1.5,
    )
    assert fast.cal_seconds == pytest.approx(0.5)
    assert slow.cal_seconds == pytest.approx(fast.cal_seconds)
    assert slow.raw_seconds == pytest.approx(0.75)
    assert slow.sim_seconds == fast.sim_seconds == pytest.approx(0.03)


def test_speed_factor_uses_the_mean_of_both_spins():
    ref = harness.REF_SPIN_S
    assert harness.speed_factor(ref, 3 * ref) == pytest.approx(0.5)


def _cycle(scale: float = 1.0) -> list:
    """Two passes of two ops; ``scale`` stretches the wall times."""
    ref = harness.REF_SPIN_S
    return [
        PassSample(
            [
                OpSample("a", 0.010 * scale, 0.001, True),
                OpSample("b", 0.030 * scale, 0.003, True),
            ],
            ref, ref,
        )
        for _ in range(2)
    ]


def test_end_to_end_metrics_are_per_cycle():
    cycles = [_cycle(), _cycle(), _cycle()]
    metrics = harness.end_to_end([1.0, 3.0, 2.0], cycles, 50.0, 0.5)
    assert metrics["setup_s"] == 2.0
    assert metrics["cal_ops_per_s"] == pytest.approx(4 / 0.080)
    assert metrics["cal_op_p50_ms"] == pytest.approx(10.0)
    assert metrics["cal_op_p90_ms"] == pytest.approx(30.0)
    assert metrics["sim_s"] == pytest.approx(0.008)
    assert metrics["sim_op_p90_ms"] == pytest.approx(3.0)
    # More cycles of the same schedule change nothing.
    assert harness.end_to_end([2.0], cycles[:1], 50.0, 0.5) == metrics


def test_one_stalled_cycle_does_not_move_the_metrics():
    """Each schedule position is the median of its repetitions."""
    steady = harness.end_to_end([1.0], [_cycle()] * 3, 1.0, 1.0)
    stalled = harness.end_to_end(
        [1.0], [_cycle(), _cycle(5.0), _cycle()], 1.0, 1.0
    )
    for name in ("cal_ops_per_s", "cal_op_p50_ms", "cal_op_p90_ms"):
        assert stalled[name] == pytest.approx(steady[name])


def test_across_cycles_takes_the_median_per_position():
    ref = harness.REF_SPIN_S
    cycles = [
        [PassSample([OpSample("a", wall, 0.0, True)], ref, ref)]
        for wall in (0.1, 0.5, 0.2)
    ]
    assert harness.across_cycles(
        cycles, lambda p: [op.wall_s for op in p.ops]
    ) == [0.2]


def test_pass_overrides_for_serving():
    ref = harness.REF_SPIN_S
    sample = PassSample(
        [OpSample("w0:0", 0.002, 0.07, True)], ref, ref,
        sim_s=0.5, wall_samples=[0.002, 0.004],
    )
    assert sample.sim_seconds == 0.5
    metrics = harness.end_to_end([1.0], [[sample]], 1.0, 1.0)
    assert metrics["cal_op_p90_ms"] == pytest.approx(4.0)
    assert metrics["sim_op_p50_ms"] == pytest.approx(70.0)


def test_drift_ratio():
    assert harness.drift_ratio([1.0] * 8) == pytest.approx(1.0)
    assert harness.drift_ratio([1, 1, 2, 2, 3, 3, 4, 4]) == pytest.approx(4.0)


def test_spin_takes_time():
    assert harness.spin() > 0


# -- span self-time arithmetic ------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_duration_minus_children():
    clock = FakeClock()
    recorder = Recorder(clock)
    with recorder.span("query"):
        clock.now = 1.0
        with recorder.span("sql.planner"):
            clock.now = 2.0
            with recorder.span("job.scan"):
                clock.now = 5.0
            clock.now = 6.0
        with recorder.span("collect"):
            clock.now = 8.0
        clock.now = 10.0
    self_times = recorder.self_times()
    assert self_times["job.scan"] == pytest.approx(3.0)
    assert self_times["sql.planner"] == pytest.approx(2.0)  # 5 - 3
    assert self_times["collect"] == pytest.approx(2.0)
    assert self_times["query"] == pytest.approx(3.0)  # 10 - 5 - 2
    assert sum(self_times.values()) == pytest.approx(10.0)


def test_spans_of_one_op_share_an_id_and_name_their_parent():
    recorder = Recorder(FakeClock())
    with recorder.span("query"):
        with recorder.span("sql.parser"):
            pass
    with recorder.span("query"):
        pass
    first, child, second = recorder.spans
    assert first.parent is None and child.parent == 0
    assert child.op_id == first.op_id != second.op_id
    assert recorder.counts() == {"query": 2, "sql.parser": 1}


def test_span_renamed_before_finish_counts_under_new_name():
    clock = FakeClock()
    recorder = Recorder(clock)
    span = recorder.begin("job")
    clock.now = 2.0
    span.name = "job.reduce"
    recorder.finish(span)
    assert recorder.self_times() == {"job.reduce": 2.0}


def test_out_of_order_finish_is_an_error():
    recorder = Recorder(FakeClock())
    outer = recorder.begin("outer")
    recorder.begin("inner")
    with pytest.raises(RuntimeError):
        recorder.finish(outer)


def test_chrome_trace_events():
    clock = FakeClock()
    recorder = Recorder(clock)
    with recorder.span("query"):
        clock.now = 0.5
    events = recorder.chrome_trace()["traceEvents"]
    assert events[0]["name"] == "query"
    assert events[0]["ph"] == "X"
    assert events[0]["dur"] == pytest.approx(0.5e6)


# -- generator determinism -----------------------------------------------------
def test_same_seed_same_rows():
    assert datagen.lineitem(7, 500).rows == datagen.lineitem(7, 500).rows
    assert (
        datagen.uservisits(7, 300, 50, 20).rows
        == datagen.uservisits(7, 300, 50, 20).rows
    )
    assert datagen.readings(7, 100, part=2).rows == (
        datagen.readings(7, 100, part=2).rows
    )


def test_other_seed_other_rows():
    assert datagen.lineitem(7, 500).rows != datagen.lineitem(8, 500).rows
    assert datagen.readings(7, 100).rows != datagen.readings(7, 100, part=1).rows


def test_tables_draw_from_independent_streams():
    """Resizing one table leaves another's rows alone."""
    assert datagen.orders(3, 100).rows == datagen.orders(3, 100).rows
    small, large = datagen.orders(3, 100).rows, datagen.orders(3, 200).rows
    assert len(small) == 100 and len(large) == 200
    assert datagen.customer(3, 50).rows == datagen.customer(3, 50).rows


def test_rows_are_plain_python_values_of_the_declared_types():
    table = datagen.lineitem(1, 50)
    kinds = {"int": int, "double": float, "string": str, "date": date}
    for row in table.rows:
        assert len(row) == len(table.columns)
        for value, (_, kind) in zip(row, table.columns):
            assert type(value) is kinds[kind]


def test_lineitem_cardinalities_follow_the_paper():
    rows = datagen.lineitem(5, 8000).rows
    assert len({row[12] for row in rows}) == 7  # ship modes
    assert 1500 < len({row[11] for row in rows}) <= 2530  # receipt dates
    assert all(row[11] > row[10] for row in rows)  # received after shipped


def test_text_bytes_counts_one_line_per_row():
    assert datagen.text_bytes([(1, "ab", date(2000, 1, 2))]) == len(
        "1|ab|2000-01-02\n"
    )


def test_zipf_indices_are_skewed_and_in_range():
    import numpy as np

    draws = datagen.zipf_indices(np.random.default_rng(1), 10, 5000, 1.1)
    assert min(draws) >= 0 and max(draws) < 10
    assert draws.count(0) > draws.count(9) * 3


# -- oracle comparison ---------------------------------------------------------
def test_rows_match_is_a_multiset_compare_with_float_tolerance():
    assert oracle.rows_match([("a", 1.0), ("b", 2.0)], [("b", 2.0), ("a", 1.0)])
    assert oracle.rows_match([("a", 1.0)], [("a", 1.0 + 1e-12)])
    assert not oracle.rows_match([("a", 1.0)], [("a", 1.0 + 1e-6)])
    assert not oracle.rows_match([("a", 1)], [("a", 1), ("a", 1)])
    assert not oracle.rows_match([("a", 1), ("a", 1)], [("a", 1), ("b", 1)])
    assert oracle.rows_match([], [])


def test_rows_match_normalises_dates_ints_and_nulls():
    assert oracle.rows_match(
        [(date(2000, 1, 2), 3, None)], [("2000-01-02", 3.0, None)]
    )
    assert not oracle.rows_match([(None,)], [(0,)])


def test_to_sqlite_rewrites_date_literals_only():
    text = "SELECT 1 FROM t WHERE d <= DATE '1998-09-02' AND s = 'DATE'"
    assert oracle.to_sqlite(text) == (
        "SELECT 1 FROM t WHERE d <= '1998-09-02' AND s = 'DATE'"
    )


def test_oracle_runs_the_frozen_dialect():
    db = oracle.Oracle()
    try:
        db.load(datagen.lineitem(2, 200))
        rows = db.query(
            "SELECT COUNT(*) FROM lineitem WHERE L_SHIPDATE >= DATE '1992-01-01'"
        )
        assert rows == [(200,)]
    finally:
        db.close()


def test_is_sorted():
    assert oracle.is_sorted([(1, 9.0), (2, 5.0), (3, 5.0)], 1, descending=True)
    assert not oracle.is_sorted([(1, 1.0), (2, 5.0)], 1, descending=True)


# -- the selfcheck rule ----------------------------------------------------------
def test_worse_by_respects_direction():
    lower = {"better": "lower"}
    higher = {"better": "higher"}
    assert run.worse_by(lower, 10.0, 11.0) == pytest.approx(0.1)
    assert run.worse_by(lower, 10.0, 9.0) == pytest.approx(-0.1)
    assert run.worse_by(higher, 10.0, 9.0) == pytest.approx(0.1)
    assert run.worse_by(higher, 10.0, 11.0) == pytest.approx(-0.1)
