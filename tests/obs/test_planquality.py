"""Unit tests for the plan-quality vocabulary (PR 10 tentpole).

Covers the q-error definition, stamp/actual joining, the audit, the
selectivity guesses behind the ``guess`` statistics source, and the
exactly-once counting hook — all pure functions, no cluster needed
except where the task-context no-op is asserted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import pytest

from repro.obs.planquality import (
    BETWEEN_SELECTIVITY,
    DEFAULT_Q_ERROR_THRESHOLD,
    DEFAULT_SELECTIVITY,
    EQ_SELECTIVITY,
    OperatorStamp,
    RANGE_SELECTIVITY,
    SOURCE_GUESS,
    actual_rows_from_profiles,
    audit,
    build_operator_profiles,
    estimate_filtered_rows,
    estimate_selectivity,
    format_profile_line,
    q_error,
    record_operator_rows,
)
from repro.sql.expressions import (
    BoundAnd,
    BoundBetween,
    BoundColumn,
    BoundComparison,
    BoundIn,
    BoundLiteral,
)
from repro.datatypes import INT


def _col(index: int = 0, name: str = "c") -> BoundColumn:
    return BoundColumn(index, INT, name)


def _lit(value: int) -> BoundLiteral:
    return BoundLiteral(value, INT)


class TestQError:
    def test_perfect_estimate_is_one(self):
        assert q_error(100, 100) == 1.0

    def test_symmetric_over_and_under(self):
        assert q_error(1000, 100) == 10.0
        assert q_error(100, 1000) == 10.0

    def test_clamps_zero_rows(self):
        # Empty results never divide by zero: both sides clamp to 1.
        assert q_error(50, 0) == 50.0
        assert q_error(0, 0) == 1.0

    def test_none_when_either_side_missing(self):
        assert q_error(None, 10) is None
        assert q_error(10, None) is None


class TestStampJoin:
    def _stamps(self):
        return [
            OperatorStamp("scan(t)", "vectorized", 0, 1000, "catalog"),
            OperatorStamp(
                "filter", "vectorized", 1, 300, "guess", detail="(c < 5)"
            ),
            OperatorStamp("sort", "row", 2, None, "none"),
        ]

    def test_profiles_join_stamps_with_actuals(self):
        profiles = build_operator_profiles(
            self._stamps(), {"scan(t)#0": 1000, "filter#1": 20}
        )
        assert [p["operator"] for p in profiles] == [
            "scan(t)", "filter", "sort",
        ]
        assert profiles[0]["q_error"] == 1.0
        assert profiles[1]["q_error"] == 15.0
        assert profiles[1]["detail"] == "(c < 5)"
        # Unstamped estimate + unobserved actual stay null, and the
        # detail key is omitted entirely when empty (byte identity).
        assert profiles[2]["est_rows"] is None
        assert profiles[2]["actual_rows"] is None
        assert profiles[2]["q_error"] is None
        assert "detail" not in profiles[2]

    def test_audit_flags_worst_first(self):
        profiles = build_operator_profiles(
            self._stamps(), {"scan(t)#0": 200, "filter#1": 20}
        )
        flagged = audit(profiles, DEFAULT_Q_ERROR_THRESHOLD)
        assert [p["operator"] for p in flagged] == ["filter", "scan(t)"]
        assert flagged[0]["q_error"] == 15.0
        # Threshold is strict: exactly-at-threshold is not flagged.
        assert audit(profiles, 15.0) == []
        assert audit(profiles, 5.0) == [profiles[1]]

    def test_format_line_marks_misestimates(self):
        profiles = build_operator_profiles(
            self._stamps(), {"filter#1": 20}
        )
        line = format_profile_line(profiles[1], DEFAULT_Q_ERROR_THRESHOLD)
        assert "filter [vectorized]" in line
        assert "est 300 (guess)" in line
        assert "actual 20 rows" in line
        assert "q-error 15.00" in line
        assert "** misestimate" in line
        unknown = format_profile_line(
            profiles[2], DEFAULT_Q_ERROR_THRESHOLD
        )
        assert "est ? (none) / actual ? rows" in unknown
        assert "q-error" not in unknown


@dataclass
class _FakeTask:
    operator_rows: dict = field(default_factory=dict)


@dataclass
class _FakeStage:
    tasks: list = field(default_factory=list)


@dataclass
class _FakeProfile:
    stages: list = field(default_factory=list)
    driver_task: _FakeTask | None = None


class TestActualAggregation:
    def test_sums_within_a_job(self):
        profile = _FakeProfile(
            stages=[
                _FakeStage(
                    tasks=[
                        _FakeTask({"filter#1": 10}),
                        _FakeTask({"filter#1": 15}),
                    ]
                )
            ]
        )
        assert actual_rows_from_profiles([profile]) == {"filter#1": 25}

    def test_max_across_jobs_prevents_double_counting(self):
        # A sort sampling job re-runs the scan over a sample; the PDE
        # pre-shuffle job re-runs it completely.  Max keeps the largest
        # complete observation instead of summing re-executions.
        sample_job = _FakeProfile(
            stages=[_FakeStage(tasks=[_FakeTask({"scan(t)#0": 64})])]
        )
        full_job = _FakeProfile(
            stages=[_FakeStage(tasks=[_FakeTask({"scan(t)#0": 1000})])]
        )
        totals = actual_rows_from_profiles([sample_job, full_job])
        assert totals == {"scan(t)#0": 1000}

    def test_driver_merge_counts_in_its_job(self):
        # A global aggregate: the partials come from the tasks, the
        # final row from the merge the driver ran.
        profile = _FakeProfile(
            stages=[
                _FakeStage(
                    tasks=[
                        _FakeTask({"aggregate.partial#1": 1}),
                        _FakeTask({"aggregate.partial#1": 1}),
                    ]
                )
            ],
            driver_task=_FakeTask({"aggregate.final#2": 1}),
        )
        assert actual_rows_from_profiles([profile]) == {
            "aggregate.partial#1": 2,
            "aggregate.final#2": 1,
        }

    def test_record_is_a_noop_on_the_driver(self):
        # No task context outside a running task: recording must not
        # raise and must not leak state anywhere.
        record_operator_rows("filter#1", 123)


class TestSelectivity:
    def test_equality_conjunct(self):
        condition = BoundComparison("=", _col(), _lit(1))
        assert estimate_selectivity(condition) == EQ_SELECTIVITY

    def test_inequality_conjunct(self):
        condition = BoundComparison("<>", _col(), _lit(1))
        assert estimate_selectivity(condition) == 1.0 - EQ_SELECTIVITY

    def test_range_conjunct(self):
        condition = BoundComparison("<", _col(), _lit(10))
        assert estimate_selectivity(condition) == RANGE_SELECTIVITY

    def test_between_conjunct(self):
        condition = BoundBetween(_col(), _lit(1), _lit(5))
        assert estimate_selectivity(condition) == BETWEEN_SELECTIVITY

    def test_in_list_scales_with_options_and_caps(self):
        small = BoundIn(_col(), [_lit(1), _lit(2)])
        assert estimate_selectivity(small) == pytest.approx(
            2 * EQ_SELECTIVITY
        )
        big = BoundIn(_col(), [_lit(v) for v in range(10)])
        assert estimate_selectivity(big) == 0.5

    def test_conjunction_multiplies(self):
        condition = BoundAnd(
            BoundComparison("=", _col(0, "a"), _lit(1)),
            BoundComparison("<", _col(1, "b"), _lit(9)),
        )
        assert estimate_selectivity(condition) == pytest.approx(
            EQ_SELECTIVITY * RANGE_SELECTIVITY
        )

    def test_unrecognized_uses_default(self):
        condition = BoundLiteral(True, INT)
        assert estimate_selectivity(condition) == DEFAULT_SELECTIVITY

    def test_filtered_rows_floor_is_one_row(self):
        condition = BoundComparison("=", _col(), _lit(1))
        assert estimate_filtered_rows(3, condition) == 1
        assert estimate_filtered_rows(1000, condition) == 100

    def test_stamp_source_vocabulary(self):
        stamp = OperatorStamp(
            "filter", "row", 4, 10, SOURCE_GUESS, detail="x"
        )
        assert stamp.key == "filter#4"
