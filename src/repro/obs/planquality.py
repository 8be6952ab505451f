"""Plan-quality observability: estimated vs. actual operator cardinalities.

The planner stamps every operator it emits with an estimated output row
count and the statistics source behind that estimate (catalog stats,
pruning maps, or a default selectivity guess); physical operators count
the rows they actually produce into the running task's metrics.  This
module owns the shared vocabulary between the two sides:

* :class:`OperatorStamp` — one planned operator instance, created by
  ``ExecutionReport.mode`` and keyed so runtime counts can find it;
* :func:`record_operator_rows` — the task-side counting hook (exactly
  once per kept attempt, because it writes into per-attempt
  :class:`~repro.engine.metrics.TaskMetrics`);
* :func:`actual_rows_from_profiles` — driver-side aggregation of those
  counts across jobs (sum within a job, max across jobs, so sampling
  jobs and PDE pre-shuffle jobs never double count);
* :func:`build_operator_profiles` / :func:`audit` — the est/actual/
  q-error confrontation consumed by EXPLAIN ANALYZE, the event log
  (schema-v6 ``operator_profile`` records), and the query doctor.

The q-error of an estimate is ``max(est/actual, actual/est)`` with both
sides clamped to at least one row — the standard multiplicative error
measure from the cardinality-estimation literature; 1.0 is a perfect
estimate and the audit flags operators above
:data:`DEFAULT_Q_ERROR_THRESHOLD`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

#: Operators whose q-error exceeds this are flagged by the audit.
DEFAULT_Q_ERROR_THRESHOLD = 4.0

#: Default selectivity guesses (per conjunct) when no statistics apply —
#: the classic System R style constants.  Deliberately crude: their
#: misses are exactly what the plan-quality audit exists to expose.
EQ_SELECTIVITY = 0.1
RANGE_SELECTIVITY = 0.3
BETWEEN_SELECTIVITY = 0.25
DEFAULT_SELECTIVITY = 0.33

#: Statistics sources recorded on stamps (ordered roughly by trust).
SOURCE_CATALOG = "catalog"
SOURCE_PRUNING = "pruning"
SOURCE_GUESS = "guess"
SOURCE_NONE = "none"


@dataclass
class OperatorStamp:
    """One operator instance emitted by the planner.

    ``op_id`` is unique within a query's :class:`ExecutionReport`;
    ``key`` ties the stamp to the runtime counts recorded under the same
    string by :func:`record_operator_rows`.
    """

    operator: str
    mode: str
    op_id: int
    est_rows: Optional[int] = None
    est_source: str = SOURCE_NONE
    detail: str = ""

    @property
    def key(self) -> str:
        return f"{self.operator}#{self.op_id}"


def q_error(est: Optional[int], actual: Optional[int]) -> Optional[float]:
    """Multiplicative estimation error, or None when a side is missing.

    Both sides are clamped to >= 1 row so empty results do not divide by
    zero; a perfect estimate scores 1.0.
    """
    if est is None or actual is None:
        return None
    low = max(int(est), 1)
    high = max(int(actual), 1)
    if low < high:
        low, high = high, low
    return low / high


def record_operator_rows(key: str, count: int) -> None:
    """Credit ``count`` output rows to operator ``key`` in the running
    task's metrics (a driver merge's included; no-op outside a task).

    Counts live in per-attempt :class:`TaskMetrics`, and only the kept
    attempt's metrics reach the stage profile — so retries, speculative
    backups, and lineage recovery never double count.
    """
    from repro.engine.task import current_task_context

    task_ctx = current_task_context()
    if task_ctx is None:
        return
    rows = task_ctx.metrics.operator_rows
    rows[key] = rows.get(key, 0) + count


def actual_rows_from_profiles(profiles) -> dict[str, int]:
    """Aggregate per-task operator counts (and those of the operators a
    job ran on the driver) across a query's job profiles.

    Within one job the per-task counts sum; across jobs the per-operator
    totals take the *max*.  A query may run several jobs that recompute
    the same upstream operators (sort sampling passes, PDE pre-shuffle
    materialization, subquery collects) — summing across jobs would
    double count them, while the max is the largest complete observation
    of each operator's output.
    """
    totals: dict[str, int] = {}
    for profile in profiles:
        per_job: dict[str, int] = {}
        tasks = [task for stage in profile.stages for task in stage.tasks]
        if profile.driver_task is not None:
            tasks.append(profile.driver_task)
        for task in tasks:
            for key, count in task.operator_rows.items():
                per_job[key] = per_job.get(key, 0) + count
        for key, count in per_job.items():
            # Presence check, not a bare max: an operator that produced
            # zero rows is still an observation ("actual 0"), distinct
            # from an operator no task ever ran.
            if key not in totals or count > totals[key]:
                totals[key] = count
    return totals


def build_operator_profiles(
    stamps, actuals: dict[str, int]
) -> list[dict]:
    """Join planner stamps with runtime actuals into profile dicts.

    The dict shape is exactly the schema-v6 ``operator_profile`` payload
    (minus ``query_id``, added by the event-log writer): ``est_rows``,
    ``actual_rows`` and ``q_error`` are null when unknown, ``detail`` is
    present only when non-empty so logs stay byte-identical for
    operators without one.
    """
    out: list[dict] = []
    for stamp in stamps:
        actual = actuals.get(stamp.key)
        entry = {
            "operator": stamp.operator,
            "op_id": stamp.op_id,
            "mode": stamp.mode,
            "est_rows": stamp.est_rows,
            "est_source": stamp.est_source,
            "actual_rows": actual,
            "q_error": q_error(stamp.est_rows, actual),
        }
        if stamp.detail:
            entry["detail"] = stamp.detail
        out.append(entry)
    return out


def audit(
    operator_profiles: list[dict],
    threshold: float = DEFAULT_Q_ERROR_THRESHOLD,
) -> list[dict]:
    """Operators whose estimate missed by more than ``threshold``,
    worst first."""
    flagged = [
        profile
        for profile in operator_profiles
        if profile.get("q_error") is not None
        and profile["q_error"] > threshold
    ]
    flagged.sort(key=lambda p: (-p["q_error"], p["operator"], p["op_id"]))
    return flagged


def estimate_selectivity(condition) -> float:
    """Guessed fraction of rows satisfying ``condition``.

    Multiplies a per-conjunct constant over the AND-split of the
    predicate; anything unrecognized contributes
    :data:`DEFAULT_SELECTIVITY`.  The result is the ``guess`` source —
    no catalog statistics are consulted here.
    """
    from repro.sql.expressions import (
        BoundBetween,
        BoundComparison,
        BoundIn,
    )
    from repro.sql.optimizer import split_conjuncts

    selectivity = 1.0
    for conjunct in split_conjuncts(condition):
        if isinstance(conjunct, BoundComparison):
            if conjunct.op == "=":
                selectivity *= EQ_SELECTIVITY
            elif conjunct.op == "<>":
                selectivity *= 1.0 - EQ_SELECTIVITY
            else:
                selectivity *= RANGE_SELECTIVITY
        elif isinstance(conjunct, BoundBetween):
            selectivity *= BETWEEN_SELECTIVITY
        elif isinstance(conjunct, BoundIn):
            selectivity *= min(
                EQ_SELECTIVITY * max(len(conjunct.options), 1), 0.5
            )
        else:
            selectivity *= DEFAULT_SELECTIVITY
    return selectivity


def estimate_filtered_rows(base_rows: int, condition) -> int:
    """Row estimate for a filter over ``base_rows`` input rows (>= 1)."""
    return max(1, int(base_rows * estimate_selectivity(condition)))


def format_profile_line(profile: dict, threshold: float) -> str:
    """One EXPLAIN ANALYZE / report line for an operator profile."""
    est = profile.get("est_rows")
    actual = profile.get("actual_rows")
    error = profile.get("q_error")
    est_text = "?" if est is None else str(est)
    actual_text = "?" if actual is None else str(actual)
    source = profile.get("est_source") or SOURCE_NONE
    line = (
        f"{profile['operator']} [{profile['mode']}]: "
        f"est {est_text} ({source}) / actual {actual_text} rows"
    )
    if error is not None:
        line += f", q-error {error:.2f}"
        if error > threshold:
            line += "  ** misestimate"
    return line


def heavy_keys_text(skew_row: dict) -> str:
    """The three heaviest reduce keys of a shuffle-skew row, as
    ``key=count, ...`` ('' when it labelled none)."""
    return ", ".join(
        f"{key}={count}"
        for key, count in (skew_row.get("heavy_keys") or [])[:3]
    )
