"""Query doctor: explain *why* a query got slower between two runs.

``python -m repro.obs.doctor <log_a> <log_b>`` (and the shell's
``.doctor`` dot-command) loads two event logs of the same query corpus
— a baseline run and a current run — pairs queries by name, and for
each regressed query emits ranked, evidence-backed root causes drawn
from a fixed taxonomy:

===================  =====================================================
category             evidence consulted
===================  =====================================================
``spill-appeared``   ``memory_spill`` records: spills present (or grown)
                     in the current run only
``cache-miss``       ``cache_lookup`` records: a layer that hit in the
                     baseline missed in the current run
``skew-growth``      ``shuffle_skew`` records (v6): row skew grew by
                     >= :data:`SKEW_GROWTH_FACTOR`
``plan-change``      plan text / operator sequence differs between runs
``estimate-drift``   ``operator_profile`` records (v6): worst q-error
                     grew by >= :data:`ESTIMATE_DRIFT_FACTOR`
``stage-slowdown``   per-stage simulated seconds: the fallback when no
                     structural cause explains the regression
===================  =====================================================

Categories are ranked by diagnostic specificity (a spill explains a
slowdown better than "a stage got slower" does); within a report the
top-ranked finding of each regressed query votes for the corpus-level
"top root cause" line that ends the report.  Everything here is a
pure function of the two logs — deterministic, no wall clock.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from typing import Optional

from repro.obs.history import (
    HistoryStore,
    QueryRecord,
    _short,
    count_queries,
)
from repro.obs.planquality import heavy_keys_text

#: A current run this much slower than baseline (relative) is regressed.
DEFAULT_REGRESSION_THRESHOLD = 0.25

#: Current-run row skew must be this multiple of baseline to be a cause.
SKEW_GROWTH_FACTOR = 1.5

#: Current-run worst q-error must be this multiple of baseline.
ESTIMATE_DRIFT_FACTOR = 2.0

#: Category -> rank weight (higher = more diagnostic, reported first).
CATEGORY_WEIGHTS = {
    "spill-appeared": 80,
    "cache-miss": 70,
    "skew-growth": 60,
    "plan-change": 50,
    "estimate-drift": 40,
    "stage-slowdown": 10,
}


@dataclass
class Finding:
    """One evidence-backed root-cause candidate for one query."""

    category: str
    summary: str
    evidence: list[str] = field(default_factory=list)

    @property
    def weight(self) -> int:
        return CATEGORY_WEIGHTS.get(self.category, 0)


@dataclass
class QueryDiagnosis:
    """One paired query's before/after numbers and ranked findings."""

    name: str
    baseline_seconds: float
    current_seconds: float
    findings: list[Finding] = field(default_factory=list)

    @property
    def slowdown(self) -> float:
        """Relative slowdown (0.5 = 50% slower; 0 when baseline is 0)."""
        if self.baseline_seconds <= 0.0:
            return 0.0
        return (
            self.current_seconds - self.baseline_seconds
        ) / self.baseline_seconds

    @property
    def top_category(self) -> Optional[str]:
        return self.findings[0].category if self.findings else None


@dataclass
class DoctorReport:
    """The full two-run comparison."""

    baseline_path: str
    current_path: str
    regression_threshold: float
    diagnoses: list[QueryDiagnosis] = field(default_factory=list)
    #: Queries present in only one of the two logs (unpairable).
    unmatched: list[str] = field(default_factory=list)
    #: Queries shed in both runs: they ran on neither side, so no pair.
    shed_both: int = 0

    def regressed(self) -> list[QueryDiagnosis]:
        return [
            diagnosis
            for diagnosis in self.diagnoses
            if diagnosis.slowdown > self.regression_threshold
        ]

    def top_cause(self) -> Optional[tuple[str, int]]:
        """(category, query count) of the most common top finding among
        regressed queries; ties break toward the heavier category."""
        votes: dict[str, int] = {}
        for diagnosis in self.regressed():
            category = diagnosis.top_category
            if category is not None:
                votes[category] = votes.get(category, 0) + 1
        if not votes:
            return None
        category = max(
            votes,
            key=lambda name: (
                votes[name],
                CATEGORY_WEIGHTS.get(name, 0),
                name,
            ),
        )
        return category, votes[category]

    def render(self) -> str:
        lines = [
            f"query doctor: {self.baseline_path} (baseline) vs "
            f"{self.current_path} (current), "
            f"regression threshold {self.regression_threshold:.0%}"
        ]
        regressed = self.regressed()
        lines.append(
            f"{count_queries(len(self.diagnoses), 'paired ')}, "
            f"{len(regressed)} regressed"
        )
        for diagnosis in self.diagnoses:
            marker = (
                "REGRESSED"
                if diagnosis.slowdown > self.regression_threshold
                else "ok"
            )
            lines.append("")
            lines.append(
                f"{_short(diagnosis.name)}: "
                f"{diagnosis.baseline_seconds:.3f}s -> "
                f"{diagnosis.current_seconds:.3f}s "
                f"({diagnosis.slowdown:+.0%})  [{marker}]"
            )
            if marker == "ok":
                continue
            if not diagnosis.findings:
                lines.append("  (no root cause identified)")
            for rank, finding in enumerate(diagnosis.findings, start=1):
                lines.append(
                    f"  {rank}. [{finding.category}] {finding.summary}"
                )
                for item in finding.evidence:
                    lines.append(f"     - {item}")
        if self.unmatched:
            lines.append("")
            lines.append(
                "unpaired queries (present in only one run): "
                + ", ".join(map(_short, self.unmatched))
            )
        if self.shed_both:
            shed = count_queries(self.shed_both)
            lines += ["", f"{shed} shed in both runs (ran on neither side)"]
        top = self.top_cause()
        if top is not None:
            lines.append("")
            lines.append(
                f"top root cause across corpus: {top[0]} "
                f"({count_queries(top[1])})"
            )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Per-query diagnosis
# ---------------------------------------------------------------------------


def _spill_delta(
    baseline: QueryRecord, current: QueryRecord
) -> Optional[Finding]:
    def total(record: QueryRecord) -> int:
        return sum(int(row["bytes"]) for row in record.spills)

    before, after = total(baseline), total(current)
    if after <= before:
        return None
    owners = sorted({row["owner"] for row in current.spills})
    return Finding(
        category="spill-appeared",
        summary=(
            f"spill bytes grew {before} -> {after}"
            if before
            else f"spills appeared ({after} bytes)"
        ),
        evidence=[f"spilling operators: {', '.join(owners)}"],
    )


def _cache_regression(
    baseline: QueryRecord, current: QueryRecord
) -> Optional[Finding]:
    def outcomes(record: QueryRecord) -> dict[str, str]:
        # Last outcome per layer: re-probes supersede earlier ones.
        out: dict[str, str] = {}
        for row in record.cache_lookups:
            out[row["layer"]] = row["outcome"]
        return out

    before, after = outcomes(baseline), outcomes(current)
    lost = [
        layer
        for layer, outcome in before.items()
        if outcome == "hit" and after.get(layer) == "miss"
    ]
    if not lost:
        return None
    return Finding(
        category="cache-miss",
        summary=(
            f"cache layer(s) flipped hit -> miss: {', '.join(sorted(lost))}"
        ),
        evidence=[
            f"{layer}: hit in baseline, miss in current"
            for layer in sorted(lost)
        ],
    )


def _skew_growth(
    baseline: QueryRecord, current: QueryRecord
) -> Optional[Finding]:
    def worst(record: QueryRecord) -> float:
        return max(
            (
                float(row.get("row_skew", 0.0))
                for row in record.skew_records
            ),
            default=0.0,
        )

    before, after = worst(baseline), worst(current)
    if after < SKEW_GROWTH_FACTOR * max(before, 1.0):
        return None
    worst_row = max(
        current.skew_records,
        key=lambda row: float(row.get("row_skew", 0.0)),
    )
    heavy = heavy_keys_text(worst_row)
    return Finding(
        category="skew-growth",
        summary=(
            f"shuffle row skew grew x{before:.2f} -> x{after:.2f}"
        ),
        evidence=[
            f"shuffle {worst_row['shuffle_id']}: straggler partition "
            f"{worst_row.get('straggler_partition', 0)}"
            + (f", heavy keys: {heavy}" if heavy else "")
        ],
    )


def _plan_change(
    baseline: QueryRecord, current: QueryRecord
) -> Optional[Finding]:
    shape_before = [operator for operator, __ in baseline.operator_modes]
    shape_after = [operator for operator, __ in current.operator_modes]
    plan_differs = (
        baseline.plan_text is not None
        and current.plan_text is not None
        and baseline.plan_text != current.plan_text
    )
    if shape_before == shape_after and not plan_differs:
        return None
    evidence = []
    if shape_before != shape_after:
        evidence.append(
            "operators: "
            + " ".join(shape_before)
            + "  ->  "
            + " ".join(shape_after)
        )
    if plan_differs:
        evidence.append("optimized plan text differs")
    return Finding(
        category="plan-change",
        summary="plan shape changed between runs",
        evidence=evidence,
    )


def _estimate_drift(
    baseline: QueryRecord, current: QueryRecord
) -> Optional[Finding]:
    def worst(record: QueryRecord) -> tuple[float, Optional[dict]]:
        top, top_row = 0.0, None
        for row in record.operator_profiles:
            error = row.get("q_error")
            if error is not None and float(error) > top:
                top, top_row = float(error), row
        return top, top_row

    before, __ = worst(baseline)
    after, after_row = worst(current)
    if after_row is None or after < ESTIMATE_DRIFT_FACTOR * max(
        before, 1.0
    ):
        return None
    return Finding(
        category="estimate-drift",
        summary=(
            f"worst q-error grew x{before:.1f} -> x{after:.1f}"
        ),
        evidence=[
            f"{after_row['operator']}: est {after_row.get('est_rows')} "
            f"({after_row.get('est_source')}) vs actual "
            f"{after_row.get('actual_rows')} rows"
        ],
    )


def _stage_keys(record: QueryRecord) -> list[tuple[str, int]]:
    """Each ``stage_sim`` row's key across runs: its name and how many
    stages of that name came before it in the query.  Not its id: ids
    count every stage the context ran before, so a stage one run does
    not have (say a global aggregate's reduce, where the other merged on
    the driver) would renumber every stage after it."""
    seen: dict[str, int] = {}
    keys = []
    for row in record.stage_sim:
        name = row["name"]
        keys.append((name, seen.get(name, 0)))
        seen[name] = seen.get(name, 0) + 1
    return keys


def _stage_slowdown(
    baseline: QueryRecord, current: QueryRecord
) -> Optional[Finding]:
    before = {
        key: float(row["sim_seconds"])
        for key, row in zip(_stage_keys(baseline), baseline.stage_sim)
    }
    worst_row, worst_delta, before_seconds = None, 0.0, 0.0
    for key, row in zip(_stage_keys(current), current.stage_sim):
        delta = float(row["sim_seconds"]) - before.get(key, 0.0)
        if delta > worst_delta:
            worst_row, worst_delta = row, delta
            before_seconds = before.get(key, 0.0)
    if worst_row is None:
        return None
    return Finding(
        category="stage-slowdown",
        summary=(
            f"stage {worst_row['stage_id']} ({worst_row['name']}) slowed "
            f"by {worst_delta:.3f} sim-s"
        ),
        evidence=[
            f"{before_seconds:.3f}s -> {float(worst_row['sim_seconds']):.3f}s"
        ],
    )


_CHECKS = (
    _spill_delta,
    _cache_regression,
    _skew_growth,
    _plan_change,
    _estimate_drift,
    _stage_slowdown,
)


def diagnose_pair(
    baseline: QueryRecord, current: QueryRecord
) -> list[Finding]:
    """Ranked root-cause findings for one baseline/current query pair."""
    findings = [
        finding
        for check in _CHECKS
        for finding in [check(baseline, current)]
        if finding is not None
    ]
    findings.sort(key=lambda finding: (-finding.weight, finding.category))
    return findings


# ---------------------------------------------------------------------------
# Corpus pairing and the report
# ---------------------------------------------------------------------------


def _pair_queries(
    baseline: HistoryStore, current: HistoryStore
) -> tuple[list[tuple[QueryRecord, QueryRecord]], list[str], int]:
    """Pair queries by name, in order of occurrence (a corpus may run
    the same statement twice); a name shed on both sides ran on neither
    and is counted, not paired."""
    remaining: dict[str, list[QueryRecord]] = {}
    for record in current.queries:
        remaining.setdefault(record.name, []).append(record)
    pairs: list[tuple[QueryRecord, QueryRecord]] = []
    unmatched: list[str] = []
    shed_both = 0
    for record in baseline.queries:
        bucket = remaining.get(record.name)
        if bucket:
            match = bucket.pop(0)
            if record.status == match.status == "shed":
                shed_both += 1
            else:
                pairs.append((record, match))
        else:
            unmatched.append(record.name or record.query_id)
    for bucket in remaining.values():
        unmatched.extend(
            record.name or record.query_id for record in bucket
        )
    return pairs, unmatched, shed_both


def diagnose(
    baseline: HistoryStore,
    current: HistoryStore,
    regression_threshold: float = DEFAULT_REGRESSION_THRESHOLD,
    metrics=None,
) -> DoctorReport:
    """Compare two loaded histories; optionally count findings into a
    :class:`~repro.obs.metrics.MetricsRegistry`."""
    pairs, unmatched, shed_both = _pair_queries(baseline, current)
    report = DoctorReport(
        baseline_path=baseline.files[0] if baseline.files else "?",
        current_path=current.files[0] if current.files else "?",
        regression_threshold=regression_threshold,
        unmatched=unmatched,
        shed_both=shed_both,
    )
    total_findings = 0
    for record_a, record_b in pairs:
        diagnosis = QueryDiagnosis(
            name=record_a.name or record_a.query_id,
            baseline_seconds=record_a.sim_seconds,
            current_seconds=record_b.sim_seconds,
        )
        if diagnosis.slowdown > regression_threshold:
            diagnosis.findings = diagnose_pair(record_a, record_b)
            total_findings += len(diagnosis.findings)
        report.diagnoses.append(diagnosis)
    if metrics is not None and total_findings:
        metrics.inc("doctor.findings", total_findings)
    return report


def diagnose_logs(
    log_a,
    log_b,
    regression_threshold: float = DEFAULT_REGRESSION_THRESHOLD,
    metrics=None,
) -> DoctorReport:
    """Convenience wrapper over paths: load, then :func:`diagnose`."""
    return diagnose(
        HistoryStore.load(log_a),
        HistoryStore.load(log_b),
        regression_threshold=regression_threshold,
        metrics=metrics,
    )


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.doctor",
        description=(
            "Diff two event logs of the same query corpus and rank "
            "evidence-backed root causes for each regression."
        ),
    )
    parser.add_argument("log_a", help="baseline event log (file or dir)")
    parser.add_argument("log_b", help="current event log (file or dir)")
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_REGRESSION_THRESHOLD,
        help=(
            "relative slowdown that counts as a regression "
            "(default: %(default)s)"
        ),
    )
    parser.add_argument(
        "--report", help="also write the rendered report to this file"
    )
    args = parser.parse_args(argv)
    try:
        report = diagnose_logs(
            args.log_a, args.log_b, regression_threshold=args.threshold
        )
    except (FileNotFoundError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    text = report.render()
    print(text)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
