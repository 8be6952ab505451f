"""EXPLAIN ANALYZE plan-quality acceptance harness (PR 10 tentpole).

For every TPC-H and Pavlo workload query, in both vectorize modes, the
EXPLAIN ANALYZE output must carry a plan-quality section with one
``est N (source) / actual M rows, q-error X`` line per planned operator
— no unknown actuals — and across the corpus the audit must flag at
least one known misestimate (the default selectivity guesses are
deliberately crude; the Pavlo aggregation group-count guesses miss by
orders of magnitude).
"""

from __future__ import annotations

import re
from dataclasses import replace

import pytest

from repro import SharkContext
from repro.datatypes import BOOLEAN
from repro.workloads import pavlo, tpch

from tests.sql.test_vectorized_parity import QUERIES, _datasets

PROFILE_LINE = re.compile(
    r"^  \S.* \[[a-z]+.*\]: est (\d+|\?) \(\w+\) / actual (\d+) rows"
)


@pytest.fixture(scope="module")
def shark():
    context = SharkContext(num_workers=4, cores_per_worker=2)
    for name, data in _datasets().items():
        context.create_table(name, data.schema, cached=True)
        context.load_rows(name, data.rows, num_partitions=4)
    context.register_udf(
        "SOME_UDF", lambda addr: addr.endswith("7"), return_type=BOOLEAN
    )
    return context


def _profile_section(text: str) -> list[str]:
    lines = text.splitlines()
    try:
        start = lines.index("  == plan quality (est vs actual) ==")
    except ValueError:
        return []
    section = []
    for line in lines[start + 1:]:
        if line.startswith("  == ") or not line.startswith("  "):
            break
        if line.startswith("  audit:") or line.startswith("  -- "):
            break
        section.append(line)
    return section


@pytest.mark.parametrize("vectorize", [True, False], ids=["vec", "row"])
@pytest.mark.parametrize("name", sorted(QUERIES))
def test_every_operator_reports_est_and_actual(shark, name, vectorize):
    shark.session.config = replace(
        shark.session.config, vectorize=vectorize
    )
    text = shark.explain_analyze(QUERIES[name].rstrip())
    section = _profile_section(text)
    assert section, f"{name}: no plan-quality section in:\n{text}"
    for line in section:
        assert PROFILE_LINE.match(line), (
            f"{name}: malformed profile line {line!r}"
        )
        # Every operator's runtime count must have been observed:
        # 'actual ? rows' means a stamp never reached its operator.
        assert "actual ? rows" not in line, f"{name}: {line!r}"
    # Mode truth: row mode must stamp no vectorized operators, and the
    # default mode must vectorize at least the scan somewhere.
    joined = "\n".join(section)
    if not vectorize:
        assert "[vectorized" not in joined, f"{name}:\n{joined}"
    # The same query run in either mode observes the same actuals for
    # the scan (first profile line) — counting is mode-independent.


def test_corpus_flags_at_least_one_misestimate(shark):
    shark.session.config = replace(shark.session.config, vectorize=True)
    flagged_queries = []
    for name in sorted(QUERIES):
        text = shark.explain_analyze(QUERIES[name].rstrip())
        if "** misestimate" in text:
            assert "  audit:" in text
            flagged_queries.append(name)
    assert flagged_queries, (
        "the default selectivity guesses flagged nothing — the audit "
        "has no teeth"
    )


def test_actuals_agree_across_modes(shark):
    """The counting side is planner-mode-independent: scan and filter
    actuals match between vectorized and row execution."""
    for name in ("tpch_q6", "pavlo_selection"):
        actuals = {}
        for vectorize in (True, False):
            shark.session.config = replace(
                shark.session.config, vectorize=vectorize
            )
            shark.sql(QUERIES[name].rstrip())
            report = shark.session.last_report
            from repro.obs.planquality import (
                actual_rows_from_profiles,
                build_operator_profiles,
            )

            profiles = build_operator_profiles(
                report.operator_stamps,
                actual_rows_from_profiles(shark.engine.profiles),
            )
            actuals[vectorize] = {
                row["operator"]: row["actual_rows"]
                for row in profiles
                if row["operator"].startswith(("scan(", "filter"))
            }
        assert actuals[True] == actuals[False], name
