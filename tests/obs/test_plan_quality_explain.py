"""EXPLAIN ANALYZE plan-quality acceptance harness (PR 10 tentpole).

For every TPC-H and Pavlo workload query, over cached tables' column
blocks and over external tables' text rows, the EXPLAIN ANALYZE output must carry a plan-quality section with one
``est N (source) / actual M rows, q-error X`` line per planned operator
— no unknown actuals — and across the corpus the audit must flag at
least one known misestimate (the default selectivity guesses are
deliberately crude; the Pavlo aggregation group-count guesses miss by
orders of magnitude).
"""

from __future__ import annotations

import re

import pytest

from repro import SharkContext
from repro.datatypes import BOOLEAN

from tests.sql.test_vectorized_parity import QUERIES, _datasets

PROFILE_LINE = re.compile(
    r"^  \S.* \[[a-z]+.*\]: est (\d+|\?) \(\w+\) / actual (\d+) rows"
)


def _context(cached: bool = True, compress: bool = True) -> SharkContext:
    context = SharkContext(num_workers=4, cores_per_worker=2)
    properties = None if compress else {"shark.compress": "false"}
    for name, data in _datasets().items():
        context.create_table(
            name, data.schema, cached=cached, properties=properties
        )
        context.load_rows(name, data.rows, num_partitions=4)
    context.register_udf(
        "SOME_UDF", lambda addr: addr.endswith("7"), return_type=BOOLEAN
    )
    return context


@pytest.fixture(scope="module")
def shark():
    return _context()


@pytest.fixture(scope="module")
def sharks(shark):
    """Cached tables ("vec") and external ones ("row")."""
    return {True: shark, False: _context(cached=False)}


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


@pytest.mark.parametrize("cached", [True, False], ids=["vec", "row"])
@pytest.mark.parametrize("name", sorted(QUERIES))
def test_every_operator_reports_est_and_actual(sharks, name, cached):
    text = sharks[cached].explain_analyze(QUERIES[name].rstrip())
    section = _profile_section(text)
    assert section, f"{name}: no plan-quality section in:\n{text}"
    for line in section:
        assert PROFILE_LINE.match(line), (
            f"{name}: malformed profile line {line!r}"
        )
        # Every operator's runtime count must have been observed:
        # 'actual ? rows' means a stamp never reached its operator.
        assert "actual ? rows" not in line, f"{name}: {line!r}"
    # The kernels run every operator, whatever the scan's source.
    joined = "\n".join(section)
    assert "[vectorized" in joined, f"{name}:\n{joined}"


def test_corpus_flags_at_least_one_misestimate(shark):
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


def test_actuals_agree_across_modes():
    """The counting side is storage-independent: scan and filter actuals
    match between compressed (dictionary-coded) and plain tables."""
    for name in ("tpch_q6", "pavlo_selection"):
        actuals = {}
        for compress in (True, False):
            context = _context(compress=compress)
            context.sql(QUERIES[name].rstrip())
            report = context.session.last_report
            from repro.obs.planquality import (
                actual_rows_from_profiles,
                build_operator_profiles,
            )

            profiles = build_operator_profiles(
                report.operator_stamps,
                actual_rows_from_profiles(context.engine.profiles),
            )
            actuals[compress] = {
                row["operator"]: row["actual_rows"]
                for row in profiles
                if row["operator"].startswith(("scan(", "filter"))
            }
        assert actuals[True] == actuals[False], name
