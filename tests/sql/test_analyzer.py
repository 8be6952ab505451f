"""Analyzer: resolution, scoping, aggregate validation, error messages."""

from datetime import date

import pytest

from repro import SharkContext
from repro.baselines.hive import HiveExecutor
from repro.datatypes import DOUBLE, INT, STRING, Schema
from repro.errors import AnalysisError, CatalogError

from tests.oracle import assert_rows_match, sqlite_rows


@pytest.fixture
def shark():
    shark = SharkContext(num_workers=2)
    shark.create_table(
        "t", Schema.of(("a", INT), ("b", STRING), ("c", DOUBLE)), cached=True
    )
    shark.load_rows("t", [(1, "x", 1.5), (2, "y", 2.5)])
    shark.create_table(
        "u", Schema.of(("a", INT), ("d", STRING)), cached=True
    )
    shark.load_rows("u", [(1, "q")])
    return shark


class TestResolutionErrors:
    def test_unknown_table(self, shark):
        with pytest.raises(CatalogError, match="no such table"):
            shark.sql("SELECT * FROM missing")

    def test_unknown_column_lists_available(self, shark):
        with pytest.raises(AnalysisError, match="available"):
            shark.sql("SELECT nope FROM t")

    def test_unknown_qualifier(self, shark):
        with pytest.raises(AnalysisError):
            shark.sql("SELECT z.a FROM t")

    def test_ambiguous_column_in_join(self, shark):
        with pytest.raises(AnalysisError, match="ambiguous"):
            shark.sql("SELECT a FROM t JOIN u ON t.a = u.a")

    def test_qualified_disambiguation_works(self, shark):
        result = shark.sql("SELECT t.a FROM t JOIN u ON t.a = u.a")
        assert result.rows == [(1,)]

    def test_unknown_function(self, shark):
        with pytest.raises(AnalysisError, match="unknown function"):
            shark.sql("SELECT frobnicate(a) FROM t")

    def test_wrong_arity(self, shark):
        # Above a GROUP BY too: the call is checked when it binds, not
        # left to fail in a task.
        for query in (
            "SELECT SUBSTR(b) FROM t",
            "SELECT a, ABS(SUM(c), 1) FROM t GROUP BY a",
        ):
            with pytest.raises(AnalysisError, match="arguments"):
                shark.sql(query)

    def test_unknown_star_qualifier(self, shark):
        with pytest.raises(AnalysisError):
            shark.sql("SELECT z.* FROM t")


class TestAggregateValidation:
    def test_non_grouped_column_rejected(self, shark):
        with pytest.raises(AnalysisError, match="GROUP BY"):
            shark.sql("SELECT b, COUNT(*) FROM t GROUP BY a")

    def test_aggregate_in_where_rejected(self, shark):
        with pytest.raises(AnalysisError, match="WHERE"):
            shark.sql("SELECT a FROM t WHERE SUM(a) > 1")

    def test_having_without_group_needs_aggregate_select(self, shark):
        # HAVING with a global aggregate is legal.
        result = shark.sql("SELECT COUNT(*) FROM t HAVING COUNT(*) > 0")
        assert result.scalar() == 2

    @pytest.mark.parametrize(
        "having", ["'y' LIKE MAX(b)", "MAX(b) LIKE 'y'"]
    )
    def test_aggregate_on_either_side_of_like(self, shark, having):
        # An aggregate is found wherever it sits in an expression: the
        # pattern of a LIKE used to be skipped ("unresolved aggregate").
        result = shark.sql(f"SELECT a FROM t GROUP BY a HAVING {having}")
        assert result.rows == [(2,)]

    def test_aggregate_in_like_pattern_rejected_in_where(self, shark):
        with pytest.raises(AnalysisError, match="WHERE"):
            shark.sql("SELECT a FROM t WHERE 'y' LIKE MAX(b)")

    def test_star_only_in_count(self, shark):
        with pytest.raises(AnalysisError):
            shark.sql("SELECT SUM(*) FROM t")

    def test_group_by_position_out_of_range(self, shark):
        with pytest.raises(AnalysisError, match="position"):
            shark.sql("SELECT a FROM t GROUP BY 5")

    def test_order_by_position_out_of_range(self, shark):
        with pytest.raises(AnalysisError, match="position"):
            shark.sql("SELECT a FROM t ORDER BY 3")

    def test_group_by_alias(self, shark):
        result = shark.sql(
            "SELECT a % 2 AS parity, COUNT(*) FROM t GROUP BY parity"
        )
        assert sorted(result.rows) == [(0, 1), (1, 1)]

    def test_qualified_group_key_matches_bare_select(self, shark):
        result = shark.sql("SELECT a, COUNT(*) FROM t GROUP BY t.a")
        assert sorted(result.rows) == [(1, 1), (2, 1)]


class TestScoping:
    def test_subquery_alias_scopes_columns(self, shark):
        result = shark.sql(
            "SELECT sub.x FROM (SELECT a AS x FROM t) sub WHERE sub.x = 2"
        )
        assert result.rows == [(2,)]

    def test_outer_cannot_see_inner_alias(self, shark):
        with pytest.raises(AnalysisError):
            shark.sql("SELECT t.a FROM (SELECT a FROM t) sub")

    def test_table_alias_hides_table_name(self, shark):
        result = shark.sql("SELECT x.a FROM t AS x WHERE x.a = 1")
        assert result.rows == [(1,)]

    def test_duplicate_output_names_deduplicated(self, shark):
        result = shark.sql("SELECT a, a FROM t WHERE a = 1")
        assert len(set(result.column_names)) == 2


G_COLUMNS = ("k", "x", "s")
G_ROWS = [
    (f"k{i % 4}", None if i % 7 == 3 else i % 5, f"2024-0{1 + i % 9}-1{i}")
    for i in range(10)
]


@pytest.fixture(scope="module")
def grouped():
    shark = SharkContext(num_workers=2)
    shark.create_table(
        "g", Schema.of(("k", STRING), ("x", INT), ("s", STRING)), cached=True
    )
    shark.load_rows("g", G_ROWS)
    return shark


class TestPostAggregateBinding:
    """Above an Aggregate, expressions bind through the same switch as
    below it: casts, calls and errors do not depend on the scope."""

    @pytest.mark.parametrize(
        "query",
        [
            "SELECT k FROM g GROUP BY k ORDER BY MIN(s)",
            "SELECT k, COUNT(*) FROM g GROUP BY k ORDER BY MAX(s) DESC",
            "SELECT k FROM g GROUP BY k HAVING SUM(x) > 2 "
            "ORDER BY SUM(x) + COUNT(x) DESC, k",
        ],
    )
    def test_order_by_aggregate_outside_select_list(self, grouped, query):
        assert_rows_match(
            grouped.sql(query).rows,
            sqlite_rows(query, {"g": (G_COLUMNS, G_ROWS)}),
            ordered=True,
            context=query,
        )

    def test_cast_to_date_whatever_the_scope(self, grouped):
        for query in (
            "SELECT CAST(s AS DATE) FROM g WHERE k = 'k1'",
            "SELECT k, CAST(MIN(s) AS DATE) FROM g GROUP BY k",
        ):
            values = [row[-1] for row in grouped.sql(query).rows]
            assert values and all(type(v) is date for v in values), query


class TestUnionValidation:
    def test_mismatched_width_rejected(self, shark):
        with pytest.raises(AnalysisError, match="UNION"):
            shark.sql("SELECT a FROM t UNION ALL SELECT a, d FROM u")


#: Strings that do not all convert, and what CAST makes of each.
_CAST_INPUTS = ["a", "1", "2024-02-29", None, "2024-13-01", " 7 "]
_CAST_OUTPUTS = {
    "INT": [None, 1, None, None, None, 7],
    "BIGINT": [None, 1, None, None, None, 7],
    "DOUBLE": [None, 1.0, None, None, None, 7.0],
    "DATE": [None, None, date(2024, 2, 29), None, None, None],
}


class TestMalformedCast:
    """A value a CAST cannot convert is NULL, as in Hive, and the query
    goes on.  sqlite's CAST answers 0 for such a value, so none of these
    goes to the oracle."""

    @pytest.fixture
    def casts(self):
        shark = SharkContext(num_workers=2)
        shark.create_table("c", Schema.of(("k", STRING)), cached=True)
        shark.load_rows("c", [(k,) for k in _CAST_INPUTS])
        return shark

    @pytest.mark.parametrize("target", sorted(_CAST_OUTPUTS))
    def test_column_and_constant(self, casts, target):
        query = f"SELECT k, CAST(k AS {target}) FROM c"
        want = list(zip(_CAST_INPUTS, _CAST_OUTPUTS[target]))
        assert sorted(casts.sql(query).rows, key=repr) == sorted(
            want, key=repr
        )
        # The Hive baseline binds through the same analyzer.
        hive = HiveExecutor(casts.session)
        assert sorted(hive.execute(query).rows, key=repr) == sorted(
            want, key=repr
        )
        for value, cast in zip(_CAST_INPUTS, _CAST_OUTPUTS[target]):
            if value is not None:
                constant = f"SELECT CAST('{value}' AS {target})"
                assert casts.sql(constant).rows == [(cast,)], constant
                assert hive.execute(constant).rows == [(cast,)], constant


class TestConstantQueries:
    def test_select_without_from(self, shark):
        assert shark.sql("SELECT 1 + 2").scalar() == 3

    def test_constant_functions(self, shark):
        assert shark.sql("SELECT UPPER('abc')").scalar() == "ABC"
