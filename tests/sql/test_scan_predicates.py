"""Scan predicates: one evaluator.

A cached scan's predicate is the batch chain's first filter, run by the
vector kernels — there is no second, scan-private evaluator.  The
contract checked here: the kernels return exactly the rows a plain
Python evaluation of the predicate keeps (a NULL operand is never TRUE,
in a BOOLEAN column like in any other), and an ordering Python cannot
evaluate is rejected at bind time with the same ``TypeMismatchError``
whatever the table kind.  The NULL
rules of the kernels' keep-masks are also pinned directly, one block at
a time.
"""

import random
from collections import Counter
from datetime import date, timedelta

import pytest
from hypothesis import given, settings, strategies as st

from repro import SharkContext
from repro.columnar import ColumnarPartition
from repro.columnar.batch import ColumnBatch
from repro.datatypes import (
    BOOLEAN,
    DATE,
    DOUBLE,
    INT,
    STRING,
    ArrayType,
    Schema,
)
from repro.errors import TypeMismatchError
from repro.sql.codegen import compile_vector_predicate
from repro.sql.expressions import (
    BoundBetween,
    BoundColumn,
    BoundComparison,
    BoundIn,
    BoundIsNull,
    BoundLiteral,
)

T_SCHEMA = Schema.of(("a", INT), ("b", STRING), ("c", DOUBLE))
U_SCHEMA = Schema.of(
    ("k", INT),
    ("s", STRING),
    ("d", DATE),
    ("f", BOOLEAN),
    ("tags", ArrayType(element_type=STRING)),
)
DAY0 = date(2000, 1, 1)


def _t_rows():
    rng = random.Random(7)
    rows = []
    for i in range(600):
        c = None if i % 9 == 0 else round(rng.uniform(0, 100), 2)
        b = None if i % 13 == 0 else rng.choice(["x", "y", "z"])
        rows.append((rng.randint(0, 40), b, c))
    return rows


def _u_rows():
    return [
        (
            i,
            None if i % 5 == 0 else f"w{i % 13:02d}",
            None if i % 7 == 0 else DAY0 + timedelta(days=i % 40),
            None if i % 4 == 0 else i % 3 == 0,
            # Equal-length arrays: a naive object-array conversion of
            # this column would come out two-dimensional.
            [f"t{i % 3}", "u"],
        )
        for i in range(300)
    ]


@pytest.fixture(scope="module")
def shark():
    """Cached ``t``/``u`` and their external twins ``t_ext``/``u_ext``."""
    context = SharkContext(num_workers=2)
    for name, schema, rows in (
        ("t", T_SCHEMA, _t_rows()),
        ("u", U_SCHEMA, _u_rows()),
    ):
        for table, cached in ((name, True), (f"{name}_ext", False)):
            context.create_table(table, schema, cached=cached)
            context.load_rows(table, rows, num_partitions=3)
    return context


def _check(context, query, want):
    """The engine agrees with the Python answer."""
    got = sorted(context.sql(query).rows, key=repr)
    assert got == sorted(want, key=repr), query


def _case(name, query, keep, select=lambda row: (row[0],)):
    return pytest.param(query, keep, select, id=name)


#: (query over ``t(a, b, c)``, Python predicate, Python SELECT list).
T_CASES = [
    _case("gt", "SELECT a FROM t WHERE a > 20", lambda r: r[0] > 20),
    _case(
        "range_and",
        "SELECT a FROM t WHERE a >= 20 AND a <= 30",
        lambda r: 20 <= r[0] <= 30,
    ),
    _case(
        "string_eq",
        "SELECT a, b FROM t WHERE b = 'x'",
        lambda r: r[1] == "x",
        lambda r: (r[0], r[1]),
    ),
    _case(
        "string_ne",
        "SELECT a FROM t WHERE b <> 'x'",
        lambda r: r[1] is not None and r[1] != "x",
    ),
    _case(
        "between",
        "SELECT a FROM t WHERE a BETWEEN 5 AND 15",
        lambda r: 5 <= r[0] <= 15,
    ),
    _case(
        "string_in",
        "SELECT a FROM t WHERE b IN ('x', 'z')",
        lambda r: r[1] in ("x", "z"),
    ),
    _case(
        "is_null", "SELECT a FROM t WHERE c IS NULL", lambda r: r[2] is None
    ),
    _case(
        "not_null_and_lt",
        "SELECT a FROM t WHERE c IS NOT NULL AND c < 50",
        lambda r: r[2] is not None and r[2] < 50,
    ),
    _case("literal_left", "SELECT a FROM t WHERE 25 < a", lambda r: 25 < r[0]),
    _case(
        "three_conjuncts",
        "SELECT a FROM t WHERE a = 7 AND b = 'y' AND c > 10",
        lambda r: r[0] == 7 and r[1] == "y" and r[2] is not None and r[2] > 10,
    ),
    _case(
        "int_vs_double_literal",
        "SELECT a FROM t WHERE a = 3.0 OR a BETWEEN 2.5 AND 4.5",
        lambda r: r[0] == 3.0 or 2.5 <= r[0] <= 4.5,
    ),
    _case("null_literal", "SELECT a FROM t WHERE b > NULL", lambda r: False),
]

_LOW, _HIGH = DAY0 + timedelta(days=10), DAY0 + timedelta(days=20)

#: Same over ``u(k, s, d, f, tags)``: list-backed STRING/DATE columns and
#: a BOOLEAN one, all with NULLs, under every comparison shape.
U_CASES = [
    _case(
        "string_lt",
        "SELECT k FROM u WHERE s < 'w05'",
        lambda r: r[1] is not None and r[1] < "w05",
    ),
    _case(
        "string_literal_left",
        "SELECT k FROM u WHERE 'w05' <= s",
        lambda r: r[1] is not None and "w05" <= r[1],
    ),
    _case(
        "string_between",
        "SELECT k FROM u WHERE s BETWEEN 'w03' AND 'w08'",
        lambda r: r[1] is not None and "w03" <= r[1] <= "w08",
    ),
    _case(
        "string_not_between",
        "SELECT k FROM u WHERE s NOT BETWEEN 'w03' AND 'w08'",
        lambda r: r[1] is not None and not "w03" <= r[1] <= "w08",
    ),
    _case(
        "string_ne",
        "SELECT k FROM u WHERE s <> 'w04'",
        lambda r: r[1] is not None and r[1] != "w04",
    ),
    _case(
        "string_in",
        "SELECT k FROM u WHERE s IN ('w01', 'w12', 'nope')",
        lambda r: r[1] in ("w01", "w12"),
    ),
    _case(
        "date_lt",
        "SELECT k FROM u WHERE d < DATE '2000-01-11'",
        lambda r: r[2] is not None and r[2] < _LOW,
    ),
    _case(
        "date_literal_left",
        "SELECT k FROM u WHERE DATE '2000-01-11' < d",
        lambda r: r[2] is not None and _LOW < r[2],
    ),
    _case(
        "date_between",
        "SELECT k FROM u "
        "WHERE d BETWEEN DATE '2000-01-11' AND DATE '2000-01-21'",
        lambda r: r[2] is not None and _LOW <= r[2] <= _HIGH,
    ),
    _case(
        "date_not_between",
        "SELECT k FROM u "
        "WHERE d NOT BETWEEN DATE '2000-01-11' AND DATE '2000-01-21'",
        lambda r: r[2] is not None and not _LOW <= r[2] <= _HIGH,
    ),
    _case(
        "date_ne",
        "SELECT k FROM u WHERE d <> DATE '2000-01-11'",
        lambda r: r[2] is not None and r[2] != _LOW,
    ),
    _case(
        "date_in",
        "SELECT k FROM u WHERE d IN (DATE '2000-01-11', DATE '2000-01-21')",
        lambda r: r[2] in (_LOW, _HIGH),
    ),
    _case(
        "date_and_string",
        "SELECT k FROM u WHERE d >= DATE '2000-01-11' AND s < 'w05'",
        lambda r: r[2] is not None and r[2] >= _LOW
        and r[1] is not None and r[1] < "w05",
    ),
    _case(
        "boolean_eq", "SELECT k FROM u WHERE f = TRUE", lambda r: r[3] is True
    ),
    _case(
        "boolean_ne",
        "SELECT k FROM u WHERE f <> TRUE",
        lambda r: r[3] is False,
    ),
    _case(
        "boolean_lt",
        "SELECT k FROM u WHERE f < TRUE",
        lambda r: r[3] is not None and r[3] < True,
    ),
    _case(
        "boolean_between",
        "SELECT k FROM u WHERE f BETWEEN FALSE AND FALSE",
        lambda r: r[3] is not None and False <= r[3] <= False,
    ),
    _case(
        "boolean_in",
        "SELECT k FROM u WHERE f IN (TRUE)",
        lambda r: r[3] is True,
    ),
    _case(
        "boolean_is_null",
        "SELECT k, f FROM u WHERE f IS NULL",
        lambda r: r[3] is None,
        lambda r: (r[0], r[3]),
    ),
    _case(
        "boolean_is_not_null",
        "SELECT k, f FROM u WHERE f IS NOT NULL",
        lambda r: r[3] is not None,
        lambda r: (r[0], r[3]),
    ),
    _case(
        "array_beside_compared_column",
        "SELECT k, tags FROM u WHERE s >= 'w10'",
        lambda r: r[1] is not None and r[1] >= "w10",
        lambda r: (r[0], r[4]),
    ),
    _case(
        "array_compared_itself",
        "SELECT k FROM u WHERE tags = 'u' OR k < 3",
        lambda r: r[0] < 3,
    ),
]


class TestModesMatchPython:
    @pytest.mark.parametrize("query, keep, select", T_CASES)
    def test_numeric_and_string_table(self, shark, query, keep, select):
        _check(shark, query, [select(r) for r in _t_rows() if keep(r)])

    @pytest.mark.parametrize("query, keep, select", U_CASES)
    def test_list_backed_columns(self, shark, query, keep, select):
        want = [select(r) for r in _u_rows() if keep(r)]
        _check(shark, query, want)
        _check(shark, query.replace(" u ", " u_ext "), want)

    def test_group_by_nullable_boolean(self, shark):
        # Three groups: a NULL in a BOOLEAN column is its own group, not
        # FALSE (the bitset used to have no room for it).
        counts = Counter(r[3] for r in _u_rows())
        want = [(value, count) for value, count in counts.items()]
        assert len(want) == 3
        for table in ("u", "u_ext"):
            _check(
                shark, f"SELECT f, COUNT(*) FROM {table} GROUP BY f", want
            )

    def test_predicate_runs_in_the_kernels(self, shark):
        result = shark.sql("SELECT a FROM t WHERE a > 20 AND b = 'x'")
        modes = dict(result.report.operator_modes)
        assert modes["filter"] == "vectorized"
        assert not any("vectorized" in note for note in result.report.notes)

    def test_udf_conjunct(self, shark):
        shark.register_udf("oddish", lambda v: v % 2 == 1)
        _check(
            shark,
            "SELECT a FROM t WHERE a > 20 AND oddish(a)",
            [(r[0],) for r in _t_rows() if r[0] > 20 and r[0] % 2 == 1],
        )


class TestKernelMasks:
    """The NULL rules of the keep-mask, kernel by kernel, over one block
    (what the deleted scan-private masks used to be unit-tested for)."""

    schema = Schema.of(("n", INT), ("s", STRING))

    def _mask(self, rows, build):
        block = ColumnarPartition.from_rows(self.schema, rows)
        n, s = (
            BoundColumn(i, field.data_type, field.name)
            for i, field in enumerate(self.schema.fields)
        )
        kernel, interpreted = compile_vector_predicate(build(n, s))
        assert interpreted == 0
        return kernel(ColumnBatch.from_block(block, [0, 1])).tolist()

    def test_cmp_on_primitive_array(self):
        mask = self._mask(
            [(i, "a") for i in range(10)],
            lambda n, s: BoundComparison(">", n, BoundLiteral(6, INT)),
        )
        assert mask == [False] * 7 + [True] * 3

    def test_null_string_excluded_from_not_equals(self):
        mask = self._mask(
            [(1, "x"), (2, None), (3, "y")],
            lambda n, s: BoundComparison("<>", s, BoundLiteral("x", STRING)),
        )
        assert mask == [False, False, True]

    def test_null_string_excluded_from_ordering(self):
        # One object-array comparison over the non-NULL positions.
        mask = self._mask(
            [(1, "x"), (2, None), (3, "z")],
            lambda n, s: BoundComparison("<", s, BoundLiteral("y", STRING)),
        )
        assert mask == [True, False, False]

    def test_in_with_nulls(self):
        mask = self._mask(
            [(1, "x"), (2, None), (3, "z")],
            lambda n, s: BoundIn(
                s, [BoundLiteral("x", STRING), BoundLiteral("z", STRING)]
            ),
        )
        assert mask == [True, False, True]

    def test_isnull_and_notnull(self):
        rows = [(1, "x"), (2, None)]
        assert self._mask(rows, lambda n, s: BoundIsNull(s)) == [False, True]
        assert self._mask(
            rows, lambda n, s: BoundIsNull(s, negated=True)
        ) == [True, False]

    def test_isnull_on_primitive_is_all_false(self):
        mask = self._mask(
            [(1, "x"), (2, "y")], lambda n, s: BoundIsNull(n)
        )
        assert mask == [False, False]

    def test_between(self):
        mask = self._mask(
            [(i, "a") for i in range(6)],
            lambda n, s: BoundBetween(
                n, BoundLiteral(2, INT), BoundLiteral(4, INT)
            ),
        )
        assert mask == [False, False, True, True, True, False]


class TestIncomparableOrderings:
    """``str < int`` has no answer: every table kind and mode refuses the
    query at bind time, instead of an empty result from one path and
    four retried task failures from another."""

    QUERIES = [
        pytest.param("SELECT a FROM {t} WHERE b > 5", id="string_vs_int"),
        pytest.param("SELECT a FROM {t} WHERE a > 'x'", id="int_vs_string"),
        pytest.param(
            "SELECT k FROM {u} WHERE d > '2000-02-01'", id="date_vs_string"
        ),
        pytest.param(
            "SELECT k FROM {u} WHERE d BETWEEN '2000-01-01' AND '2000-02-01'",
            id="date_between_strings",
        ),
        pytest.param(
            "SELECT b, COUNT(*) FROM {t} GROUP BY b HAVING b < 5",
            id="rebound_group_key",
        ),
    ]

    @pytest.mark.parametrize("query", QUERIES)
    def test_same_typed_error_everywhere(self, shark, query):
        messages = set()
        for suffix in ("", "_ext"):
            with pytest.raises(TypeMismatchError) as raised:
                shark.sql(query.format(t=f"t{suffix}", u=f"u{suffix}"))
            messages.add(str(raised.value))
        assert len(messages) == 1, messages

    def test_equality_and_computed_operands_are_left_alone(self, shark):
        # '=' across families is FALSE, not an error; a CAST's declared
        # type is not checked (its value decides at run time).
        _check(shark, "SELECT a FROM t WHERE b = 5", [])
        _check(
            shark,
            "SELECT a FROM t WHERE CAST(a AS STRING) < '2'",
            [(r[0],) for r in _t_rows() if str(r[0]) < "2"],
        )

    def test_estimated_column_types_are_left_alone(self, shark):
        # A UDF registered without a return type is typed STRING; a
        # column carrying its value — an aggregate's output, a subquery's
        # — is a computed operand like the call itself.
        shark.register_udf("twice", lambda v: v * 2)
        spec = shark.session.registry.lookup("twice")
        assert spec.resolve_type([INT]) == STRING
        best = {}
        for a, b, _ in _t_rows():
            best[b] = max(best.get(b, 0), 2 * a)
        _check(
            shark,
            "SELECT b, MAX(twice(a)) FROM t GROUP BY b "
            "HAVING MAX(twice(a)) > 5",
            [(b, m) for b, m in best.items() if m > 5],
        )
        _check(
            shark,
            "SELECT b FROM t GROUP BY b "
            "HAVING MAX(twice(a)) NOT BETWEEN 1 AND 100",
            [(b,) for b, m in best.items() if not 1 <= m <= 100],
        )
        _check(
            shark,
            "SELECT x FROM (SELECT twice(a) AS x FROM t) s WHERE x > 70",
            [(2 * r[0],) for r in _t_rows() if 2 * r[0] > 70],
        )


class TestPropertyEquivalence:
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 30),
                st.one_of(st.none(), st.sampled_from(["x", "y"])),
            ),
            min_size=1,
            max_size=60,
        ),
        st.integers(0, 30),
        st.sampled_from(["=", "<>", "<", ">="]),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_data_equivalence(self, rows, cutoff, op):
        context = SharkContext(num_workers=2)
        context.create_table(
            "p", Schema.of(("n", INT), ("s", STRING)), cached=True
        )
        context.load_rows("p", rows)
        compare = {
            "=": lambda s: s == "x",
            "<>": lambda s: s != "x",
            "<": lambda s: s < "y",
            ">=": lambda s: s >= "y",
        }[op]
        literal = "'x'" if op in ("=", "<>") else "'y'"
        _check(
            context,
            f"SELECT n FROM p WHERE n >= {cutoff} AND s {op} {literal}",
            [
                (n,) for n, s in rows
                if n >= cutoff and s is not None and compare(s)
            ],
        )
