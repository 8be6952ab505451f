"""Dictionary-domain execution: evaluate once per distinct value.

A dictionary-encoded column enters a batch as codes plus a small
dictionary (``CodedVector``).  A kernel whose other operands are
constants runs on the dictionary entries and shares the codes; GROUP BY
factorizes each key column and combines the ids.  Neither may change an
answer, so everything here is a three-way comparison: the kernel over a
coded operand == the same kernel over the decoded operand ==
``BoundExpr.eval`` per row; ``_group_ids`` == a literal per-row dict
probe kept below as the reference.  UDFs, which nothing declares
deterministic, must still see every row.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

_ROOT = Path(__file__).resolve().parents[2]
if str(_ROOT) not in sys.path:  # ``benchmarks.perf`` lives beside ``tests``
    sys.path.insert(0, str(_ROOT))

from benchmarks.perf import datagen, queries  # noqa: E402
from repro import SharkContext  # noqa: E402
from repro.columnar import ColumnarPartition  # noqa: E402
from repro.columnar.analysis import numpy_dtype_for  # noqa: E402
from repro.columnar.batch import CodedVector, ColumnBatch, Vector  # noqa: E402
from repro.datatypes import (  # noqa: E402
    BOOLEAN,
    DATE,
    DOUBLE,
    INT,
    STRING,
    ArrayType,
    Schema,
)
from repro.engine.rdd import BlockListRDD, TableBlock  # noqa: E402
from repro.obs.metrics import MetricsRegistry  # noqa: E402
from repro.sql import functions, physical  # noqa: E402
from repro.sql.analyzer import Analyzer, Scope  # noqa: E402
from repro.sql.catalog import Catalog  # noqa: E402
from repro.sql.codegen import (  # noqa: E402
    compile_vector_expression,
    compile_vector_predicate,
)
from repro.sql.expressions import (  # noqa: E402
    BoundAnd,
    BoundArithmetic,
    BoundBetween,
    BoundCase,
    BoundCast,
    BoundComparison,
    BoundIn,
    BoundIsNull,
    BoundLike,
    BoundLiteral,
    BoundNegate,
    BoundNot,
    BoundOr,
    BoundScalarCall,
)
from repro.sql.functions import FunctionRegistry  # noqa: E402
from repro.sql.parser import parse_expression  # noqa: E402
from repro.sql.physical import BatchAggregator  # noqa: E402

from tests.oracle import assert_rows_match, sqlite_rows  # noqa: E402
from tests.sql.test_vectorized_parity import (  # noqa: E402
    QUERIES,
    _build,
    assert_byte_identical,
)

DAY0 = date(2000, 1, 1)
NAN = float("nan")

#: ``s d i x b`` take NULLs (so NULL is a dictionary entry); ``j y`` do
#: not (their dictionaries are typed arrays, ``y`` with a NaN); ``tags``
#: is an ARRAY column and ``n`` a plain array column beside the coded ones.
SCHEMA = Schema.of(
    ("s", STRING),
    ("d", DATE),
    ("i", INT),
    ("x", DOUBLE),
    ("b", BOOLEAN),
    ("j", INT),
    ("y", DOUBLE),
    ("tags", ArrayType(element_type=STRING)),
    ("n", INT),
)
CODED = 7  # the first seven columns

_POOLS = (
    st.sampled_from([None, "a", "ab", "b", "c", "zz"]),
    st.sampled_from([None] + [DAY0 + timedelta(days=k) for k in range(5)]),
    st.sampled_from([None, 0, 1, 2, 3, 4]),
    st.sampled_from([None, NAN, -0.0, 0.5, 1.5, 4.0]),
    st.sampled_from([None, True, False]),
    st.sampled_from([-1, 0, 2, 5]),
    st.sampled_from([NAN, 0.0, 0.5, 2.5]),
    st.sampled_from([["t", "u"], ["v", "w"]]),
    st.integers(0, 4),
)
ROWS = st.lists(st.tuples(*_POOLS), min_size=1, max_size=40)


def _dense(values, data_type) -> Vector:
    """A decoded block column: typed array when primitive and NULL-free."""
    dtype = numpy_dtype_for(data_type)
    if dtype is not None and None not in values:
        return Vector(np.asarray(values, dtype=dtype))
    return Vector(list(values))


def _coded(values, data_type) -> CodedVector:
    """The same column as the memstore's dictionary encoding holds it."""
    code_of = {value: i for i, value in enumerate(dict.fromkeys(values))}
    codes = np.fromiter(
        map(code_of.__getitem__, values), dtype=np.uint8, count=len(values)
    )
    return CodedVector(codes, _dense(list(code_of), data_type))


def _batches(rows):
    """(coded batch, decoded batch) over the same rows."""
    columns = list(zip(*rows))
    types = [field.data_type for field in SCHEMA.fields]
    dense = [_dense(c, t) for c, t in zip(columns, types)]
    coded = [
        _coded(c, t) for c, t in zip(columns[:CODED], types[:CODED])
    ] + dense[CODED:]
    return ColumnBatch(coded, len(rows)), ColumnBatch(dense, len(rows))


def _bind(text: str, registry: FunctionRegistry = None, schema=SCHEMA):
    analyzer = Analyzer(Catalog(), registry or FunctionRegistry())
    return analyzer.bind(
        parse_expression(text), Scope.from_schema(schema, None)
    )


def _reprs(values):
    return list(map(repr, values))


#: Every kernel kind, constants on either side, over every column type.
EXPRESSIONS = [
    # comparison
    "s = 'b'", "'b' < s", "s <> 'ab'", "s >= 'b'",
    "d >= DATE '2000-01-03'", "DATE '2000-01-03' > d", "d <> DATE '2000-01-02'",
    "i > 2", "3 >= i", "i = 1.0", "x < 1.5", "0.5 <= x", "x <> 4.0",
    "j = 2", "0 < j", "y > 0.4", "2.5 >= y", "b = TRUE", "FALSE <> b",
    "s > NULL",
    # BETWEEN / IN / LIKE / IS NULL
    "s BETWEEN 'ab' AND 'c'", "s NOT BETWEEN 'ab' AND 'c'",
    "d BETWEEN DATE '2000-01-02' AND DATE '2000-01-04'",
    "d NOT BETWEEN DATE '2000-01-02' AND DATE '2000-01-04'",
    "i BETWEEN 1 AND 3", "x NOT BETWEEN 0.0 AND 2.0", "j BETWEEN 0 AND 2",
    "y BETWEEN 0.25 AND 3", "b BETWEEN FALSE AND FALSE",
    "s IN ('a', 'zz', 'nope')", "s NOT IN ('a')",
    "d IN (DATE '2000-01-01', DATE '2000-01-05')", "i IN (1, 4)",
    "j NOT IN (2, 5)", "y IN (0.5, 2.5)", "b IN (TRUE)",
    "i IN (1, NULL)", "j NOT IN (2, NULL)", "s IN ('a', NULL)",
    "d NOT IN (DATE '2000-01-01', NULL)", "i NOT IN (NULL)",
    "s LIKE 'a%'", "s NOT LIKE '%b'", "s LIKE '_'",
    "s IS NULL", "d IS NOT NULL", "i IS NULL", "x IS NOT NULL", "b IS NULL",
    "j IS NULL", "y IS NOT NULL",
    # arithmetic, negation, logic (same-column operands share the codes)
    "i + 1", "10 - i", "i * 2", "i / 2", "i / 0", "7 % j", "j % 2", "-i",
    "-7 % j", "j % -3", "(i - 3) % 2", "x % -2", "-x % 3",
    "-y", "x * 2", "1 - y", "j * 2 + 1", "NOT (i > 2)", "NOT b",
    "s > 'a' AND s < 'c'", "s < 'b' OR s IS NULL", "d IS NULL OR i > 1",
    "i > 1 AND i < 4 AND i <> 2", "b AND TRUE", "b OR NULL",
    # CAST, built-in calls, CASE
    "CAST(i AS STRING)", "CAST(j AS DOUBLE)", "CAST(s AS STRING)",
    "CAST(b AS INT)", "SUBSTR(s, 1, 1)", "SUBSTR(s, 2)", "UPPER(s)",
    "LENGTH(s)", "CONCAT(s, '!')", "COALESCE(s, 'none')", "NVL(i, -1)",
    "YEAR(d)", "DATE_ADD(d, 1)", "ABS(j)", "ROUND(j, 1)", "SQRT(y)", "ISNULL(x)",
    "UPPER(SUBSTR(s, 1, 2))", "SUBSTR(s, 1, 1) = 'a'", "LENGTH(s) + 1 > 2",
    "CASE WHEN s = 'a' THEN 1 WHEN s IS NULL THEN 2 ELSE 3 END",
    "CASE WHEN y > 1 THEN 'big' END",
    "CASE WHEN 1 = 1 THEN 2 END",
    # more than one column: dense evaluation, same answers
    "i > n", "n + j", "s = CAST(n AS STRING)", "COALESCE(s, CAST(i AS STRING))",
    "CASE WHEN i > 2 THEN s ELSE 'z' END", "CONCAT(s, CAST(j AS STRING))",
    "tags IS NOT NULL AND s = 'a'", "i IN (j, 1)", "s LIKE CONCAT(s, '%')",
    # --- operands with no array form: ``apply`` folds or is mapped ---
    # a NULL literal on either side
    "NULL = i", "d > NULL", "i + CAST(NULL AS INT)",
    "CAST(NULL AS DOUBLE) * x", "i BETWEEN NULL AND 3", "x NOT BETWEEN 0 AND NULL", "NULL BETWEEN i AND j",
    "NULL IN (1, 2)", "NULL IS NULL", "-NULL", "NOT NULL", "NULL LIKE 'a%'",
    "UPPER(NULL)",
    # a literal zero divisor
    "j % 0", "x / 0.0", "n / 0", "1 / 0",
    # every operand a literal
    "1 + 2", "7 / 2", "2 * 3 > 5", "2 NOT BETWEEN 1 AND 3", "1 IN (1, 2)",
    "'a' NOT IN ('b')", "CAST('7' AS INT) + i", "CONCAT('a', 'b') = s",
    "'ab' LIKE 'a%'", "-(1 + 1)", "NOT (1 = 1)", "1 IS NULL", "SQRT(4.0) + y",
    # nullable (list-backed when decoded) numbers on both sides
    "i + x", "i * i", "x - i", "i < x", "i = i", "i BETWEEN x AND 4", "-x",
    "i % i", "x / i", "i IN (1, 2.5)",
    # an array operand beside a list-backed one
    "i + n", "n * x", "n > x", "n BETWEEN i AND 4", "x / n", "n % i", "n / j",
    "n < y",
    # NaN
    "x = x", "y <> y", "y BETWEEN y AND y", "x IN (0.5, 4.0)", "y + x",
    "y / y",
    # an ARRAY column beside a scalar one
    "tags = tags", "tags IS NULL OR i > n", "tags = SPLIT('t u', ' ')",
    "SPLIT(s, 'b')", "tags <> SPLIT(s, 'b')",
    "CASE WHEN tags IS NULL THEN s ELSE 'z' END",
]


def _nodes(expr):
    yield expr
    for child in expr.children():
        yield from _nodes(child)


class TestKernelParity:
    @pytest.mark.parametrize("text", EXPRESSIONS)
    @given(rows=ROWS)
    @settings(max_examples=25, deadline=None)
    def test_coded_equals_decoded_equals_eval(self, text, rows):
        expr = _bind(text)
        kernel, __ = compile_vector_expression(expr)
        coded, dense = _batches(rows)
        want = _reprs(expr.eval(row) for row in rows)
        assert _reprs(kernel(dense).to_python_list()) == want
        assert _reprs(kernel(coded).to_python_list()) == want

    @pytest.mark.parametrize("text", EXPRESSIONS)
    @given(rows=ROWS, data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_after_a_filter(self, text, rows, data):
        # ``take`` keeps the coded form; a selection shorter than the
        # dictionary makes the kernels expand instead.
        keep = data.draw(
            st.lists(
                st.integers(0, len(rows) - 1), max_size=len(rows), unique=True
            ).map(sorted)
        )
        expr = _bind(text)
        predicate, __ = compile_vector_predicate(expr)
        kernel, __ = compile_vector_expression(expr)
        coded, dense = _batches(rows)
        coded = coded.take(np.asarray(keep, dtype=np.intp))
        assert all(isinstance(e, CodedVector) for e in coded.entries[:CODED])
        kept = [rows[k] for k in keep]
        want = [expr.eval(row) for row in kept]
        assert _reprs(kernel(coded).to_python_list()) == _reprs(want)
        assert predicate(coded).tolist() == [v is True for v in want]

    def test_single_column_kernels_stay_in_the_dictionary_domain(self):
        rows = [
            (s, DAY0, i, 0.5, True, 2, 0.5, ["t"], 0)
            for s, i in zip(["a", "b", None, "ab"] * 5, [0, 1, None] * 7)
        ]
        coded, __ = _batches(rows)
        metrics = MetricsRegistry()
        values = 0
        # (expression, its column, dictionary-domain evaluations)
        for text, column, evaluations in [
            ("s = 'b'", 0, 1),
            ("s BETWEEN 'a' AND 'b'", 0, 1),
            ("s IN ('a')", 0, 1),
            ("s LIKE 'a%'", 0, 1),
            ("s IS NULL", 0, 1),
            ("CAST(i AS STRING)", 2, 1),
            ("UPPER(SUBSTR(s, 1, 1))", 0, 2),
            ("s > 'a' AND s < 'c'", 0, 3),
            ("CASE WHEN s = 'a' THEN 1 ELSE 0 END", 0, 1),
            ("i * 2 + 1", 2, 2),
        ]:
            before = metrics.value("batch.kernel.dictionary")
            kernel, __ = compile_vector_expression(_bind(text), metrics)
            result = kernel(coded)
            assert isinstance(result, CodedVector), text
            assert result.codes is coded.entries[column].codes
            assert (
                metrics.value("batch.kernel.dictionary") - before
                == evaluations
            ), text
            values += evaluations * len(coded.entries[column].dictionary)
        assert metrics.value("batch.kernel.dictionary") == 14
        assert metrics.value("batch.dictionary.rows") == 14 * len(rows)
        assert metrics.value("batch.dictionary.values") == values

    @given(rows=ROWS)
    @settings(max_examples=25, deadline=None)
    def test_eval_is_apply_over_the_operands(self, rows):
        # The scalar rule is written once: wherever a node has one, its
        # ``eval`` is that rule over its operands' values.
        seen = set()
        for text in EXPRESSIONS:
            for node in _nodes(_bind(text)):
                if node.apply is None:
                    continue
                operands = node.children()
                if isinstance(node, (BoundIn, BoundLike)):
                    if not all(
                        isinstance(child, BoundLiteral)
                        for child in operands[1:]
                    ):
                        continue  # correlated IN, dynamic LIKE: own ``eval``
                    operands = operands[:1]
                seen.add(type(node))
                for row in rows:
                    values = [operand.eval(row) for operand in operands]
                    assert repr(node.eval(row)) == repr(node.apply(*values))
        assert seen == {
            BoundArithmetic, BoundComparison, BoundNot, BoundNegate,
            BoundBetween, BoundIn, BoundLike, BoundIsNull, BoundCast,
            BoundScalarCall,
        }
        assert BoundAnd.apply is BoundOr.apply is BoundCase.apply is None

    def test_a_fold_that_raises_leaves_it_to_the_rows(self):
        # SQRT(-1.0) cannot fold; like ``eval`` it fails once there is a
        # row to evaluate it for, and not before.
        kernel, __ = compile_vector_expression(
            _bind("SQRT(-1.0) + n", schema=Schema.of(("n", INT)))
        )
        batch = ColumnBatch([Vector(np.asarray([1, 2], dtype=np.int64))], 2)
        assert kernel(batch.take(np.arange(0))).to_python_list() == []
        with pytest.raises(ValueError):
            kernel(batch)

    def test_entry_outside_the_batch_may_fail(self):
        # SQRT(-4.0) raises, but no selected row holds -4.0: the
        # dictionary attempt gives way to the dense evaluation.
        values = [-4.0] + [1.0, 4.0, 9.0] * 4
        coded = ColumnBatch([_coded(values, DOUBLE)], len(values))
        selected = coded.take(np.arange(1, len(values)))
        kernel, __ = compile_vector_expression(
            _bind("SQRT(x)", schema=Schema.of(("x", DOUBLE)))
        )
        assert kernel(selected).to_python_list() == [1.0, 2.0, 3.0] * 4
        with pytest.raises(ValueError):
            kernel(coded)


class TestInterpretedCount:
    def _count(self, text, registry=None):
        return compile_vector_expression(_bind(text, registry))[1]

    def test_only_per_row_subtrees_count(self):
        registry = FunctionRegistry()
        registry.register("twice", lambda v: v * 2, return_type=INT)
        assert self._count("UPPER(SUBSTR(s, 1, 2)) = 'A'") == 0
        assert self._count("CAST(i AS STRING)") == 0
        assert self._count("CASE WHEN i > 2 THEN s ELSE 'z' END") == 1
        assert self._count("twice(i) + 1", registry) == 1
        assert self._count("twice(twice(i))", registry) == 2


class TestLazyColumnHandsOutCodes:
    schema = Schema.of(
        ("s", STRING), ("d", DOUBLE), ("q", INT), ("n", INT)
    )
    rows = [
        (None if i % 3 == 0 else f"w{i % 4}", i % 4 * 0.5, i % 5 * 10**5, i)
        for i in range(60)
    ]

    def test_dictionary_columns_enter_coded(self):
        block = ColumnarPartition.from_rows(self.schema, self.rows)
        assert block.compression_schemes() == ["dictionary"] * 3 + ["bitpack"]
        batch = ColumnBatch.from_block(block, [0, 1, 2, 3])
        s, d, q, n = (batch.vector(i) for i in range(4))
        assert all(isinstance(v, CodedVector) for v in (s, d, q))
        assert not isinstance(n, CodedVector)
        # NULL is an entry of a nullable column's dictionary; a primitive's
        # dictionary is the typed array decoding indexes.
        assert s.dictionary.data == ["w1", "w2", "w0", "w3", None]
        assert q.dictionary.data.dtype == np.int64
        for index, vector in enumerate((s, d, q, n)):
            assert vector.to_python_list() == [r[index] for r in self.rows]

    def test_selection_shorter_than_the_dictionary_decodes(self):
        block = ColumnarPartition.from_rows(self.schema, self.rows)
        batch = ColumnBatch.from_block(block, [0, 1, 2, 3])
        few = batch.take(np.asarray([3, 7]))
        assert not isinstance(few.vector(0), CodedVector)
        assert few.materialize_rows() == [self.rows[3], self.rows[7]]
        many = batch.take(np.arange(10, 50))
        assert isinstance(many.vector(0), CodedVector)
        assert many.materialize_rows() == self.rows[10:50]


# ---------------------------------------------------------------------------
# GROUP BY factorization
# ---------------------------------------------------------------------------


def reference_group_ids(columns):
    """The per-row dict probe ``_group_ids`` replaced, verbatim."""
    mapping: dict = {}
    keys: list = []
    gids = []
    for r in range(len(columns[0]) if columns else 0):
        key = tuple(column[r] for column in columns)
        gid = mapping.get(key)
        if gid is None:
            gid = len(keys)
            mapping[key] = gid
            keys.append(key)
        gids.append(gid)
    return gids, keys


def _group_ids(vectors, n):
    """``physical._group_rows`` over the given key vectors: the group of
    every row, and every group's key (the values of its first row)."""
    gids, first_rows = physical._group_rows(list(vectors), n)
    if not vectors:
        return gids.tolist(), [()]
    keys = list(
        zip(*[v.gather(first_rows).to_python_list() for v in vectors])
    )
    return gids.tolist(), keys


def _assert_groups(vectors, n):
    # The reference sees the Python values the row path would see.
    columns = [vector.to_python_list() for vector in vectors]
    want_gids, want_keys = reference_group_ids(columns)
    gids, keys = _group_ids(vectors, n)
    assert gids == want_gids
    # repr: first-occurrence key values keep their type (1 vs 1.0 vs True).
    assert _reprs(keys) == _reprs(want_keys)


_KEY_VALUES = st.sampled_from(
    [None, 0, 1, 1.0, True, False, 2, "a", "b", NAN, DAY0]
)


@st.composite
def _key_vectors(draw):
    n = draw(st.integers(0, 30))
    vectors = []
    for __ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["list", "coded", "array", "masked"]))
        if kind == "array":
            vectors.append(
                Vector(np.asarray(draw(st.lists(
                    st.integers(-2, 2), min_size=n, max_size=n
                )), dtype=np.int64))
            )
        elif kind == "masked":
            values = draw(st.lists(
                st.sampled_from([0.5, 1.5, -0.0]), min_size=n, max_size=n
            ))
            valid = draw(st.lists(st.booleans(), min_size=n, max_size=n))
            vectors.append(Vector(
                np.asarray(values, dtype=np.float64),
                np.asarray(valid, dtype=bool),
            ))
        else:
            values = draw(st.lists(_KEY_VALUES, min_size=n, max_size=n))
            vectors.append(
                Vector(values) if kind == "list" else _coded(values, STRING)
            )
    return vectors, n


class TestGroupIds:
    @given(_key_vectors())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_per_row_reference(self, drawn):
        _assert_groups(*drawn)

    def test_renumbering_when_the_code_space_outgrows_the_table(
        self, monkeypatch
    ):
        # Four keys of 40 distinct values over 80 rows: 40 ** 2 already
        # exceeds the first-row table, so the codes are renumbered (twice)
        # on the way — and the groups are still the reference's.
        calls = []
        original = physical._renumber
        monkeypatch.setattr(
            physical,
            "_renumber",
            lambda codes: calls.append(len(codes)) or original(codes),
        )
        rng = np.random.default_rng(3)
        vectors = [
            Vector([f"v{k}" for k in rng.integers(0, 40, 80)]),
            _coded([int(k) for k in rng.integers(0, 40, 80)], STRING),
            Vector([None if k % 7 == 0 else k for k in range(80)]),
            Vector(rng.integers(0, 40, 80).astype(np.int64)),
        ]
        _assert_groups(vectors, 80)
        assert len(calls) >= 3  # the array key is itself factorized by it

    def test_cardinality_product_beyond_int64(self):
        n = 70_000  # 70000 ** 4 > 2 ** 63
        rng = np.random.default_rng(5)
        base = np.arange(n, dtype=np.int64) // 2  # every key twice
        order = rng.permutation(n)
        vectors = [Vector((base * step)[order]) for step in (1, 3, 5, 7)]
        gids, keys = _group_ids(vectors, n)
        assert len(keys) == n // 2 == len(set(gids))
        want_gids, want_keys = reference_group_ids(
            [v.to_python_list() for v in vectors]
        )
        assert gids == want_gids and keys == want_keys

    def test_equal_numbers_collapse_to_the_first_seen(self):
        gids, keys = _group_ids(
            [Vector([1, True, 1.0, 2, 1]), Vector(["a", "b", "b", "a", "a"])],
            5,
        )
        assert gids == [0, 1, 1, 2, 0]
        assert _reprs(keys) == ["(1, 'a')", "(True, 'b')", "(2, 'a')"]

    def test_null_and_nan_keys(self):
        nan = float("nan")
        gids, keys = _group_ids([Vector([None, nan, None, nan, 1.0])], 5)
        assert gids == [0, 1, 0, 1, 2]  # one NaN *object*: one key
        # An array's NaNs unbox to separate objects, each its own key —
        # exactly what the row path's dict does with them.
        gids, __ = _group_ids(
            [Vector(np.asarray([np.nan, 1.0, np.nan, 1.0]))], 4
        )
        assert gids == [0, 1, 2, 1]

    def test_computed_dictionary_with_repeated_entries(self):
        # SUBSTR over a coded column: entries 'aa' and 'ab' both become 'a'.
        column = _coded(["aa", "ab", "b", "aa", None, "b"], STRING)
        kernel, __ = compile_vector_expression(_bind("SUBSTR(s, 1, 1)"))
        key = kernel(ColumnBatch([column], 6))
        assert isinstance(key, CodedVector)
        gids, keys = _group_ids([key], 6)
        assert gids == [0, 0, 1, 0, 2, 1]
        assert keys == [("a",), ("b",), (None,)]

    def test_no_keys_and_empty_batch(self):
        assert _group_ids([], 3) == ([0, 0, 0], [()])
        assert _group_ids([Vector([]), _coded([], STRING)], 0) == ([], [])


# ---------------------------------------------------------------------------
# End to end
# ---------------------------------------------------------------------------


T_SCHEMA = Schema.of(("k", INT), ("s", STRING), ("d", DATE), ("v", DOUBLE))


def _t_rows(n=400):
    """``s`` (7 strings), ``d`` (9 dates and NULL) and ``v`` (13 doubles)
    are dictionary-encoded in every block; ``k`` is not."""
    return [
        (
            i,
            f"w{i % 7:02d}x",
            None if i % 11 == 0 else DAY0 + timedelta(days=i % 9),
            float(i % 13),
        )
        for i in range(n)
    ]


def _context(compress: bool = True, **kwargs):
    """``t`` over two blocks; ``compress`` off stores every column as a
    plain array or list, so no kernel sees a dictionary."""
    shark = SharkContext(num_workers=2, **kwargs)
    properties = None if compress else {"shark.compress": "false"}
    shark.create_table("t", T_SCHEMA, cached=True, properties=properties)
    shark.load_rows("t", _t_rows(), num_partitions=2)
    return shark


class TestCallCounts:
    def test_udf_sees_every_row_builtins_every_distinct_value(
        self, monkeypatch
    ):
        calls = {"udf": 0, "upper": 0, "substr": 0}

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        for name in ("upper", "substr"):
            spec = functions.builtin(name)
            monkeypatch.setitem(
                functions._BUILTINS,
                name,
                replace(spec, fn=counting(name, spec.fn)),
            )
        shark = _context()
        shark.register_udf("shout", counting("udf", lambda v: v + "!"))
        rows = _t_rows()

        got = shark.sql("SELECT k, shout(s) FROM t").rows
        assert sorted(got) == sorted((r[0], r[1] + "!") for r in rows)
        assert calls["udf"] == len(rows)
        assert shark.metrics.value("batch.kernel.dictionary") == 0

        got = shark.sql("SELECT k, UPPER(SUBSTR(s, 1, 2)) FROM t").rows
        assert sorted(got) == sorted((r[0], r[1][:2].upper()) for r in rows)
        # Two blocks, seven distinct strings in each.
        assert calls["substr"] == calls["upper"] == 2 * 7
        assert shark.metrics.value("batch.kernel.dictionary") == 4
        assert shark.metrics.value("batch.dictionary.rows") == 2 * len(rows)
        assert shark.metrics.value("batch.dictionary.values") == 4 * 7

        # A UDF over a built-in's coded result still sees every row.
        calls["udf"] = 0
        shark.sql("SELECT shout(SUBSTR(s, 1, 2)) FROM t")
        assert calls["udf"] == len(rows)

        # Over plain columns the built-ins run per row: the count above
        # is the dictionary's doing, not the function's.
        calls["upper"] = 0
        _context(compress=False).sql("SELECT UPPER(s) FROM t")
        assert calls["upper"] == len(rows)

    def test_constant_arguments_fold_a_builtin_never_a_udf(self, monkeypatch):
        calls = {"upper": 0, "udf": 0}

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        spec = functions.builtin("upper")
        monkeypatch.setitem(
            functions._BUILTINS,
            "upper",
            replace(spec, fn=counting("upper", spec.fn)),
        )
        registry = FunctionRegistry()
        registry.register(
            "shout", counting("udf", lambda v: v + "!"), return_type=STRING
        )
        registry.register(
            "bang", counting("udf", lambda: "!"), return_type=STRING
        )
        batch = ColumnBatch([Vector(list("abcde"))], 5)
        schema = Schema.of(("s", STRING))
        for text, want in [
            ("UPPER('a')", "A"),
            ("CONCAT(UPPER('a'), 'b')", "Ab"),
            ("shout('a')", "a!"),
            ("bang()", "!"),
            ("UPPER(shout('a'))", "A!"),
        ]:
            calls.update(upper=0, udf=0)
            kernel, interpreted = compile_vector_expression(
                _bind(text, registry, schema)
            )
            assert kernel(batch).to_python_list() == [want] * 5
            udf = "UPPER('a')" not in text
            assert interpreted == udf
            assert calls["udf"] == (5 if udf else 0)
            # Over a UDF's results the built-in has five values to see.
            assert calls["upper"] == (
                0 if "UPPER" not in text else 5 if udf else 1
            )

    def test_and_or_short_circuit_per_row_not_per_batch(self):
        # ``eval`` skips the right side where the left decides; a batch
        # has no such order, and a UDF sees every row of it.
        calls = []
        registry = FunctionRegistry()
        registry.register(
            "flag", lambda v: calls.append(v) or v > 1, return_type=BOOLEAN
        )
        rows = [(n,) for n in (0, 1, 2, 3, 0, 3)]
        batch = ColumnBatch(
            [Vector(np.asarray([n for n, in rows], dtype=np.int64))], len(rows)
        )
        schema = Schema.of(("n", INT))
        for text, skipped in [
            ("n > 0 AND flag(n)", 0), ("n > 2 OR flag(n)", 3),
        ]:
            expr = _bind(text, registry, schema)
            del calls[:]
            want = [expr.eval(row) for row in rows]
            assert calls == [n for n, in rows if n != skipped]
            del calls[:]
            kernel, __ = compile_vector_expression(expr)
            assert kernel(batch).to_python_list() == want
            assert calls == [n for n, in rows]

    def test_operator_mode_counts_only_per_row_subtrees(self):
        shark = _context()
        shark.register_udf("shout", lambda v: v + "!")
        modes = dict(
            shark.sql(
                "SELECT SUBSTR(s, 1, 2), COUNT(*) FROM t GROUP BY SUBSTR(s, 1, 2)"
            ).report.operator_modes
        )
        assert modes["aggregate.partial"] == "vectorized"
        modes = dict(
            shark.sql(
                "SELECT shout(s), COUNT(*) FROM t GROUP BY shout(s)"
            ).report.operator_modes
        )
        assert modes["aggregate.partial"] == "vectorized (1 interpreted)"

    def test_pipeline_instant_carries_the_dictionary_counts(self):
        shark = _context()
        shark.enable_tracing()
        shark.sql(
            "SELECT COUNT(*) FROM t "
            "WHERE s LIKE 'w01%' AND d > DATE '2000-01-03'"
        )
        instants = [
            event for event in shark.trace.events
            if event.name == "batch.pipeline"
        ]
        assert len(instants) == 2
        for event in instants:
            # LIKE, the date comparison: one evaluation each per block.
            assert event.args["dictionary_kernels"] == 2
            assert event.args["dictionary_rows"] == 2 * event.args["rows"]
            assert event.args["dictionary_values"] == 7 + 10


GROUPED = [
    "SELECT s, d, COUNT(*), SUM(v) FROM t GROUP BY s, d",
    "SELECT SUBSTR(s, 1, 2), k % 3, MIN(v), MAX(d) FROM t "
    "GROUP BY SUBSTR(s, 1, 2), k % 3",
    "SELECT s, d, k % 5, v > 6, AVG(v), COUNT(d) FROM t "
    "WHERE d <> DATE '2000-01-02' GROUP BY s, d, k % 5, v > 6",
    "SELECT CASE WHEN s < 'w03' THEN 'low' ELSE s END, COUNT(*) FROM t "
    "WHERE d IS NOT NULL AND YEAR(d) = 2000 "
    "GROUP BY CASE WHEN s < 'w03' THEN 'low' ELSE s END",
    "SELECT UPPER(s), LENGTH(s) FROM t WHERE s LIKE 'w0%' AND v BETWEEN 2 AND 9",
]


class TestQueryParity:
    """The dictionary domain against the plain one, repr-identically, and
    against sqlite."""

    @pytest.mark.parametrize("query", GROUPED)
    def test_modes_agree(self, query):
        got = _context().sql(query).rows
        assert_byte_identical(got, _context(compress=False).sql(query).rows)
        want = sqlite_rows(
            query,
            {"t": (T_SCHEMA.names, _t_rows())},
            {"YEAR": lambda day: None if day is None else int(day[:4])},
        )
        assert_rows_match(got, want, context=query)

    @pytest.mark.parametrize("name", sorted(QUERIES))
    def test_workload_queries_across_codegen(
        self, warehouse, plain_warehouse, name
    ):
        want = plain_warehouse.sql(QUERIES[name]).rows
        got = warehouse.sql(QUERIES[name]).rows
        assert_byte_identical(got, want)

    @pytest.mark.parametrize(
        "name, text",
        queries.SCAN_AGG + queries.SHUFFLE_JOIN,
        ids=[name for name, __ in queries.SCAN_AGG + queries.SHUFFLE_JOIN],
    )
    def test_benchmark_statements(self, benchmark_tables, name, text):
        shark, tables = benchmark_tables
        assert_rows_match(
            shark.sql(text).rows,
            sqlite_rows(text, tables),
            ordered="LIMIT" in text,
            context=name,
        )


@pytest.fixture(scope="module")
def warehouse():
    return _build(True, 4)


@pytest.fixture(scope="module")
def plain_warehouse():
    return _build(False, 4)


@pytest.fixture(scope="module")
def benchmark_tables():
    """The benchmark's tables in a context, and as sqlite loads them."""
    from benchmarks.perf.workloads import schema_of

    shark = SharkContext(num_workers=2)
    tables = {}
    for table in (
        datagen.lineitem(11, 3000),
        datagen.rankings(11, 300),
        datagen.uservisits(11, 1500, 300, 100),
        datagen.orders(11, 750),
        datagen.customer(11, 75),
    ):
        shark.create_table(table.name, schema_of(table), cached=True)
        shark.load_rows(table.name, table.rows, num_partitions=2)
        tables[table.name] = (schema_of(table).names, table.rows)
    return shark, tables


class TestSpillMidBatch:
    QUERY = (
        "SELECT s, d, k % 4, COUNT(*), SUM(v), MIN(k) FROM t "
        "GROUP BY s, d, k % 4"
    )

    @staticmethod
    def _one_task_context(**kwargs):
        """``t`` with both blocks in one partition, so one aggregator
        consumes two batches and the groups of a partial spilled after
        the first meet their keys again in the second."""
        shark = _context(**kwargs)
        entry = shark.table_entry("t")
        table = entry.cached_rdd
        both = shark.engine.parallelize(
            shark.engine.run_job(table, lambda part: part[0]),
            num_partitions=1,
        )
        block = TableBlock(
            both, 0, table.stats[0], table.size_bytes, table.row_count
        )
        entry.set_blocks(BlockListRDD(shark.engine, [block]))
        return shark

    def test_capped_aggregation_equals_uncapped(self, monkeypatch):
        #: (pending partial batches, runs already shed) at every spill.
        spilled = []
        original = BatchAggregator.spill

        def spy(self, nbytes):
            spilled.append((len(self._partials), len(self._runs)))
            return original(self, nbytes)

        monkeypatch.setattr(BatchAggregator, "spill", spy)
        want = self._one_task_context().sql(self.QUERY).rows
        assert len(want) > 200 and not spilled
        capped = self._one_task_context(memory_per_worker_bytes=2 * 1024)
        got = capped.sql(self.QUERY).rows
        assert_byte_identical(got, want)
        assert capped.engine.memory.spill_events > 0
        # The first batch's partial was shed as a run before the second
        # batch arrived, and the second's after it: the two meet again
        # only when ``finish`` merges the runs.
        assert spilled[:2] == [(1, 0), (1, 1)]
        assert capped.engine.memory.clamped_release_bytes == 0
