"""``merge_partials`` / ``finish_partials`` against the per-pair loop they
replace, kept here literally as the reference: a dict keyed by group key,
``fn.merge`` in arrival order, ``fn.finish`` per accumulator."""

from __future__ import annotations

import math
from itertools import repeat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar.batch import ColumnBatch, Vector
from repro.columnar.table import transpose_rows
from repro.sql.functions import (
    AvgAggregate,
    CountAggregate,
    MaxAggregate,
    MinAggregate,
    StdDevAggregate,
    SumAggregate,
)
from repro.sql.logical import AggregateSpec
from repro.sql.physical import (
    _acc_columns,
    _acc_width,
    _accs_of,
    finish_partials,
    merge_partials,
)


def partials_batch(pairs: list, num_keys: int, specs: list) -> ColumnBatch:
    """``(group key, accumulators)`` pairs in the partial-batch layout."""
    keys = transpose_rows([key for key, __ in pairs], num_keys)
    accs = transpose_rows([accs for __, accs in pairs], len(specs))
    entries = list(map(Vector.from_values, keys))
    for spec, column in zip(specs, accs):
        entries.extend(_acc_columns(spec.function, column))
    return ColumnBatch(entries, len(pairs))


def partials_pairs(batch: ColumnBatch, num_keys: int, specs: list) -> list:
    """The pairs :func:`partials_batch` was given."""
    if not batch.num_rows:
        return []
    columns, ordinal = [], num_keys
    for spec in specs:
        width = _acc_width(spec.function)
        columns.append(
            _accs_of(
                spec.function,
                [batch.vector(ordinal + i) for i in range(width)],
            )
        )
        ordinal += width
    accs = zip(*columns) if columns else repeat(())
    return list(zip(batch.values(tuple(range(num_keys))), map(list, accs)))


def reference_merge(pairs: list, specs: list) -> list:
    """What ``ShuffledRDD.compute`` + ``_merge_accumulators`` did."""
    merged: dict = {}
    for key, accs in pairs:
        if key in merged:
            merged[key] = [
                spec.function.merge(left, right)
                for spec, left, right in zip(specs, merged[key], accs)
            ]
        else:
            merged[key] = accs
    return list(merged.items())


def reference_finish(pairs: list, specs: list) -> list:
    """What ``finish_aggregate`` did."""
    return [
        tuple(key)
        + tuple(spec.function.finish(acc) for spec, acc in zip(specs, accs))
        for key, accs in pairs
    ]


def _spec(function) -> AggregateSpec:
    return AggregateSpec(function, None, function.name)


def _reprs(items) -> list:
    return [repr(item) for item in items]


def _check(pairs: list, num_keys: int, specs: list, pieces: int = 1):
    """Merge ``pairs`` arriving as ``pieces`` fetched buckets and compare
    merged partials and finished rows with the reference, in order."""
    step = max(-(-len(pairs) // pieces), 1)
    batch = ColumnBatch.concat(
        [
            partials_batch(pairs[start : start + step], num_keys, specs)
            for start in range(0, max(len(pairs), 1), step)
        ]
    )
    want = reference_merge(pairs, specs)
    merged = merge_partials(batch, num_keys, specs)
    assert _reprs(partials_pairs(merged, num_keys, specs)) == _reprs(want)
    assert _reprs(
        finish_partials(merged, num_keys, specs).materialize_rows()
    ) == _reprs(reference_finish(want, specs))


# -- the cases the issue names ---------------------------------------------


def test_equal_numbers_collapse_to_the_first_seen_key():
    specs = [_spec(CountAggregate(count_star=True))]
    pairs = [((1,), [2]), ((1.0,), [3]), ((True,), [4]), ((2,), [1])]
    _check(pairs, 1, specs)
    merged = merge_partials(partials_batch(pairs, 1, specs), 1, specs)
    assert partials_pairs(merged, 1, specs) == [((1,), [9]), ((2,), [1])]


def test_null_and_nan_keys():
    specs = [_spec(SumAggregate())]
    pairs = [
        ((None, "a"), [1.5]),
        ((float("nan"), "a"), [2.0]),
        ((None, "a"), [None]),
        ((float("nan"), "a"), [4.0]),  # another NaN object: another group
        ((None, None), [8.0]),
        ((None, "a"), [0.25]),
    ]
    _check(pairs, 2, specs)
    merged = merge_partials(partials_batch(pairs, 2, specs), 2, specs)
    assert merged.num_rows == 4


def test_avg_merges_sums_and_counts():
    specs = [_spec(AvgAggregate())]
    pairs = [
        (("x",), [(10.0, 4)]),
        (("y",), [(0.0, 0)]),  # a group of NULLs only: AVG is NULL
        (("x",), [(0.5, 1)]),
        (("y",), [(0.0, 0)]),
    ]
    _check(pairs, 1, specs)
    merged = merge_partials(partials_batch(pairs, 1, specs), 1, specs)
    assert finish_partials(merged, 1, specs).materialize_rows() == [
        ("x", 2.1), ("y", None),
    ]


@pytest.mark.parametrize("values", [[3, None, 1, 7], [2.5, None, -0.5, 2.5]])
def test_min_max_skip_nulls(values):
    specs = [_spec(MinAggregate()), _spec(MaxAggregate())]
    pairs = [((i % 2,), [v, v]) for i, v in enumerate(values)]
    pairs.append(((9,), [None, None]))  # never saw a value: NULL
    _check(pairs, 1, specs)


def test_min_max_of_strings_and_nan_take_the_python_loop():
    specs = [_spec(MinAggregate()), _spec(MaxAggregate())]
    _check([((0,), ["b", "b"]), ((0,), ["a", "a"]), ((0,), [None, None])], 1, specs)
    nan = float("nan")
    _check([((0,), [1.0, 1.0]), ((0,), [nan, nan]), ((0,), [0.5, 0.5])], 1, specs)


def test_count_distinct_unions_sets():
    specs = [_spec(CountAggregate(distinct=True)), _spec(SumAggregate(distinct=True))]
    pairs = [
        (("g",), [{1, 2}, {1.5}]),
        (("h",), [set(), set()]),
        (("g",), [{2, 3}, {1.5, 2.5}]),
    ]
    _check(pairs, 1, specs)


def test_int_sums_past_2_62_stay_exact():
    specs = [_spec(SumAggregate()), _spec(CountAggregate(count_star=True))]
    big = 2 ** 62
    pairs = [((0,), [big, 1]), ((0,), [big, 1]), ((0,), [big, 1]), ((1,), [-big, 1])]
    _check(pairs, 1, specs)
    merged = merge_partials(partials_batch(pairs, 1, specs), 1, specs)
    assert partials_pairs(merged, 1, specs)[0] == ((0,), [3 * big, 3])


def test_output_is_in_first_occurrence_order_whatever_the_buckets():
    specs = [_spec(CountAggregate(count_star=True))]
    pairs = [((k,), [1]) for k in "qazqwsxqaz"]
    for pieces in (1, 2, 3, 10):
        _check(pairs, 1, specs, pieces)
    merged = merge_partials(partials_batch(pairs, 1, specs), 1, specs)
    assert [key for (key,), __ in partials_pairs(merged, 1, specs)] == list("qazwsx")


def test_nothing_to_merge_hands_the_batch_back():
    specs = [_spec(SumAggregate())]
    batch = partials_batch([((1,), [1.0]), ((2,), [2.0])], 1, specs)
    assert merge_partials(batch, 1, specs) is batch


def test_global_aggregate_has_one_group():
    specs = [_spec(CountAggregate(count_star=True)), _spec(StdDevAggregate())]
    pairs = [((), [3, (3, 6.0, 14.0)]), ((), [0, (0, 0.0, 0.0)]), ((), [1, (1, 2.0, 4.0)])]
    _check(pairs, 0, specs)


# -- and at random -------------------------------------------------------------

_KEY_VALUES = st.sampled_from([None, 0, 1, 1.0, True, False, 2, "a", "b"])
_INTS = st.one_of(st.integers(-5, 5), st.sampled_from([2 ** 62, -(2 ** 62)]))
_FLOATS = st.one_of(
    st.floats(-1e6, 1e6), st.sampled_from([0.0, -0.0, 1e300, math.inf])
)

#: function -> strategy of one partial accumulator of it.
_ACCS = [
    (lambda: CountAggregate(count_star=True), st.integers(0, 50)),
    (SumAggregate, st.one_of(st.none(), _INTS)),
    (SumAggregate, st.one_of(st.none(), _FLOATS)),
    # (An AVG total is summed up from 0.0, so it is never -0.0.)
    (
        AvgAggregate,
        st.tuples(_FLOATS.map(lambda total: total + 0.0), st.integers(0, 9)),
    ),
    (MinAggregate, st.one_of(st.none(), st.integers(-9, 9))),
    (MaxAggregate, st.one_of(st.none(), _FLOATS)),
    (MaxAggregate, st.one_of(st.none(), st.sampled_from(["a", "b", "é"]))),
    (
        lambda: CountAggregate(distinct=True),
        st.sets(st.integers(0, 5), max_size=3),
    ),
    (
        StdDevAggregate,
        st.tuples(st.integers(0, 4), st.floats(0, 9), st.floats(0, 99)),
    ),
]


@st.composite
def _partials(draw):
    num_keys = draw(st.integers(0, 2))
    chosen = draw(st.lists(st.sampled_from(_ACCS), min_size=1, max_size=4))
    specs = [_spec(make()) for make, __ in chosen]
    pairs = draw(
        st.lists(
            st.tuples(
                st.tuples(*[_KEY_VALUES] * num_keys),
                st.tuples(*[accs for __, accs in chosen]).map(list),
            ),
            max_size=14,
        )
    )
    return pairs, num_keys, specs, draw(st.integers(1, 4))


@settings(max_examples=400, deadline=None)
@given(case=_partials())
def test_merge_equals_the_per_pair_loop(case):
    pairs, num_keys, specs, pieces = case
    _check(pairs, num_keys, specs, pieces)
