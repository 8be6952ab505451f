"""The batch-at-a-time exchange against its per-record references.

The exchange partitions, labels and sorts a map task's output as one
keyed batch (DESIGN §17).  Every batch routine is pinned here to the
per-record definition it replaced:

(a) ``Partitioner.partition_many(keys)`` equals ``partition(key)`` per
    key, for every partitioner and every key type the shuffle carries,
    and ``partition_batch`` — ids taken from a keyed batch's key
    *vectors*: arrays, lists, coded columns, composite keys — equals
    both;
(b) the native ORDER BY keys sort exactly as the old per-row comparator
    object did — it lives on in this file as :class:`ReferenceSortKey`,
    the reference — through SQL over cached and external tables, and
    capped (``ExternalSorter`` spilled runs) equals uncapped;
(c) ``shuffle_skew`` event-log records keep the parent commit's rows,
    heavy keys, row skew and key labels
    (``fixtures/shuffle_skew_parent.jsonl``, but for TPC-H Q1's and Q3's
    one-partition sorts, which no longer have an exchange) while their
    byte-derived fields are the pinned encoded sizes, never above the
    parent's; they are exactly-once under map-task re-execution, and
    cost nothing while nobody asks for them;
(d) what crosses an exchange does not depend on how the scanned tables
    are stored: the same statement over compressed (dictionary-coded)
    and plain tables stores the same rows in the same buckets weighing
    the same bytes, and a reduce side reads exactly the bytes the map
    side wrote;
(e) the sort exchange reads its input once — its map side is the
    sample: every bucket of every stored run holds exactly the rows the
    separate sampling jobs plus ``SortPartitioner`` used to put there
    (that sampler lives on in this file as the reference), a run lost
    after the bounds are picked is cut again as lineage rewrites it,
    ``ORDER BY … LIMIT k`` keeps k rows a run in one partition, and no
    sampling job runs at all.  An ORDER BY over one partition, with no
    partition count asked for, has no exchange: it is sorted in that
    partition's task (``tests/sql/test_sort_in_place.py``);
(f) what PDE reads is what was stored: each map output's status is its
    pinned block's bucket rows and sizes, the reduce-side sizes are
    their sums through the one-byte codes, and a worker killed
    mid-query leaves every status as in a clean run.

Regenerating the fixture (only ever from the commit *before* a change
to the exchange)::

    PYTHONPATH=<parent checkout>/src python tests/engine/test_exchange_parity.py \
        > tests/engine/fixtures/shuffle_skew_parent.jsonl
"""

from __future__ import annotations

import json
import math
import random
import sys
from collections import Counter
from datetime import date, datetime, timedelta, timezone
from operator import itemgetter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

_ROOT = Path(__file__).resolve().parents[2]
if str(_ROOT) not in sys.path:  # run as a script: make ``tests.*`` importable
    sys.path.insert(0, str(_ROOT))

from repro import SharkContext  # noqa: E402
from repro.columnar.batch import (  # noqa: E402
    CodedVector,
    ColumnBatch,
    Vector,
)
from repro.datatypes import (  # noqa: E402
    BOOLEAN,
    DATE,
    DOUBLE,
    INT,
    STRING,
    TIMESTAMP,
    Field,
    Schema,
)
from repro.engine import shuffle  # noqa: E402
from repro.engine.dependencies import SortShuffleDependency  # noqa: E402
from repro.engine.partitioner import (  # noqa: E402
    FunctionPartitioner,
    HashPartitioner,
    RangePartitioner,
    stable_argsort,
    stable_hash,
    stable_hash_many,
    stable_hash_vector,
)
from repro.faults.injector import FaultInjector  # noqa: E402
from repro.sql.expressions import BoundColumn  # noqa: E402
from repro.sql.physical import SortPartitioner, flat_sort_keys  # noqa: E402

from tests.oracle import assert_rows_match, iso_rows, sqlite_rows  # noqa: E402
from tests.sql.test_vectorized_parity import QUERIES, _build  # noqa: E402

SKEW_FIXTURE = Path(__file__).parent / "fixtures" / "shuffle_skew_parent.jsonl"


# ---------------------------------------------------------------------------
# (a) partition_many == partition per key
# ---------------------------------------------------------------------------

_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2 ** 70), max_value=2 ** 70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, math.nan, 2 ** 63, -(2 ** 63) - 1]),
    st.text(max_size=6),
    st.binary(max_size=6),
)
_KEYS = st.recursive(
    _SCALARS, lambda inner: st.lists(inner, max_size=3).map(tuple), max_leaves=6
)


def _homogeneous(element):
    return st.lists(element, max_size=30)


class _SubclassedDate(date):
    @classmethod
    def of(cls, value: date) -> "_SubclassedDate":
        return cls(value.year, value.month, value.day)


#: Batches the column-wise fast paths see (one type per batch, tuples of
#: one width) beside mixed batches that must take the per-key fallback.
_BATCHES = st.one_of(
    st.lists(_KEYS, max_size=30),
    _homogeneous(st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1)),
    _homogeneous(st.one_of(st.booleans(), st.integers(-5, 5))),
    _homogeneous(st.text(max_size=6)),
    _homogeneous(st.binary(max_size=6)),
    _homogeneous(st.tuples(st.integers(-9, 9))),
    _homogeneous(st.tuples(st.text(max_size=3), st.integers())),
    _homogeneous(
        st.tuples(st.integers(), st.tuples(st.text(max_size=3), _SCALARS))
    ),
    # Exact floats hash through one crc32-of-repr map; dates and naive
    # datetimes (alone, as Q3's (key, date) tuples, with NULL slots) by
    # their day / microsecond number, as their datetime64 vectors do ...
    _homogeneous(st.floats(allow_nan=True, allow_infinity=True)),
    _homogeneous(st.dates()),
    _homogeneous(st.datetimes()),
    _homogeneous(st.tuples(st.integers(-9, 9), st.dates())),
    _homogeneous(st.one_of(st.none(), st.dates())),
    _homogeneous(st.one_of(st.none(), st.datetimes())),
    _homogeneous(
        st.tuples(st.integers(-9, 9), st.one_of(st.none(), st.dates()))
    ),
    # ... and what must still go key by key: subclasses of those types,
    # datetimes with a zone or a fold, and columns mixing them.
    _homogeneous(st.floats(allow_nan=True).map(np.float64)),
    _homogeneous(st.dates().map(_SubclassedDate.of)),
    _homogeneous(st.datetimes(timezones=st.just(timezone.utc))),
    _homogeneous(st.datetimes().map(lambda stamp: stamp.replace(fold=1))),
    _homogeneous(st.one_of(st.dates(), st.datetimes(), st.floats())),
)


@settings(max_examples=300, deadline=None)
@given(keys=_BATCHES, num_partitions=st.integers(1, 9))
def test_hash_partition_many_matches_partition(keys, num_partitions):
    partitioner = HashPartitioner(num_partitions)
    got = partitioner.partition_many(keys)
    assert got == [partitioner.partition(key) for key in keys]
    assert all(type(index) is int for index in got)


@settings(max_examples=300, deadline=None)
@given(keys=_BATCHES)
def test_stable_hash_many_matches_stable_hash(keys):
    # The hash itself, not only its bucket: shuffle bytes and every
    # simulated-clock number rest on it.
    want = list(map(stable_hash, keys))
    assert stable_hash_many(keys).tolist() == want
    # ... and of a column's vector, typed array (NULL slots hash to 0)
    # or list: the key a row stands for, whatever holds it.
    if not any(type(key) is tuple for key in keys):
        for form in (Vector, Vector.from_values):
            assert stable_hash_vector(form(list(keys))).tolist() == want


def test_dates_and_datetimes_hash_by_their_number_and_spread():
    """A date hashes by its day number, a naive datetime by its
    microseconds — no ``repr`` — and whole seconds, whose low microsecond
    bits are all zero, still spread over a power-of-two exchange."""
    assert stable_hash(date(1970, 1, 1)) == stable_hash(datetime(1970, 1, 1)) == 0
    assert stable_hash(_SubclassedDate(1995, 3, 15)) == stable_hash(
        date(1995, 3, 15)
    )
    assert stable_hash(datetime(2000, 1, 1, fold=1)) == stable_hash(
        datetime(2000, 1, 1)
    )
    for keys in (
        [date.fromordinal(727000 + i) for i in range(2048)],
        [datetime.fromtimestamp(37 * i, timezone.utc).replace(tzinfo=None)
         for i in range(2048)],
    ):
        buckets = Counter((stable_hash_many(keys) % 8).tolist())
        assert len(buckets) == 8 and max(buckets.values()) < 2 * 2048 / 8


_ORDERED_BATCHES = st.one_of(
    _homogeneous(st.one_of(st.integers(), st.floats(allow_nan=False))),
    _homogeneous(st.text(max_size=4)),
    _homogeneous(st.tuples(st.booleans(), st.integers(-3, 3))),
)


@settings(max_examples=200, deadline=None)
@given(
    keys=_ORDERED_BATCHES,
    data=st.data(),
    ascending=st.booleans(),
)
def test_range_partition_many_matches_partition(keys, data, ascending):
    bounds = sorted(
        data.draw(st.lists(st.sampled_from(keys), max_size=5))
        if keys
        else []
    )
    partitioner = RangePartitioner(bounds, ascending=ascending)
    assert partitioner.partition_many(keys) == [
        partitioner.partition(key) for key in keys
    ]


@settings(max_examples=100, deadline=None)
@given(keys=st.lists(_KEYS, max_size=30), num_partitions=st.integers(1, 9))
def test_function_partition_many_matches_partition(keys, num_partitions):
    partitioner = FunctionPartitioner(
        num_partitions, lambda key: stable_hash(key) // 3, label="thirds"
    )
    assert partitioner.partition_many(keys) == [
        partitioner.partition(key) for key in keys
    ]


def _key_columns(keys: list) -> tuple[list[list], object]:
    """Keys as the columns of a keyed batch plus their ordinals: tuples
    of one width become one column per item (a composite key), anything
    else a single column."""
    widths = {len(key) if type(key) is tuple else None for key in keys}
    if len(widths) == 1 and None not in widths and keys:
        width = widths.pop()
        if width:
            return [list(column) for column in zip(*keys)], tuple(range(width))
    return [list(keys)], 0


def _coded(column: list) -> Vector:
    """The column as codes over its distinct values."""
    if not column:
        return Vector.from_values(column)
    entries: dict = {}
    for value in column:
        entries.setdefault((type(value), repr(value)), value)
    code_of = {entry: code for code, entry in enumerate(entries)}
    codes = np.array(
        [code_of[(type(value), repr(value))] for value in column],
        dtype=np.int64,
    )
    return CodedVector(codes, Vector.from_values(list(entries.values())))


@settings(max_examples=300, deadline=None)
@given(keys=_BATCHES, num_partitions=st.integers(1, 9), data=st.data())
def test_partition_batch_matches_partition(keys, num_partitions, data):
    """Partition ids from key vectors — as lists, typed arrays, coded
    columns; one column or a composite of them — are ``partition(key)``
    of the key each row stands for."""
    columns, key = _key_columns(keys)
    partitioners = [
        HashPartitioner(num_partitions),
        FunctionPartitioner(
            num_partitions, lambda k: stable_hash(k) // 3, label="thirds"
        ),
    ]
    try:
        bounds = sorted(
            data.draw(st.lists(st.sampled_from(keys), max_size=4))
            if keys
            else []
        )
        # A range partitioner takes mutually ordered keys.
        sorted(keys), [key < key for key in keys]
        partitioners.append(RangePartitioner(bounds))
        partitioners.append(RangePartitioner(bounds, ascending=False))
    except TypeError:
        pass
    for form in (Vector, Vector.from_values, _coded):
        batch = ColumnBatch([form(list(c)) for c in columns], len(keys))
        assert list(map(repr, batch.values(key))) == list(map(repr, keys))
        for partitioner in partitioners:
            got = partitioner.partition_batch(batch, key)
            want = [partitioner.partition(k) for k in batch.values(key)]
            assert got.tolist() == want, (form, partitioner)


# ---------------------------------------------------------------------------
# (b) native sort keys == the old comparator
# ---------------------------------------------------------------------------


class ReferenceSortKey:
    """The per-row ORDER BY comparator the engine used before native
    keys, kept verbatim as the reference: per-column direction, NULLs
    first ascending and last descending."""

    def __init__(self, values: tuple, ascendings: tuple):
        self.values = values
        self.ascendings = ascendings

    def __lt__(self, other: "ReferenceSortKey") -> bool:
        for mine, theirs, ascending in zip(
            self.values, other.values, self.ascendings
        ):
            if mine is None and theirs is None:
                continue
            if mine is None:
                return ascending
            if theirs is None:
                return not ascending
            if mine == theirs:
                continue
            if ascending:
                return mine < theirs
            return mine > theirs
        return False


def _reference_sort(rows: list, ordinals: list[int], ascendings: list[bool]):
    directions = tuple(ascendings)
    return sorted(
        rows,
        key=lambda row: ReferenceSortKey(
            tuple(row[i] for i in ordinals), directions
        ),
    )


_SORT_SCHEMA = Schema(
    [
        Field("id", INT),
        Field("a", INT),
        Field("s", STRING),
        Field("f", DOUBLE),
        Field("d", DATE),
        Field("b", BOOLEAN),
        Field("e", DATE),
        Field("ts", TIMESTAMP),
    ]
)


def _sort_rows(count: int = 700) -> list[tuple]:
    """Deterministic rows dense in NULLs and ties on every column."""
    rows = []
    for i in range(count):
        rows.append(
            (
                i,
                None if i % 7 == 0 else (i * 37) % 11 - 5,
                None if i % 5 == 0 else "abcdeé"[(i * 13) % 6] * (i % 3),
                None if i % 11 == 0 else ((i * 29) % 17) / 4 - 2.0,
                None if i % 13 == 0 else date(1995, 1 + i % 12, 1 + i % 5),
                None if i % 3 == 0 else i % 2 == 0,
                # NULL-free (the datetime64 array path), around the epoch.
                date(1969, 12, 20) + timedelta(days=(i * 31) % 23),
                None if i % 9 == 0
                else datetime(1969, 12, 31, 23) + timedelta(minutes=(i * 7) % 90),
            )
        )
    return rows


#: (ORDER BY text, [(column ordinal, ascending)]) — NULLs both ways,
#: mixed directions, string/date/boolean DESC (the non-negatable
#: columns), ties left to stability.
_ORDERINGS = [
    ("a", [(1, True)]),
    ("a DESC", [(1, False)]),
    ("s DESC", [(2, False)]),
    ("f DESC", [(3, False)]),
    ("s, a DESC", [(2, True), (1, False)]),
    ("a DESC, s, f DESC", [(1, False), (2, True), (3, False)]),
    ("d DESC, a", [(4, False), (1, True)]),
    ("b DESC, s DESC, d", [(5, False), (2, False), (4, True)]),
    ("e DESC", [(6, False)]),
    ("e, ts DESC", [(6, True), (7, False)]),
    ("ts DESC, e DESC, a", [(7, False), (6, False), (1, True)]),
]


def _sort_shark(cached: bool = True, **context_kwargs) -> SharkContext:
    """``t`` as a cached table's column blocks, or (``cached`` off) as an
    external table's text rows."""
    shark = SharkContext(num_workers=4, cores_per_worker=2, **context_kwargs)
    shark.create_table("t", _SORT_SCHEMA, cached=cached)
    shark.load_rows("t", _sort_rows(), num_partitions=4)
    return shark


#: The scan under the sort: column blocks ("vec") or text rows ("row").
_SOURCES = pytest.mark.parametrize("cached", [True, False], ids=["vec", "row"])


@pytest.fixture(scope="module")
def sort_shark():
    return _sort_shark()


@pytest.fixture(scope="module")
def sort_sharks(sort_shark):
    return {True: sort_shark, False: _sort_shark(cached=False)}


@_SOURCES
@pytest.mark.parametrize("order_by,spec", _ORDERINGS, ids=[o for o, __ in _ORDERINGS])
def test_order_by_matches_reference_comparator(
    sort_sharks, order_by, spec, cached
):
    sort_shark = sort_sharks[cached]
    scanned = sort_shark.sql("SELECT * FROM t").rows
    got = sort_shark.sql(f"SELECT * FROM t ORDER BY {order_by}").rows
    ordinals = [ordinal for ordinal, __ in spec]
    ascendings = [ascending for __, ascending in spec]
    # A stable sort of the scan order: ties keep (partition, position).
    want = _reference_sort(scanned, ordinals, ascendings)
    assert list(map(repr, got)) == list(map(repr, want))


def test_order_by_expression_key_matches_reference(sort_shark):
    got = sort_shark.sql(
        "SELECT id, a FROM t ORDER BY a * 2 DESC, id DESC"
    ).rows
    scanned = sort_shark.sql("SELECT id, a FROM t").rows
    keyed = [
        (row, (None if row[1] is None else row[1] * 2, row[0]))
        for row in scanned
    ]
    want = [
        row
        for row, __ in sorted(
            keyed,
            key=lambda pair: ReferenceSortKey(pair[1], (False, False)),
        )
    ]
    assert got == want


@_SOURCES
def test_desc_over_zoned_datetimes_still_sorts(cached):
    """A datetime with a zone has no slot in a datetime64 array and no
    microsecond number to negate: its DESC key stays the wrapper."""
    shark = SharkContext(num_workers=2)
    shark.create_table(
        "z", Schema([Field("k", INT), Field("ts", TIMESTAMP)]), cached=cached
    )
    start = datetime(2000, 1, 1, tzinfo=timezone.utc)
    rows = [
        (i, None if i % 5 == 0 else start + timedelta(hours=(i * 7) % 11))
        for i in range(40)
    ]
    shark.load_rows("z", rows, num_partitions=3)
    got = shark.sql("SELECT k, ts FROM z ORDER BY ts DESC, k").rows
    assert got == _reference_sort(rows, [1, 0], [False, True])


@pytest.mark.parametrize("order_by", [o for o, __ in _ORDERINGS])
def test_capped_sort_spills_and_equals_uncapped(sort_shark, order_by):
    capped = _sort_shark(memory_per_worker_bytes=4 * 1024)
    text = f"SELECT * FROM t ORDER BY {order_by}"
    want = sort_shark.sql(text).rows
    got = capped.sql(text).rows
    spilled = {row["owner"] for row in capped.engine.memory.spill_rows()}
    assert "sort" in spilled, "the cap forced no ExternalSorter runs"
    assert list(map(repr, got)) == list(map(repr, want))


#: The values an ORDER BY column of each type is drawn from (and NULL).
_SORT_POOLS = {
    INT: [-3, -2, -1, 0, 1, 2, 3],
    DOUBLE: [-2, -1, 0, 1, 2, 0.5, -0.5, -0.0, 1e300],
    STRING: ["", "a", "ab", "b", "é"],
    DATE: [date(1969, 12, 31), date(1999, 1, 1), date(2001, 5, 9)],
    TIMESTAMP: [
        datetime(1969, 12, 31, 23, 59, 59, 999999), datetime(1970, 1, 1),
        datetime(2013, 3, 10, 2, 30),
    ],
    BOOLEAN: [False, True],
}
_SORT_VALUE = {
    data_type: st.sampled_from([None, *pool])
    for data_type, pool in _SORT_POOLS.items()
}


@st.composite
def _sort_cases(draw):
    types = draw(
        st.lists(st.sampled_from(list(_SORT_VALUE)), min_size=1, max_size=3)
    )
    ascendings = [draw(st.booleans()) for __ in types]
    rows = draw(
        st.lists(
            st.tuples(*[_SORT_VALUE[data_type] for data_type in types]),
            max_size=25,
        )
    )
    return types, ascendings, rows


def row_sort_keys(
    keys: list[tuple[BoundColumn, bool]], rows: list
) -> list[tuple]:
    """:func:`~repro.sql.physical.flat_sort_keys` of a partition of rows."""
    return flat_sort_keys(
        keys, [[expr.eval(row) for row in rows] for expr, __ in keys]
    )


@settings(max_examples=300, deadline=None)
@given(case=_sort_cases())
def test_native_keys_order_like_reference_comparator(case):
    types, ascendings, rows = case
    keys = [
        (BoundColumn(index, data_type, f"c{index}"), ascending)
        for index, (data_type, ascending) in enumerate(zip(types, ascendings))
    ]
    native = row_sort_keys(keys, rows)
    got = list(map(itemgetter(1), sorted(zip(native, rows), key=itemgetter(0))))
    want = _reference_sort(rows, list(range(len(types))), ascendings)
    assert list(map(repr, got)) == list(map(repr, want))
    # Keys are plain hashable values: usable as range bounds.
    assert hash(RangePartitioner(sorted(set(native))[:3])) is not None


_ARRAYS = st.one_of(
    st.lists(st.integers(-3, 3), max_size=300).map(
        lambda v: np.array(v, dtype=np.int64)
    ),
    st.lists(
        st.sampled_from([-0.0, 0.0, 0.5, -2.0, 1e300, -1e300]), max_size=300
    ).map(lambda v: np.array(v, dtype=np.float64)),
    st.lists(st.integers(-40, 40), max_size=300).map(
        lambda v: np.array(v, dtype="datetime64[D]")
    ),
)


@settings(max_examples=200, deadline=None)
@given(data=_ARRAYS, runs=st.integers(0, 3))
def test_stable_argsort_is_numpys_stable_sort(data, runs):
    """Shuffled data (the unstable sort, ties put back in position
    order) and data of a few sorted runs (numpy's stable sort) alike."""
    if runs:
        data = np.concatenate(
            [np.sort(part, kind="stable") for part in np.array_split(data, runs)]
        )
    assert stable_argsort(data).tolist() == np.argsort(
        data, kind="stable"
    ).tolist()


def _range_partitioner_of(rdd) -> RangePartitioner:
    while not isinstance(rdd.partitioner, RangePartitioner):
        rdd = rdd.dependencies[0].rdd
    return rdd.partitioner


def test_sort_partitioner_is_hashable_and_comparable(sort_shark):
    """Regression: the ORDER BY range partitioner's bounds used to be
    comparator objects defining ``__eq__`` without ``__hash__``, so
    ``hash(partitioner)`` raised TypeError for every SQL sort."""
    text = "SELECT id, s FROM t ORDER BY s DESC, id"
    first = _range_partitioner_of(sort_shark.sql2rdd(text).rdd)
    second = _range_partitioner_of(sort_shark.sql2rdd(text).rdd)
    assert first.num_partitions > 1
    assert first == second
    assert hash(first) == hash(second)
    assert first != RangePartitioner([])


# ---------------------------------------------------------------------------
# (c) shuffle_skew records: same bytes, exactly once, only on demand
# ---------------------------------------------------------------------------


def _skew_lines(tmp_dir: Path, **context_kwargs) -> list[dict]:
    """The ``shuffle_skew`` event-log records of the TPC-H + Pavlo set."""
    shark = _build(True, 4, **context_kwargs)
    path = tmp_dir / "skew.jsonl"
    shark.enable_event_log(path, source="exchange-parity")
    for name in sorted(QUERIES):
        shark.sql(QUERIES[name].rstrip())
    shark.close_event_log()
    records = []
    for line in path.read_text().splitlines():
        record = json.loads(line)
        if record["type"] == "shuffle_skew":
            records.append(record)
    return records


def _timeless(record: dict) -> dict:
    """Without the simulated timestamp and log sequence number: cheaper
    sort exchanges (and fault recovery) shift every later record's."""
    return {k: v for k, v in record.items() if k not in ("ts", "seq")}


#: ``total_bytes`` of every exchange of the TPC-H + Pavlo set, by
#: ``(query_id, shuffle_id)``, now that a bucket weighs its encoded
#: batch (DESIGN §17) instead of its pickled pairs — pinned on purpose:
#: these feed PDE's decisions and every simulated-clock number.  Re-pinned
#: once more, lower, when the writer began to price run-length, dictionary
#: and bit-packed forms of every column (the value before that is second).
_EXCHANGE_BYTES = {
    ("q0000", 0): 11220,  # parent: 15403
    ("q0001", 0): 1556,  # 2728
    ("q0002", 0): 4089,  # 6064; 4102
    ("q0004", 0): 36,  # 96
    ("q0005", 0): 6545,  # 61596; 14034
    ("q0006", 0): 484,  # 1376
    ("q0007", 0): 4665,  # 23591; 6565
    ("q0009", 0): 1406,  # 2272
    ("q0010", 0): 403,  # 737; 413
    ("q0010", 1): 1692,  # 4824; 1698 (1645 until its DATE key re-hashed)
    ("q0011", 0): 60,  # 120
}

#: The two ORDER BY exchanges the fixture holds, by the query they sort:
#: TPC-H Q1's (6 groups) and Q3's (under its LIMIT 10).  Each read the
#: one partition PDE coalesced its aggregate into, and a one-partition
#: ORDER BY is sorted in that partition's task (DESIGN §17): no
#: exchange, so no record.
_IN_PLACE_SORTS = {
    ("q0009", 1): "tpch_q1",
    ("q0010", 2): "tpch_q3",
}

#: Rows per bucket of the two exchanges keyed by a DATE (the 2 500-group
#: aggregation's, Q3's GROUP BY): they moved once, on purpose, when a
#: date began to hash by its day number, as its datetime64 column does,
#: instead of by the crc32 of its ``repr``.  The same rows in all.
_REHASHED_ROWS = {
    ("q0005", 0): [
        79, 90, 73, 73, 85, 74, 94, 87, 83, 84, 77, 83, 64, 74, 78, 84, 70,
        80, 70, 93, 82, 84, 80, 91, 80, 100, 81, 80, 91, 76, 87, 75,
    ],
    ("q0010", 1): [
        4, 1, 0, 4, 1, 7, 0, 0, 7, 2, 2, 1, 4, 2, 3, 2, 4, 3, 4, 2, 2, 2, 3,
        0, 3, 3, 5, 0, 2, 5, 2, 2,
    ],
}

#: The fields of a record derived from its buckets' bytes ...
_BYTE_FIELDS = ("bytes", "total_bytes", "byte_skew")
#: ... and, of a re-hashed one, from its buckets' rows.
_ROW_FIELDS = ("rows", "row_skew", "straggler_partition")


def _exchange_of(record: dict) -> tuple[str, int]:
    return record["query_id"], record["shuffle_id"]


def test_skew_records_match_parent_commit(tmp_path):
    parent = [
        json.loads(line) for line in SKEW_FIXTURE.read_text().splitlines()
    ]
    gone = [r for r in parent if _exchange_of(r) in _IN_PLACE_SORTS]
    assert sorted(map(_exchange_of, gone)) == sorted(_IN_PLACE_SORTS)
    for record in gone:
        assert record["heavy_keys"][0][0] == shuffle.SORT_KEY_LABEL
        assert record["num_maps"] == 1
        query = _IN_PLACE_SORTS[_exchange_of(record)]
        assert sorted(QUERIES)[int(record["query_id"][1:])] == query
    # The parent's records but the one-partition sorts', in its order.
    parent = [r for r in parent if _exchange_of(r) not in _IN_PLACE_SORTS]
    current = _skew_lines(tmp_path)
    assert list(map(_exchange_of, current)) == list(map(_exchange_of, parent))
    assert len(current) == len(_EXCHANGE_BYTES) == 11
    for got, want in zip(current, parent):
        key = _exchange_of(got)
        # Same rows in the same buckets under the same labels ...
        moved = _REHASHED_ROWS.get(key)
        if moved is not None:
            assert got["rows"] == moved
            assert sum(moved) == sum(want["rows"])
            assert got["row_skew"] == max(moved) / (sum(moved) / len(moved))
            want = {k: v for k, v in want.items() if k not in _ROW_FIELDS}
        for name in set(want) - set(_BYTE_FIELDS) - {"ts", "seq"}:
            assert got[name] == want[name], (key, name)
        # ... weighing the pinned bytes, never more than at the parent.
        sizes = got["bytes"]
        assert got["total_bytes"] == sum(sizes) == _EXCHANGE_BYTES[key]
        assert got["total_bytes"] <= want["total_bytes"]
        assert got["byte_skew"] == max(sizes) / (sum(sizes) / len(sizes))
        assert [size > 0 for size in sizes] == [n > 0 for n in got["rows"]]
        assert got["heavy_keys"][0][0] != shuffle.SORT_KEY_LABEL


@pytest.mark.parametrize(
    "faults",
    [
        {"corrupt_fetch_rate": 1.0, "max_corrupt_fetches": 3},
        {"stragglers_per_stage": 1},
        {"kill_worker_id": 1, "kill_after_tasks": 60},
    ],
    ids=["refetch", "speculation", "worker-kill"],
)
def test_skew_records_exactly_once_under_map_reexecution(
    tmp_path, monkeypatch, faults
):
    writes = []
    real = shuffle.ShuffleManager.write_map_output

    def counting(self, dep, map_partition, *args, **kwargs):
        writes.append((dep.shuffle_id, map_partition))
        return real(self, dep, map_partition, *args, **kwargs)

    monkeypatch.setattr(shuffle.ShuffleManager, "write_map_output", counting)
    clean = _skew_lines(tmp_path)
    clean_writes = len(writes)
    assert len(set(writes)) == clean_writes  # fault-free: one write each
    chaotic = _skew_lines(
        tmp_path, fault_injector=FaultInjector(seed=5, **faults)
    )
    assert len(writes) - clean_writes > clean_writes, "no map task re-ran"
    assert list(map(_timeless, chaotic)) == list(map(_timeless, clean))


def test_no_key_is_labelled_unless_skew_is_asked_for(monkeypatch, tmp_path):
    calls = []
    real = shuffle._key_label

    def counting(key):
        calls.append(key)
        return real(key)

    monkeypatch.setattr(shuffle, "_key_label", counting)
    shark = _build(True, 4)
    for name in ("tpch_q3", "tpch_agg_max", "pavlo_join"):
        # A statement's statistics go with its scope; a sql2rdd plan's
        # live on the root scope, where they can be inspected.
        shark.sql2rdd(QUERIES[name].rstrip()).collect()
    assert calls == []
    # The master keeps per-bucket counts only, never the keys themselves.
    manager = shark.engine.shuffle_manager
    assert manager._stats
    for stats in manager._stats.values():
        for status in stats.statuses.values():
            assert len(status.rows) == len(status.sizes) == stats.num_reduces
            assert status.sample is None
    # ... and asking pays: the event log labels the same keys on demand.
    shark.enable_event_log(tmp_path / "on.jsonl", source="exchange-parity")
    shark.sql(QUERIES["tpch_agg_7"].rstrip())
    shark.close_event_log()
    assert calls


# ---------------------------------------------------------------------------
# (d) one exchange, whatever the storage: same rows, same buckets, same bytes
# ---------------------------------------------------------------------------


_WRITE_MAP_OUTPUT = shuffle.ShuffleManager.write_map_output
_CUT_RUNS = shuffle.ShuffleManager.cut_runs
_FETCH = shuffle.ShuffleManager.fetch


def _stored_exchanges(compress: bool, monkeypatch) -> dict:
    """Every exchange of the TPC-H + Pavlo set as it was stored (a sort's
    runs as they were cut) and read: ``stored[(query, exchange ordinal,
    map partition)]`` is one ``(rows, bytes)`` per bucket,
    ``fetches[(query, exchange ordinal)]`` how often each bucket was
    fetched, ``counters[query]`` the query's
    ``shuffle.{write,read}.bytes``."""
    shark = _build(compress, 4)
    stored: dict = {}
    fetches: dict = {}
    counters: dict = {}
    seen: list = []
    current = [None]

    def recording(self, dep, map_partition, worker_id, batch, metrics=None):
        _WRITE_MAP_OUTPUT(self, dep, map_partition, worker_id, batch, metrics)
        record(self, dep, map_partition)

    def cutting(self, dep):
        _CUT_RUNS(self, dep)
        for map_partition in range(self.stats(dep.shuffle_id).num_maps):
            record(self, dep, map_partition)

    def record(self, dep, map_partition):
        if dep.shuffle_id not in seen:
            seen.append(dep.shuffle_id)
        block = self._stored_block(dep.shuffle_id, map_partition)
        rows = block.batch.materialize_rows()
        stored[(current[0], seen.index(dep.shuffle_id), map_partition)] = [
            (list(map(repr, rows[start:stop])), size)
            for start, stop, size in zip(
                block.offsets, block.offsets[1:], block.sizes
            )
        ]

    def counting(self, shuffle_id, reduce_partitions, metrics=None):
        fetched = _FETCH(self, shuffle_id, reduce_partitions, metrics)
        if isinstance(reduce_partitions, int):
            reduce_partitions = [reduce_partitions]
        counts = fetches.setdefault(
            (current[0], seen.index(shuffle_id)), Counter()
        )
        counts.update(reduce_partitions)
        return fetched

    monkeypatch.setattr(shuffle.ShuffleManager, "write_map_output", recording)
    monkeypatch.setattr(shuffle.ShuffleManager, "cut_runs", cutting)
    monkeypatch.setattr(shuffle.ShuffleManager, "fetch", counting)
    for name in sorted(QUERIES):
        current[0] = name
        del seen[:]
        before = [
            shark.metrics.value(f"shuffle.{side}.bytes")
            for side in ("write", "read")
        ]
        shark.sql(QUERIES[name].rstrip())
        counters[name] = tuple(
            shark.metrics.value(f"shuffle.{side}.bytes") - was
            for side, was in zip(("write", "read"), before)
        )
    assert not shark.engine.shuffle_manager.registered_block_ids()
    return {"stored": stored, "fetches": fetches, "counters": counters}


def test_both_modes_ship_identical_buckets(monkeypatch):
    """Compressed tables hand the kernels coded columns, plain ones
    arrays and lists: the exchange must not tell them apart."""
    coded = _stored_exchanges(True, monkeypatch)
    plain = _stored_exchanges(False, monkeypatch)
    assert coded["stored"].keys() == plain["stored"].keys()
    # (query, exchange, map partition).
    assert len(coded["stored"]) == 44
    for key, buckets in coded["stored"].items():
        # The same rows, in the same order, in the same buckets ...
        assert [rows for rows, __ in buckets] == [
            rows for rows, __ in plain["stored"][key]
        ], key
        # ... at the same encoded sizes: the size rule reads values,
        # not the arrays, lists or codes that held them.
        assert [size for __, size in buckets] == [
            size for __, size in plain["stored"][key]
        ], key
    assert coded["fetches"] == plain["fetches"]
    assert coded["counters"] == plain["counters"]


def test_reduce_side_reads_the_bytes_the_map_side_wrote(monkeypatch):
    """A fetch is charged the recorded sizes of its buckets, so the read
    bytes of a query sum to the written bytes of each of its exchanges
    times the exchange's consumers (one: an ORDER BY reads its input
    once, its own map output being the sample)."""
    observed = _stored_exchanges(True, monkeypatch)
    written: Counter = Counter()
    for (name, exchange, __), buckets in observed["stored"].items():
        written[(name, exchange)] += sum(size for __, size in buckets)
    expected_reads: Counter = Counter()
    for (name, exchange), counts in observed["fetches"].items():
        consumers = set(counts.values())
        assert len(consumers) == 1, (name, exchange)  # whole reads only
        expected_reads[name] += consumers.pop() * written[(name, exchange)]
    for name, (write_bytes, read_bytes) in observed["counters"].items():
        assert write_bytes == sum(
            size for key, size in written.items() if key[0] == name
        )
        assert read_bytes == expected_reads[name], name
    assert sum(1 for size in written.values() if size) == len(
        _EXCHANGE_BYTES
    )


# ---------------------------------------------------------------------------
# (e) the sort exchange: its map side is the sample
# ---------------------------------------------------------------------------


def _reference_sort_buckets(
    arrived: dict, keys: list, key: tuple, target: int
) -> tuple[dict, int, bool]:
    """The sampler ``RDD.sort_batches`` ran as two jobs of its own before
    its map stage, kept as the reference: the bucket ``SortPartitioner``
    puts every row of every map partition (``arrived[split]``, in the
    order the map task received them) into, under the bounds picked
    from a seeded 10 % sample — or, when that holds fewer than
    ``max(20 × target, 100)`` keys, from every key.  Also says which."""

    def flat(rows: list) -> list:
        return flat_sort_keys(keys, [[row[i] for row in rows] for i in key])

    sample = []
    for split in sorted(arrived):
        rng = random.Random(29 * 1_000_003 + split)
        sample.extend(
            flat([row for row in arrived[split] if rng.random() < 0.1])
        )
    sampled = len(sample) >= max(20 * target, 100)
    if not sampled:
        sample = [k for split in sorted(arrived) for k in flat(arrived[split])]
    bounds = []
    if target > 1:
        ordered = sorted(sample)
        step = max(1, len(ordered) // target)
        bounds = ordered[step::step][: target - 1]
    partitioner = SortPartitioner(bounds, keys)
    placed = {
        split: partitioner.partition_many(flat(rows))
        for split, rows in arrived.items()
    }
    return placed, partitioner.num_partitions, sampled


def _sort_exchange(shark: SharkContext, text: str):
    """Run ``text``.  Returns its rows, and of its sort exchange what each
    map task was handed (rows in arrival order), each stored run's
    buckets as the reduce side reads them, and the dependency."""
    arrived: dict = {}
    buckets: dict = {}
    deps: list = []

    def writing(self, dep, map_partition, worker_id, batch, metrics=None):
        if isinstance(dep, SortShuffleDependency):
            deps.append(dep)
            arrived[map_partition] = batch.materialize_rows()
        _WRITE_MAP_OUTPUT(self, dep, map_partition, worker_id, batch, metrics)

    def fetching(self, shuffle_id, reduce_partitions, metrics=None):
        if deps and shuffle_id == deps[0].shuffle_id and not buckets:
            for split in range(self.stats(shuffle_id).num_maps):
                block = self._stored_block(shuffle_id, split)
                rows = block.batch.materialize_rows()
                buckets[split] = [
                    rows[start:stop]
                    for start, stop in zip(block.offsets, block.offsets[1:])
                ]
        return _FETCH(self, shuffle_id, reduce_partitions, metrics)

    with mock.patch.object(
        shuffle.ShuffleManager, "write_map_output", writing
    ), mock.patch.object(shuffle.ShuffleManager, "fetch", fetching):
        rows = shark.sql(text).rows
    return rows, arrived, buckets, deps[0] if deps else None


@st.composite
def _exchange_cases(draw):
    """An ORDER BY over 1-3 columns of drawn types and directions, rows
    with NULLs (or none) and ties, in 1-4 partitions, sorted into 1-4
    ranges: a handful of rows (bounds from every key) or a thousand and
    more (bounds from the sample)."""
    types, ascendings, rows = draw(_sort_cases())
    null_free = draw(st.booleans())
    if null_free:
        rows = [row for row in rows if None not in row]
    if draw(st.booleans()):
        rng = random.Random(draw(st.integers(0, 2 ** 16)))
        pools = [
            _SORT_POOLS[data_type] + ([] if null_free else [None])
            for data_type in types
        ]
        rows = [
            tuple(map(rng.choice, pools))
            for __ in range(draw(st.integers(1000, 1600)))
        ]
    assume(rows)
    return (
        types, ascendings, rows,
        draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.booleans()),
    )


@settings(max_examples=60, deadline=None)
@given(case=_exchange_cases())
@example(case=([INT], [True], [(2,), (1,), (None,), (1,)], 2, 2, True))
def test_sort_buckets_hold_what_the_sampler_placed_there(case):
    types, ascendings, rows, partitions, target, cached = case
    shark = SharkContext(num_workers=2, default_parallelism=target)
    shark.create_table(
        "t",
        Schema([Field(f"c{i}", t) for i, t in enumerate(types)]),
        cached=cached,
    )
    shark.load_rows("t", rows, num_partitions=partitions)
    order_by = ", ".join(
        f"c{i}" + ("" if ascending else " DESC")
        for i, ascending in enumerate(ascendings)
    )
    got, arrived, buckets, dep = _sort_exchange(
        shark, f"SELECT * FROM t ORDER BY {order_by}"
    )
    ordinals = list(range(len(types)))
    scan = shark.sql2rdd("SELECT * FROM t").rdd
    if scan.num_partitions == 1:
        # One partition is sorted in its own task: no exchange, no run.
        event("sorted in place")
        assert dep is None and not arrived and not buckets
        scanned = shark.sql("SELECT * FROM t").rows
        assert list(map(repr, got)) == list(
            map(repr, _reference_sort(scanned, ordinals, ascendings))
        )
        return
    keys = [
        (BoundColumn(i, data_type, f"c{i}"), ascending)
        for i, (data_type, ascending) in enumerate(zip(types, ascendings))
    ]
    assert dep.key == tuple(ordinals)
    placed, num_buckets, sampled = _reference_sort_buckets(
        arrived, keys, dep.key, target
    )
    event(f"{num_buckets} buckets, bounds from the {'sample' if sampled else 'keys'}")
    assert sorted(buckets) == sorted(arrived)
    for split, received in arrived.items():
        want = [[] for __ in range(num_buckets)]
        for row, bucket in zip(received, placed[split]):
            want[bucket].append(row)
        # The same rows in every bucket, each slice of the run in order.
        assert [list(map(repr, bucket)) for bucket in buckets[split]] == [
            list(map(repr, _reference_sort(rows, ordinals, ascendings)))
            for rows in want
        ], split
    scanned = [row for split in sorted(arrived) for row in arrived[split]]
    assert list(map(repr, got)) == list(
        map(repr, _reference_sort(scanned, ordinals, ascendings))
    )


@pytest.mark.parametrize("order_by", ["a", "s DESC, a DESC", "ts DESC, e DESC, a"])
def test_run_lost_after_the_bounds_is_cut_again_by_lineage(
    sort_shark, order_by
):
    """The worker holding map 0's run dies right after the runs are cut:
    lineage re-runs what it held, each rewritten run is cut as it is
    stored, and the rows do not move."""
    text = f"SELECT * FROM t ORDER BY {order_by}"
    want = sort_shark.sql(text).rows
    shark = _sort_shark()
    killed: list = []
    rewrites: list = []

    def cutting(self, dep):
        _CUT_RUNS(self, dep)
        killed.append(self._locations[dep.shuffle_id][0])
        self._cluster.kill_worker(killed[-1])

    def writing(self, dep, map_partition, worker_id, batch, metrics=None):
        if killed and isinstance(dep, SortShuffleDependency):
            rewrites.append((map_partition, dep.resolved))
        _WRITE_MAP_OUTPUT(self, dep, map_partition, worker_id, batch, metrics)

    with mock.patch.object(
        shuffle.ShuffleManager, "cut_runs", cutting
    ), mock.patch.object(shuffle.ShuffleManager, "write_map_output", writing):
        got = shark.sql(text).rows
    assert killed and (0, True) in rewrites
    assert all(resolved for __, resolved in rewrites)
    assert list(map(repr, got)) == list(map(repr, want))


_TOP_K_COLUMNS = ["id", "a", "s", "f", "d", "b"]

#: (ORDER BY, k): ties at the k-th key (``a`` has 11 values over 700
#: rows), NULLs first (ascending) and last (descending), DESC strings,
#: k past the row count, LIMIT 0.
_TOP_K = [
    ("a", 100),
    ("a", 1),
    ("a DESC", 650),
    ("s DESC, a", 37),
    ("d DESC, b", 5),
    ("f DESC", 700),
    ("b DESC, s DESC, d", 1000),
    ("a", 0),
]


@pytest.mark.parametrize("order_by,k", _TOP_K, ids=[f"{o}-{k}" for o, k in _TOP_K])
def test_top_k_is_the_first_k_rows_of_the_full_sort(sort_shark, order_by, k):
    select = f"SELECT {', '.join(_TOP_K_COLUMNS)} FROM t ORDER BY {order_by}"
    full = sort_shark.sql(select).rows
    written = sort_shark.metrics.value("shuffle.write.records")
    got = sort_shark.sql(f"{select} LIMIT {k}").rows
    assert list(map(repr, got)) == list(map(repr, full[:k]))
    # One range, to which each map task ships its first k rows.
    written = sort_shark.metrics.value("shuffle.write.records") - written
    scanned = sort_shark.engine.run_job(
        sort_shark.sql2rdd("SELECT id FROM t").rdd, len
    )
    assert len(scanned) == 4
    assert written == sum(min(k, rows) for rows in scanned)
    partitioner = _range_partitioner_of(
        sort_shark.sql2rdd(f"{select} LIMIT {k}").rdd
    )
    assert partitioner.num_partitions == 1
    # sqlite keeps other rows among the ties at the k-th key, with the
    # same keys in the same places; with ``id`` breaking ties, the same
    # rows.
    tables = {"t": (_TOP_K_COLUMNS, [row[:6] for row in _sort_rows()])}
    positions = [
        _TOP_K_COLUMNS.index(term.split()[0]) for term in order_by.split(",")
    ]
    assert [[row[i] for i in positions] for row in iso_rows(got)] == [
        [row[i] for i in positions]
        for row in sqlite_rows(f"{select} LIMIT {k}", tables)
    ]
    assert_rows_match(
        sort_shark.sql(f"{select}, id LIMIT {k}").rows,
        sqlite_rows(f"{select}, id LIMIT {k}", tables),
        ordered=True,
    )


@pytest.mark.parametrize("name", ["Q1", "Q3", "ORDER_BY"])
def test_an_order_by_computes_its_child_once(name):
    """No sampling job reads the sort's input before its map stage does:
    no ``sample`` or ``map`` stage, and no stage runs twice."""
    from benchmarks.perf import queries

    shark = _build(True, 4)
    shark.engine.reset_profiles()
    shark.sql(getattr(queries, name))
    ran = Counter(
        (stage.stage_id, stage.name)
        for profile in shark.engine.profiles
        for stage in profile.stages
        if stage.num_tasks
    )
    assert ran and set(ran.values()) == {1}
    assert not {"sample", "map"} & {name for __, name in ran}


# ---------------------------------------------------------------------------
# (f) one status per map output: what PDE reads is what was stored
# ---------------------------------------------------------------------------


_RELEASE_SHUFFLE = shuffle.ShuffleManager.release_shuffle


def _reported_statuses(monkeypatch, **context_kwargs) -> dict:
    """Run the TPC-H + Pavlo set.  Right after a map output is stored
    (or a sort's runs are cut), its status must be its pinned block's
    bucket rows and sizes; when a query lets go of an exchange, PDE's
    reduce-side sizes must be the per-bucket sums of those sizes through
    their one-byte codes.  Returns ``(query, exchange ordinal) ->
    {map partition: (rows, sizes)}`` as each exchange was released, and
    how many map outputs were written."""
    shark = _build(True, 4, **context_kwargs)
    reported: dict = {}
    current = [None]
    writes = [0]

    def check(self, dep, map_partition):
        status = self.stats(dep.shuffle_id).statuses[map_partition]
        block = self._stored_block(dep.shuffle_id, map_partition)
        offsets = block.offsets
        assert status.rows == [b - a for a, b in zip(offsets, offsets[1:])]
        assert status.sizes == block.sizes

    def writing(self, dep, map_partition, worker_id, batch, metrics=None):
        _WRITE_MAP_OUTPUT(self, dep, map_partition, worker_id, batch, metrics)
        check(self, dep, map_partition)
        writes[0] += 1

    def cutting(self, dep):
        _CUT_RUNS(self, dep)
        for map_partition in self.stats(dep.shuffle_id).statuses:
            check(self, dep, map_partition)

    def releasing(self, shuffle_id):
        stats = self._stats.get(shuffle_id)
        if stats is not None and stats.statuses:
            statuses = stats.statuses.values()
            assert stats.reduce_input_sizes() == [
                sum(
                    shuffle.log_decode_size(
                        shuffle.log_encode_size(status.sizes[bucket])
                    )
                    for status in statuses
                )
                for bucket in range(stats.num_reduces)
            ]
            reported.setdefault(current[0], {})[shuffle_id] = {
                map_partition: (status.rows, status.sizes)
                for map_partition, status in stats.statuses.items()
            }
        return _RELEASE_SHUFFLE(self, shuffle_id)

    monkeypatch.setattr(shuffle.ShuffleManager, "write_map_output", writing)
    monkeypatch.setattr(shuffle.ShuffleManager, "cut_runs", cutting)
    monkeypatch.setattr(shuffle.ShuffleManager, "release_shuffle", releasing)
    for name in sorted(QUERIES):
        current[0] = name
        shark.sql(QUERIES[name].rstrip())
    return {
        (name, ordinal): reported[name][shuffle_id]
        for name in sorted(reported)
        for ordinal, shuffle_id in enumerate(sorted(reported[name]))
    }, writes[0]


def test_each_status_is_its_stored_block_clean_and_under_a_kill(monkeypatch):
    clean, clean_writes = _reported_statuses(monkeypatch)
    # Every exchange of the set, by query: none for a one-partition sort.
    assert Counter(name for name, __ in clean) == Counter(
        sorted(QUERIES)[int(query_id[1:])] for query_id, __ in _EXCHANGE_BYTES
    )
    killed, killed_writes = _reported_statuses(
        monkeypatch,
        fault_injector=FaultInjector(
            seed=5, kill_worker_id=1, kill_after_tasks=60
        ),
    )
    assert killed_writes > clean_writes, "no map task re-ran"
    # Each re-run map task overwrote its own status: PDE saw the clean
    # run's numbers.
    assert killed == clean


if __name__ == "__main__":
    import tempfile

    for _record in _skew_lines(Path(tempfile.mkdtemp())):
        print(json.dumps(_record, sort_keys=True))
