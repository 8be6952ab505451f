"""The batch-at-a-time exchange against its per-record references.

The exchange partitions, labels and sorts a map task's output as one
keyed batch (DESIGN §17).  Every batch routine is pinned here to the
per-record definition it replaced:

(a) ``Partitioner.partition_many(keys)`` equals ``partition(key)`` per
    key, for every partitioner and every key type the shuffle carries;
(b) the native ORDER BY keys sort exactly as the old per-row comparator
    object did — it lives on in this file as :class:`ReferenceSortKey`,
    the reference — through SQL in both vectorize modes, and capped
    (``ExternalSorter`` spilled runs) equals uncapped;
(c) ``shuffle_skew`` event-log records equal the parent commit's
    (``fixtures/shuffle_skew_parent.jsonl``; an ORDER BY exchange's
    differs in its shrunken ``bytes`` alone), are exactly-once under
    map-task re-execution, and cost nothing while nobody asks for them.

Regenerating the fixture (only ever from the commit *before* a change
to the exchange)::

    PYTHONPATH=<parent checkout>/src python tests/engine/test_exchange_parity.py \
        > tests/engine/fixtures/shuffle_skew_parent.jsonl
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import replace
from datetime import date
from operator import itemgetter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

_ROOT = Path(__file__).resolve().parents[2]
if str(_ROOT) not in sys.path:  # run as a script: make ``tests.*`` importable
    sys.path.insert(0, str(_ROOT))

from repro import SharkContext  # noqa: E402
from repro.datatypes import (  # noqa: E402
    BOOLEAN,
    DATE,
    DOUBLE,
    INT,
    STRING,
    Field,
    Schema,
)
from repro.engine import shuffle  # noqa: E402
from repro.engine.partitioner import (  # noqa: E402
    FunctionPartitioner,
    HashPartitioner,
    RangePartitioner,
    stable_hash,
    stable_hash_many,
)
from repro.faults.injector import FaultInjector  # noqa: E402
from repro.sql.expressions import BoundColumn  # noqa: E402

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
    # Columns hashed through one crc32-of-repr map: exact floats, dates,
    # datetimes (alone and as Q3's (key, date) tuples) ...
    _homogeneous(st.floats(allow_nan=True, allow_infinity=True)),
    _homogeneous(st.dates()),
    _homogeneous(st.datetimes()),
    _homogeneous(st.tuples(st.integers(-9, 9), st.dates())),
    # ... and what must still go key by key: subclasses of those types
    # and columns mixing them.
    _homogeneous(st.floats(allow_nan=True).map(np.float64)),
    _homogeneous(st.dates().map(_SubclassedDate.of)),
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
    assert stable_hash_many(keys).tolist() == list(map(stable_hash, keys))


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
]


def _sort_shark(**context_kwargs) -> SharkContext:
    shark = SharkContext(num_workers=4, cores_per_worker=2, **context_kwargs)
    shark.create_table("t", _SORT_SCHEMA, cached=True)
    shark.load_rows("t", _sort_rows(), num_partitions=4)
    return shark


@pytest.fixture(scope="module")
def sort_shark():
    return _sort_shark()


@pytest.mark.parametrize("vectorize", [True, False], ids=["vec", "row"])
@pytest.mark.parametrize("order_by,spec", _ORDERINGS, ids=[o for o, __ in _ORDERINGS])
def test_order_by_matches_reference_comparator(
    sort_shark, order_by, spec, vectorize
):
    sort_shark.session.config = replace(
        sort_shark.session.config, vectorize=vectorize
    )
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


@pytest.mark.parametrize("order_by", [o for o, __ in _ORDERINGS])
def test_capped_sort_spills_and_equals_uncapped(sort_shark, order_by):
    capped = _sort_shark(memory_per_worker_bytes=8 * 1024)
    text = f"SELECT * FROM t ORDER BY {order_by}"
    want = sort_shark.sql(text).rows
    got = capped.sql(text).rows
    spilled = {row["owner"] for row in capped.engine.memory.spill_rows()}
    assert "sort" in spilled, "the cap forced no ExternalSorter runs"
    assert list(map(repr, got)) == list(map(repr, want))
    assert capped.engine.memory.clamped_release_bytes == 0


_SORT_VALUE = {
    INT: st.one_of(st.none(), st.integers(-3, 3)),
    DOUBLE: st.one_of(
        st.none(), st.integers(-2, 2), st.sampled_from([0.5, -0.5, -0.0, 1e300])
    ),
    STRING: st.one_of(st.none(), st.sampled_from(["", "a", "ab", "b", "é"])),
    DATE: st.one_of(
        st.none(), st.sampled_from([date(1999, 1, 1), date(2001, 5, 9)])
    ),
    BOOLEAN: st.one_of(st.none(), st.booleans()),
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


@settings(max_examples=300, deadline=None)
@given(case=_sort_cases())
def test_native_keys_order_like_reference_comparator(case):
    from repro.sql.physical import row_sort_keys

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


#: What an ORDER BY exchange ships now that its keys are plain tuples
#: rather than pickled comparator objects, by ``query_id``: the only
#: fields of its record that differ from the parent commit's.
_SORT_EXCHANGE_BYTES = {
    "q0009": [136, 76, 76, 76, 76, 5],  # parent: 796 bytes in total
    "q0010": [482, 441, 442, 442, 437, 441, 443, 477],  # parent: 5481
}


def test_skew_records_match_parent_commit(tmp_path):
    parent = [
        json.loads(line) for line in SKEW_FIXTURE.read_text().splitlines()
    ]
    current = _skew_lines(tmp_path)
    assert len(current) == len(parent)
    sort_exchanges = []
    for got, want in zip(current, parent):
        assert got["seq"] == want["seq"]
        if want["heavy_keys"][0][0] == shuffle.SORT_KEY_LABEL:
            # Same rows in the same buckets under the same label; only
            # the bytes shrink.
            sort_exchanges.append(got["query_id"])
            sizes = _SORT_EXCHANGE_BYTES[got["query_id"]]
            assert got["bytes"] == sizes
            assert all(g <= w for g, w in zip(sizes, want["bytes"]))
            mean = sum(sizes) / len(sizes)
            want = {
                **want,
                "bytes": sizes,
                "total_bytes": sum(sizes),
                "byte_skew": max(sizes) / mean,
            }
        assert json.dumps(_timeless(got), sort_keys=True) == json.dumps(
            _timeless(want), sort_keys=True
        )
    assert sort_exchanges == sorted(_SORT_EXCHANGE_BYTES)  # Q1 and Q3


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
        for partial in stats.skew_partials.values():
            assert set(partial) == {"rows", "bytes"}
    # ... and asking pays: the event log labels the same keys on demand.
    shark.enable_event_log(tmp_path / "on.jsonl", source="exchange-parity")
    shark.sql(QUERIES["tpch_agg_7"].rstrip())
    shark.close_event_log()
    assert calls


if __name__ == "__main__":
    import tempfile

    for _record in _skew_lines(Path(tempfile.mkdtemp())):
        print(json.dumps(_record, sort_keys=True))
