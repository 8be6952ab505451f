"""``TextSerde.decode_batch`` parses each column from its fields' bytes.

Differential: drawn rows (typed values beside odd texts) go through
``encode_batch`` and ``decode_batch``, and every column must equal the
per-field reference — ``_parse_value`` on each field, then
``Vector.from_values`` — ``repr`` for ``repr`` and of the same dtype, or
raise the reference's error.  Then the byte parse must really run: a
CTAS from an external table writes the bytes ``load_rows`` writes, and
a lineitem block decodes with the per-field parse patched to raise.
"""

import math
from datetime import date

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import SharkContext
from repro.columnar.batch import CodedVector, ColumnBatch, Vector
from repro.columnar.serde import TextSerde
from repro.datatypes import (
    BIGINT,
    BOOLEAN,
    DATE,
    DOUBLE,
    INT,
    STRING,
    TIMESTAMP,
    Schema,
)
from repro.errors import StorageError
from repro.workloads import pavlo, tpch

#: Per type: its values, and texts that no value of it prints as.
_FIELDS = {
    INT: st.integers(-(2**31), 2**31 - 1)
    | st.sampled_from([0, -1, 7, -(2**31), 2**31 - 1])
    | st.sampled_from(["007", "+5", "-0", "", " 5", "1_000", "1.0", "-"]),
    BIGINT: st.integers(-(2**64), 2**64)
    | st.sampled_from([
        -(2**63), 2**63 - 1, 2**63, -(2**63) - 1, 10**18 - 1, -(10**18),
    ])
    | st.sampled_from(["9" * 18, "-" + "9" * 18, "0" * 19, "00042"]),
    DOUBLE: st.floats()
    | st.sampled_from([
        -0.0, 0.0, 1e-05, 1e16, 0.1 + 0.2, 1 / 3, 2.0**53 + 2,
        123456789012345.6, 12345678901234.5, math.inf, -math.inf,
        math.nan,
        # 17 and 16 digits whose digits as one int are no exact double:
        # ``w / 10**k`` of them is not the float.
        0.38120423768821243, 0.9524673882682695,
    ])
    | st.sampled_from(["5", "5.", ".5", "-.5", "1e5", "+1.5", "00.10",
                       "1..2", "0.00000000000001"]),
    DATE: st.dates()
    | st.sampled_from([
        date(1, 1, 1), date(9999, 12, 31), date(2024, 2, 29),
    ])
    | st.sampled_from(["2023-02-29", "2024-02-30", "0000-01-01",
                       "2024-13-01", "2024-00-10", "2024-1-01",
                       "20240101"]),
    STRING: st.text(max_size=9)
    | st.sampled_from([
        "", "a", "\\N", "a\\b", "é", "\x00", "a\x00", "\r", "a\nb",
        "x\x01y", "1234567", "12345678", "ÄÖ",
    ]),
    BOOLEAN: st.booleans(),
    TIMESTAMP: st.datetimes().map(lambda stamp: stamp.replace(fold=0)),
}


@st.composite
def _tables(draw):
    """(schema, rows, a row of the wrong width or None, where it goes)."""
    types = draw(st.lists(st.sampled_from(list(_FIELDS)), min_size=1,
                          max_size=4))
    width = len(types)
    schema = Schema.of(*((f"c{i}", t) for i, t in enumerate(types)))
    num_rows = draw(st.integers(1, 12))
    columns = []
    for data_type in types:
        field = _FIELDS[data_type] | st.none()
        column = draw(
            st.lists(field, min_size=num_rows, max_size=num_rows)
            | st.tuples(field).map(lambda value: value * num_rows)
        )
        columns.append(column)
    rows = list(zip(*columns))
    ragged = None
    if draw(st.integers(0, 9)) == 0:
        ragged = draw(st.sampled_from([width - 1, width + 1]).filter(bool))
    return schema, rows, ragged, draw(st.integers(0, num_rows))


def _payload(schema: Schema, rows: list, ragged, at: int) -> bytes:
    width = len(schema)
    payload = TextSerde(schema).encode_batch(
        ColumnBatch.from_rows(rows, width)
    )
    if ragged is None:
        return payload
    lines = payload.split(b"\n")[:-1]
    lines.insert(at, b"\x01".join([b"1"] * ragged))
    return b"\n".join(lines) + b"\n"


def _outcome(parse):
    """A decode's columns as (dtype, repr of values), or its error."""
    try:
        vectors = parse()
    except Exception as error:  # compared by type and message
        return type(error), str(error)
    return [
        (str(getattr(v.data, "dtype", "list")), repr(v.to_python_list()))
        for v in vectors
    ]


def _reference(serde: TextSerde, payload: bytes) -> list:
    """The per-field parse: each field's text, ``_parse_value``, then
    ``Vector.from_values`` of the column."""
    rows = [line.split("\x01") for line in payload.decode().split("\n")[:-1]]
    width = len(serde.schema)
    for row in rows:
        if len(row) != width:
            raise StorageError(
                f"text row has {len(row)} fields, schema has {width}"
            )
    return [
        Vector.from_values(
            [serde._parse_value(row[i], data_type) for row in rows]
        )
        for i, data_type in enumerate(serde.schema.types)
    ]


@given(_tables())
@example((Schema.of(("d", DOUBLE)), [(-0.0,), (0.0,)], None, 0))
@example((Schema.of(("d", DOUBLE)), [(0.38120423768821243,)], None, 0))
@example((Schema.of(("d", DATE), ("s", STRING)),
          [(date(2024, 2, 29), "a"), ("2023-02-30", "b")], None, 0))
@example((Schema.of(("i", BIGINT)), [(2**63,), (-(2**63),)], None, 0))
@example((Schema.of(("i", INT), ("s", STRING)), [(1, "x")], 3, 1))
@settings(max_examples=300, deadline=None)
def test_decode_is_the_per_field_parse(table):
    schema, rows, ragged, at = table
    serde = TextSerde(schema)
    payload = _payload(schema, rows, ragged, at)
    got = _outcome(lambda: serde.decode_batch(payload).vectors())
    assert got == _outcome(lambda: _reference(serde, payload))


def test_an_invalid_day_raises_what_fromisoformat_raises():
    serde = TextSerde(Schema.of(("d", DATE)))
    with pytest.raises(ValueError) as error:
        serde.decode_batch(b"2024-02-29\n2023-02-30\n")
    with pytest.raises(ValueError) as want:
        date.fromisoformat("2023-02-30")
    assert str(error.value) == str(want.value)


def test_a_lineitem_block_takes_no_per_field_parse(monkeypatch):
    """Every lineitem column has a byte parse: numbers are arrays,
    dates days and the short strings coded, with no field parsed alone."""
    data = tpch.generate_lineitem(num_rows=600, seed=7)
    serde = TextSerde(data.schema)
    payload = serde.encode(data.rows)
    want = serde.decode(payload)

    def refuse(*args):
        raise AssertionError("a lineitem field took the per-field parse")

    monkeypatch.setattr(TextSerde, "_parse_value", refuse)
    batch = serde.decode_batch(payload)
    assert batch.materialize_rows() == want
    for field, vector in zip(serde.schema.fields, batch.vectors()):
        if field.data_type == STRING:
            assert isinstance(vector, CodedVector), field.name
        else:
            assert vector.data.dtype.kind in "ifM", field.name


def _blocks(shark: SharkContext, name: str) -> list:
    table = shark.table_entry(name).cached_rdd
    blocks = shark.engine.run_job(table, lambda blks: blks[0])
    return [
        (
            [block.column_bytes(i) for i in range(len(block.schema))],
            [block.stats.column(name) for name in block.schema.names],
        )
        for block in blocks
    ]


@pytest.mark.parametrize(
    "dataset",
    [
        lambda: tpch.generate_lineitem(num_rows=900, seed=3),
        lambda: tpch.generate_orders(num_rows=600, seed=3),
        lambda: pavlo.generate_uservisits(num_rows=900, seed=3),
    ],
    ids=["lineitem", "orders", "uservisits"],
)
def test_ctas_from_text_writes_the_bytes_load_rows_writes(dataset):
    data = dataset()
    shark = SharkContext(num_workers=2)
    shark.create_table("src", data.schema, cached=False)
    shark.load_rows("src", data.rows, num_partitions=2)
    shark.create_table("mem", data.schema, cached=True)
    shark.load_rows("mem", data.rows, num_partitions=2)
    shark.sql(
        "CREATE TABLE ctas TBLPROPERTIES ('shark.cache' = 'true') "
        "AS SELECT * FROM src"
    )
    assert _blocks(shark, "ctas") == _blocks(shark, "mem")
