"""A cached table returns the values an external one does (DESIGN §16).

The memstore writes a column in the format exchanges ship and keeps the
smallest of its encodings; these pin what that must not change: the sign
of a zero (run-length and dictionary forms compare doubles by their
bits, so ``-0.0`` is not ``0.0``), and an integer the schema's array
cannot hold (the column is then typed by its values, as an exchange
types it, instead of failing the load).
"""

import math

import pytest

from repro import SharkContext
from repro.datatypes import BIGINT, DOUBLE, INT, Schema

_ZEROS = {
    "runs": [0.0, -0.0, 0.0, 0.0, 0.0],
    "dictionary": [-0.0, 0.0, 1.5, 2.5] * 2,
    "one run each": [-0.0] * 6 + [0.0] * 6,
}


def _both(data_type, values):
    """Rows of ``SELECT x`` from a cached and an external table holding
    ``values``, each loaded as one block."""
    shark = SharkContext(num_workers=2)
    out = []
    for name, cached in (("cached", True), ("external", False)):
        shark.create_table(name, Schema.of(("x", data_type)), cached=cached)
        shark.load_rows(name, [(value,) for value in values], num_partitions=1)
        out.append(shark.sql(f"SELECT x FROM {name}").rows)
    return out


@pytest.mark.parametrize("values", list(_ZEROS.values()), ids=list(_ZEROS))
def test_a_cached_double_keeps_the_sign_of_zero(values):
    cached, external = _both(DOUBLE, values)
    signs = [math.copysign(1.0, value) for value in values]
    assert [math.copysign(1.0, x) for x, in cached] == signs
    assert [math.copysign(1.0, x) for x, in external] == signs
    assert list(map(repr, cached)) == list(map(repr, external))


@pytest.mark.parametrize("data_type", [INT, BIGINT], ids=str)
@pytest.mark.parametrize(
    "values",
    [
        [2**40, 1],  # beyond int32
        [2**70, 1, None],  # beyond int64
        [-(2**63), 2**63 - 1, 5],
    ],
    ids=["int32", "int64", "extremes"],
)
def test_an_int_beyond_the_schema_array_loads(data_type, values):
    cached, external = _both(data_type, values)
    assert cached == external == [(value,) for value in values]


def test_insert_and_ctas_of_a_wide_int():
    shark = SharkContext(num_workers=2)
    shark.sql("CREATE TABLE c (x INT) TBLPROPERTIES ('shark.cache' = 'true')")
    shark.sql("CREATE TABLE e (x INT)")
    for name in ("c", "e"):
        shark.sql(f"INSERT INTO {name} VALUES (1099511627776), (1)")
    shark.sql(
        "CREATE TABLE copied TBLPROPERTIES ('shark.cache' = 'true') "
        "AS SELECT * FROM e"
    )
    want = [(1099511627776,), (1,)]
    for name in ("c", "e", "copied"):
        assert shark.sql(f"SELECT x FROM {name}").rows == want
