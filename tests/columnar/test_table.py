"""ColumnarPartition: marshalling, late materialization, footprints."""

import random

import pytest

from repro.columnar import (
    ColumnarPartition,
    jvm_object_footprint,
    serialized_footprint,
)
from repro.datatypes import (
    ArrayType,
    BOOLEAN,
    DOUBLE,
    INT,
    STRING,
    Schema,
)

SCHEMA = Schema.of(
    ("id", INT),
    ("mode", STRING),
    ("price", DOUBLE),
    ("flag", BOOLEAN),
)


def _rows(n=500, seed=0):
    rng = random.Random(seed)
    modes = ["AIR", "SHIP", "RAIL"]
    return [
        (i, rng.choice(modes), round(rng.uniform(1, 100), 2), i % 2 == 0)
        for i in range(n)
    ]


class TestRoundtrip:
    def test_rows_roundtrip_exactly(self):
        rows = _rows()
        part = ColumnarPartition.from_rows(SCHEMA, rows)
        assert part.to_rows() == rows
        assert part.num_rows == len(rows)

    def test_empty_partition(self):
        part = ColumnarPartition.from_rows(SCHEMA, [])
        assert part.to_rows() == []
        assert part.num_rows == 0

    def test_rows_are_python_scalars(self):
        part = ColumnarPartition.from_rows(SCHEMA, _rows(10))
        row = part.to_rows()[0]
        assert type(row[0]) is int
        assert type(row[2]) is float
        assert type(row[3]) is bool

    def test_complex_column_roundtrip(self):
        schema = Schema.of(("id", INT), ("tags", ArrayType(element_type=STRING)))
        rows = [(1, ["a", "b"]), (2, []), (3, ["c"])]
        part = ColumnarPartition.from_rows(schema, rows)
        assert part.to_rows() == rows


class TestColumns:
    def test_column_by_name(self):
        rows = _rows(20)
        part = ColumnarPartition.from_rows(SCHEMA, rows)
        assert list(part.column_by_name("mode")) == [r[1] for r in rows]

    def test_decoded_column_cached(self):
        part = ColumnarPartition.from_rows(SCHEMA, _rows(20))
        first = part.column(0)
        second = part.column(0)
        assert first is second

    def test_compression_schemes_reported(self):
        part = ColumnarPartition.from_rows(SCHEMA, _rows())
        schemes = part.compression_schemes()
        assert len(schemes) == 4
        assert schemes[1] == "dictionary"  # 3-value mode column
        assert schemes[3] == "bitset"

    def test_compress_false_uses_plain(self):
        part = ColumnarPartition.from_rows(SCHEMA, _rows(), compress=False)
        assert set(part.compression_schemes()) == {"plain"}


class TestStats:
    def test_stats_collected_per_column(self):
        rows = _rows(100)
        part = ColumnarPartition.from_rows(SCHEMA, rows)
        id_stats = part.stats.column("id")
        assert id_stats.minimum == 0
        assert id_stats.maximum == 99
        mode_stats = part.stats.column("mode")
        assert mode_stats.distinct_values == {"AIR", "SHIP", "RAIL"}


class TestFootprints:
    def test_columnar_beats_serialized_beats_jvm(self):
        rows = _rows(2000)
        columnar = ColumnarPartition.from_rows(SCHEMA, rows)
        col_bytes = columnar.memory_footprint_bytes()
        ser_bytes = serialized_footprint(SCHEMA, rows)
        jvm_bytes = jvm_object_footprint(SCHEMA, rows)
        assert col_bytes < ser_bytes < jvm_bytes

    def test_jvm_overhead_factor_plausible(self):
        # The paper reports ~3.4x (971 MB vs 289 MB) for lineitem.
        rows = _rows(2000)
        ratio = jvm_object_footprint(SCHEMA, rows) / serialized_footprint(
            SCHEMA, rows
        )
        assert 2.0 < ratio < 12.0

    def test_compression_reduces_footprint(self):
        rows = _rows(2000)
        compressed = ColumnarPartition.from_rows(SCHEMA, rows)
        plain = ColumnarPartition.from_rows(SCHEMA, rows, compress=False)
        assert (
            compressed.memory_footprint_bytes()
            < plain.memory_footprint_bytes()
        )

    def test_footprint_used_by_block_store(self):
        from repro.cluster.worker import approximate_size_bytes

        part = ColumnarPartition.from_rows(SCHEMA, _rows(50))
        assert approximate_size_bytes(part) == part.memory_footprint_bytes()


class TestValidation:
    def test_type_error_on_foreign_block(self, ctx):
        from repro.sql.physical import BatchPipelineRDD, BlockScan

        bad = ctx.parallelize([["not a partition"]], 1).glom()
        scan = BatchPipelineRDD(bad, scan=BlockScan([0], None))
        with pytest.raises(Exception):
            scan.collect()
