"""Direct calls into the storage-side layers on one frozen chunk.

These layers (``columnar.table/compression/stats/serde``, ``storage``,
``sql.session`` loading) run inside tasks, where a span from outside
cannot reach them; instead each public function is called directly on
the first ``CHUNK_ROWS`` rows of the workload's main table and timed.
Every timing is the median of ``REPEATS`` calls, in calibrated
microseconds.
"""

from __future__ import annotations

import itertools
import time

from . import harness
from .workloads import CORES_PER_WORKER, WORKERS, schema_of

CHUNK_ROWS = 4000
REPEATS = 3

METRICS = (
    "columnar.table.from_rows_us_per_row",
    "columnar.table.to_rows_us_per_row",
    "columnar.compression.encode_us_per_value",
    "columnar.compression.decode_us_per_value",
    "columnar.compression.ratio",
    "columnar.stats.from_values_us_per_value",
    "columnar.serde.text_encode_us_per_row",
    "columnar.serde.text_decode_us_per_row",
    "columnar.serde.spill_encode_us_per_row",
    "storage.hdfs.bytes_written_per_row",
    "storage.scan.rows_per_cal_s",
    "sql.physical.scan_rows_per_cal_s",
    "sql.session.load_cached_us_per_row",
    "sql.session.load_external_us_per_row",
    "sql.session.ctas_us_per_row",
)


def _median_seconds(fn, prepare=lambda: None) -> float:
    """Median seconds of ``fn(prepare())``, the preparation untimed."""
    samples = []
    for _ in range(REPEATS):
        argument = prepare()
        start = time.perf_counter()
        fn(argument)
        samples.append(time.perf_counter() - start)
    return harness.median(samples)


def layer_probes(table) -> dict:
    from repro import SharkContext
    from repro.columnar.compression import choose_scheme
    from repro.columnar.serde import SpillSerde, TextSerde
    from repro.columnar.stats import ColumnStats
    from repro.columnar.table import ColumnarPartition

    rows = table.rows[:CHUNK_ROWS]
    schema = schema_of(table)
    types = [field.data_type for field in schema.fields]
    columns = [list(values) for values in zip(*rows)]
    num_rows, num_values = len(rows), len(rows) * len(columns)
    seconds: dict = {}
    spin_before = harness.spin()

    seconds["columnar.table.from_rows_us_per_row"] = _median_seconds(
        lambda _: ColumnarPartition.from_rows(schema, rows)
    ) / num_rows
    # A fresh partition per call: to_rows includes the first decode.
    seconds["columnar.table.to_rows_us_per_row"] = _median_seconds(
        lambda partition: partition.to_rows(),
        prepare=lambda: ColumnarPartition.from_rows(schema, rows),
    ) / num_rows

    def encode_all(_=None):
        return [
            choose_scheme(values, kind).encode(values, kind)
            for values, kind in zip(columns, types)
        ]

    seconds["columnar.compression.encode_us_per_value"] = (
        _median_seconds(encode_all) / num_values
    )
    seconds["columnar.compression.decode_us_per_value"] = _median_seconds(
        lambda encoded: [column.decode() for column in encoded],
        prepare=encode_all,
    ) / num_values
    seconds["columnar.stats.from_values_us_per_value"] = _median_seconds(
        lambda _: [ColumnStats.from_values(values) for values in columns]
    ) / num_values

    text = TextSerde(schema)
    payload = text.encode(rows)
    seconds["columnar.serde.text_encode_us_per_row"] = (
        _median_seconds(lambda _: text.encode(rows)) / num_rows
    )
    seconds["columnar.serde.text_decode_us_per_row"] = (
        _median_seconds(lambda _: text.decode(payload)) / num_rows
    )
    spill = SpillSerde()
    seconds["columnar.serde.spill_encode_us_per_row"] = (
        _median_seconds(lambda _: spill.encode(rows)) / num_rows
    )

    shark = SharkContext(num_workers=WORKERS, cores_per_worker=CORES_PER_WORKER)
    names = (f"probe_{n}" for n in itertools.count())

    def fresh(cached: bool) -> str:
        name = next(names)
        shark.create_table(name, schema, cached=cached)
        return name

    def load(name: str) -> None:
        shark.load_rows(name, rows, num_partitions=2)

    seconds["sql.session.load_cached_us_per_row"] = _median_seconds(
        load, prepare=lambda: fresh(True)
    ) / num_rows
    written_before = shark.store.counters.bytes_written
    seconds["sql.session.load_external_us_per_row"] = _median_seconds(
        load, prepare=lambda: fresh(False)
    ) / num_rows
    written = shark.store.counters.bytes_written - written_before

    external, cached = fresh(False), fresh(True)
    load(external)
    load(cached)
    seconds["sql.session.ctas_us_per_row"] = _median_seconds(
        lambda name: shark.sql(
            f"CREATE TABLE {name} TBLPROPERTIES ('shark.cache' = 'true') "
            f"AS SELECT * FROM {external}"
        ),
        prepare=lambda: next(names),
    ) / num_rows
    # A predicate every row passes, so the scan reads a column.
    column = next(name for name, kind in table.columns if kind == "int")
    scan = "SELECT COUNT(*) FROM {} WHERE " + column + " > -1"
    scan_external = _median_seconds(
        lambda _: shark.sql(scan.format(external)).rows
    )
    scan_cached = _median_seconds(
        lambda _: shark.sql(scan.format(cached)).rows
    )

    factor = harness.speed_factor(spin_before, harness.spin())
    out = {name: value * factor * 1e6 for name, value in seconds.items()}
    out["storage.scan.rows_per_cal_s"] = num_rows / (scan_external * factor)
    out["sql.physical.scan_rows_per_cal_s"] = num_rows / (scan_cached * factor)
    out["storage.hdfs.bytes_written_per_row"] = written / (REPEATS * num_rows)
    plain = ColumnarPartition.from_rows(schema, rows, compress=False)
    packed = ColumnarPartition.from_rows(schema, rows)
    out["columnar.compression.ratio"] = (
        plain.memory_footprint_bytes() / packed.memory_footprint_bytes()
    )
    return out
