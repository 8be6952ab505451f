"""Shark's columnar memory store (paper Sections 3.2, 3.3, 3.5).

Tables cached in memory are stored column-oriented: each column of a
partition is one tagged column of the format exchanges ship (the Python
analogue of "one JVM object per column"), primitives as packed numbers,
complex values serialized into one byte blob.  Cheap CPU-efficient
compression — dictionary encoding, run-length encoding, bit packing,
boolean bitsets — is chosen *per column per partition* during loading:
the writer prices each encoding from the values the load task holds and
keeps the smallest (Section 3.3).

Loading also piggybacks per-partition statistics collection: each column's
range, and its distinct values when few.  Those statistics drive map
pruning (Section 3.5): partitions whose ranges cannot satisfy a query's
predicates are never scanned.
"""

from repro.columnar.compression import choose_scheme
from repro.columnar.stats import ColumnStats, PartitionStats
from repro.columnar.table import ColumnarPartition
from repro.columnar.footprint import (
    jvm_object_footprint,
    serialized_footprint,
)
from repro.columnar.serde import TextSerde, BinarySerde

__all__ = [
    "choose_scheme",
    "ColumnStats",
    "PartitionStats",
    "ColumnarPartition",
    "jvm_object_footprint",
    "serialized_footprint",
    "TextSerde",
    "BinarySerde",
]
