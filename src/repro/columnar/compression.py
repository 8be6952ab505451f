"""Column compression as the memstore sees it (paper Sections 3.2-3.3).

A cached column is one tagged column of the column format
(:mod:`repro.columnar.serde`, DESIGN §16-17) in one of four encodings:
plain (the type's own tag — narrowest ints, 8-byte doubles, a bitset of
booleans, day numbers, string offsets + UTF-8, one pickle of anything
else), run-length, dictionary (of any entry type) and frame-of-reference
bit packing.  The writer prices every encoding the column allows in
closed form and keeps the one with the fewest bytes, so each loading task
picks per column, locally and with no threshold to tune (Section 3.3).

:func:`choose_scheme` names that pick; a :class:`Scheme` forces the
writer to one encoding (``encode(values, data_type).decode()`` round-trips
a column through it).
"""

from __future__ import annotations

from repro.columnar.batch import Vector
from repro.columnar.serde import (
    SCHEMES,
    cheapest_scheme,
    read_column,
    scheme_of,
    write_column,
)
from repro.datatypes import DataType


class StoredColumn:
    """One column written in the format, and its row count."""

    __slots__ = ("payload", "num_rows")

    def __init__(self, payload: bytes, num_rows: int):
        self.payload = payload
        self.num_rows = num_rows

    def decode(self) -> Vector:
        return read_column(self.payload, self.num_rows)

    @property
    def compressed_bytes(self) -> int:
        return len(self.payload)

    @property
    def scheme_name(self) -> str:
        return scheme_of(self.payload)

    def __len__(self) -> int:
        return self.num_rows


class Scheme:
    """One encoding of the format; ``encode`` forces the writer to it
    (CompressionError where the column has no such encoding)."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def encode(self, values, data_type: DataType) -> StoredColumn:
        vector = Vector.typed(values, data_type)
        return StoredColumn(write_column(vector, (self.name,)), len(vector))

    def __repr__(self) -> str:
        return f"Scheme({self.name!r})"


PLAIN, RLE, DICTIONARY, BITPACK = _BY_NAME = tuple(map(Scheme, SCHEMES))


def choose_scheme(values, data_type: DataType) -> Scheme:
    """The encoding a loading task's writer gives this column (typed by
    ``data_type``): the one of fewest bytes."""
    vector = Vector.typed(values, data_type)
    return _BY_NAME[SCHEMES.index(cheapest_scheme(vector))]
