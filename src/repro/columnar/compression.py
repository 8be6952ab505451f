"""CPU-efficient column compression schemes (paper Section 3.2).

Each scheme encodes a list of column values into a compact representation
with an accurately accounted byte footprint, and decodes back losslessly.
:func:`choose_scheme` implements the per-partition auto-selection of
Section 3.3: each loading task inspects its own data (distinct counts, run
lengths, value ranges) and picks the best scheme locally, with no global
coordination.
"""

from __future__ import annotations

import pickle
from functools import partial
from itertools import chain, repeat
from typing import Any, Optional, Sequence

import numpy as np

from repro.columnar.analysis import ColumnAnalysis, analyze, numpy_dtype_for
from repro.datatypes import BOOLEAN, DAYS, DataType, StringType
from repro.errors import CompressionError

#: Dictionary encoding applies when distinct/total falls below this ratio
#: and the dictionary itself is small.
DICTIONARY_RATIO = 0.5
#: Upper bound on dictionary cardinality (keeps codes at <= 2 bytes and
#: per-partition metadata small, Section 3.3).
DEFAULT_DICTIONARY_THRESHOLD = 65536
#: RLE applies when the average run length is at least this long.
MIN_AVG_RUN_LENGTH = 4.0
#: Bit packing applies to integer columns whose range fits in this many bits.
MAX_PACK_BITS = 16


class EncodedColumn:
    """A column encoded under one scheme.

    ``compressed_bytes`` is the store's accounting unit; ``decode`` returns
    the original values (as a numpy array for primitives, a list
    otherwise).
    """

    scheme_name = "base"

    def decode(self) -> Sequence[Any]:
        raise NotImplementedError

    @property
    def compressed_bytes(self) -> int:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def memory_footprint_bytes(self) -> int:
        return self.compressed_bytes

    def dictionary_view(self) -> Optional[tuple[np.ndarray, list]]:
        """(codes, dictionary) when the encoding is code-addressable.

        Late materialization hook: a batch consumer that only needs group
        identity (e.g. a hash aggregate keyed on this column) can operate
        on the integer codes directly and look values up once per distinct
        code, instead of decoding every row.  None for encodings that do
        not keep an explicit dictionary.
        """
        return None

    def coded_view(self) -> Optional[tuple[np.ndarray, Sequence[Any]]]:
        """(codes, entries) with ``decode()`` equal to ``entries[codes]``:
        the codes of :meth:`dictionary_view` beside the dictionary as
        decoding indexes it (one typed array for NULL-free primitives),
        so a batch kernel can evaluate the entries in place of the rows.
        """
        return None


class CompressionScheme:
    """Interface: encode a column.

    ``values`` is a sequence of column values or the loading task's
    :class:`~repro.columnar.analysis.ColumnAnalysis` of it; encoders read
    the analysis instead of rescanning the values.
    """

    name = "scheme"
    #: The :class:`EncodedColumn` this scheme builds from an analysis.
    column_class: type

    def encode(self, values, data_type: DataType) -> EncodedColumn:
        return self.column_class(analyze(values, data_type))


# ---------------------------------------------------------------------------
# Plain
# ---------------------------------------------------------------------------


class _PlainColumn(EncodedColumn):
    scheme_name = "plain"

    def __init__(self, column: ColumnAnalysis):
        #: What ``decode`` casts the stored array back to: a day number
        #: fits four bytes, a datetime64 takes eight.
        self._dtype = None
        if column.array is not None:
            self._data = column.array
            if self._data.dtype == DAYS:
                self._dtype = DAYS
                self._data = self._data.astype(np.int32)
            self._bytes = int(self._data.nbytes)
        else:
            self._data = list(column.values)
            if isinstance(column.data_type, StringType):
                # Offsets (4B each) plus UTF-8 payload, like a string arena.
                payload = len("".join(column.present).encode("utf-8"))
                self._bytes = payload + 4 * len(self._data)
            else:
                self._bytes = len(pickle.dumps(self._data, protocol=4))

    def decode(self) -> Sequence[Any]:
        if self._dtype is not None:
            return self._data.astype(self._dtype)
        return self._data

    @property
    def compressed_bytes(self) -> int:
        return self._bytes

    def __len__(self) -> int:
        return len(self._data)


class PlainEncoding(CompressionScheme):
    """No compression: one primitive array (or string arena) per column."""

    name = "plain"
    column_class = _PlainColumn


# ---------------------------------------------------------------------------
# Run-length encoding
# ---------------------------------------------------------------------------


class _RleColumn(EncodedColumn):
    scheme_name = "rle"

    def __init__(self, column: ColumnAnalysis):
        starts = column.run_starts
        self._length = len(column)
        self._run_lengths = np.diff(starts, append=self._length).astype(
            np.int32
        )
        values = column.values
        self._run_values = _PlainColumn(
            analyze([values[i] for i in starts.tolist()], column.data_type)
        )
        self._bytes = self._run_values.compressed_bytes + int(
            self._run_lengths.nbytes
        )

    def decode(self) -> Sequence[Any]:
        run_values = self._run_values.decode()
        if isinstance(run_values, np.ndarray):
            return np.repeat(run_values, self._run_lengths)
        return list(
            chain.from_iterable(
                map(repeat, run_values, self._run_lengths.tolist())
            )
        )

    @property
    def compressed_bytes(self) -> int:
        return self._bytes

    @property
    def num_runs(self) -> int:
        return len(self._run_values)

    def __len__(self) -> int:
        return self._length


class RunLengthEncoding(CompressionScheme):
    """(value, run_length) pairs; wins on sorted/clustered columns."""

    name = "rle"
    column_class = _RleColumn


# ---------------------------------------------------------------------------
# Dictionary encoding
# ---------------------------------------------------------------------------


def _code_dtype(cardinality: int) -> np.dtype:
    if cardinality <= 2**8:
        return np.dtype(np.uint8)
    if cardinality <= 2**16:
        return np.dtype(np.uint16)
    return np.dtype(np.uint32)


class _DictionaryColumn(EncodedColumn):
    scheme_name = "dictionary"

    def __init__(self, column: ColumnAnalysis):
        distinct = column.distinct
        if distinct is None:
            raise CompressionError(
                "cannot dictionary-encode unhashable values"
            )
        # Codes number the distinct values in first-occurrence order.
        code_of = dict(zip(distinct, range(len(distinct))))
        self._codes = np.fromiter(
            map(code_of.__getitem__, column.values),
            dtype=_code_dtype(len(distinct)),
            count=len(column),
        )
        self._dictionary = list(distinct)
        entries = _PlainColumn(analyze(self._dictionary, column.data_type))
        #: The dictionary as decode indexes it: one typed array for
        #: NULL-free primitives, the list itself otherwise.
        self._entries = entries.decode()
        self._bytes = entries.compressed_bytes + int(self._codes.nbytes)

    def decode(self) -> Sequence[Any]:
        if isinstance(self._entries, np.ndarray):
            return self._entries[self._codes]
        return list(map(self._entries.__getitem__, self._codes.tolist()))

    @property
    def compressed_bytes(self) -> int:
        return self._bytes

    @property
    def cardinality(self) -> int:
        return len(self._dictionary)

    def dictionary_view(self) -> Optional[tuple[np.ndarray, list]]:
        return self._codes, self._dictionary

    def coded_view(self) -> Optional[tuple[np.ndarray, Sequence[Any]]]:
        return self._codes, self._entries

    def __len__(self) -> int:
        return len(self._codes)


class DictionaryEncoding(CompressionScheme):
    """Distinct values once + small integer codes; wins on enum columns."""

    name = "dictionary"
    column_class = _DictionaryColumn


# ---------------------------------------------------------------------------
# Bit packing
# ---------------------------------------------------------------------------


class _BitPackedColumn(EncodedColumn):
    scheme_name = "bitpack"

    def __init__(self, column: ColumnAnalysis):
        if not len(column):
            raise CompressionError("cannot bit-pack an empty column")
        array = np.asarray(
            column.values if column.array is None else column.array
        ).astype(np.int64)
        self._base = int(array.min())
        deltas = (array - self._base).astype(np.uint64)
        max_delta = int(deltas.max()) if len(deltas) else 0
        self._width = max(int(max_delta).bit_length(), 1)
        # bits[i, j] = bit j of delta i (LSB first), packed row-major.
        shifts = np.arange(self._width, dtype=np.uint64)
        bits = ((deltas[:, None] >> shifts) & 1).astype(np.uint8)
        self._packed = np.packbits(bits.reshape(-1))
        self._length = len(column)
        self._data_type = column.data_type

    def decode(self) -> Sequence[Any]:
        total_bits = self._length * self._width
        bits = np.unpackbits(self._packed, count=total_bits)
        bits = bits.reshape(self._length, self._width).astype(np.uint64)
        shifts = np.arange(self._width, dtype=np.uint64)
        deltas = (bits << shifts).sum(axis=1)
        dtype = numpy_dtype_for(self._data_type) or np.dtype(np.int64)
        return (deltas.astype(np.int64) + self._base).astype(dtype)

    @property
    def compressed_bytes(self) -> int:
        return int(self._packed.nbytes) + 16  # base + width metadata

    @property
    def bit_width(self) -> int:
        return self._width

    def __len__(self) -> int:
        return self._length


class BitPacking(CompressionScheme):
    """Offset-encode small-range integers into ``bit_length(range)`` bits."""

    name = "bitpack"
    column_class = _BitPackedColumn


# ---------------------------------------------------------------------------
# Boolean bitset
# ---------------------------------------------------------------------------


class _BitsetColumn(EncodedColumn):
    scheme_name = "bitset"

    def __init__(self, column: ColumnAnalysis):
        if column.has_null:
            raise CompressionError("a bitset has no room for NULL")
        self._packed = np.packbits(np.asarray(column.values, dtype=bool))
        self._length = len(column)

    def decode(self) -> Sequence[Any]:
        return np.unpackbits(self._packed, count=self._length).astype(bool)

    @property
    def compressed_bytes(self) -> int:
        return int(self._packed.nbytes)

    def __len__(self) -> int:
        return self._length


class BooleanBitset(CompressionScheme):
    """One bit per boolean."""

    name = "bitset"
    column_class = _BitsetColumn


# ---------------------------------------------------------------------------
# Serialized blob (complex types)
# ---------------------------------------------------------------------------


_pickle = partial(pickle.dumps, protocol=4)


class _BlobColumn(EncodedColumn):
    scheme_name = "blob"

    def __init__(self, column: ColumnAnalysis):
        # "Complex data types ... are serialized and concatenated into a
        # single byte array" (Section 3.2).
        parts = list(map(_pickle, column.values))
        self._offsets = np.zeros(len(parts) + 1, dtype=np.int64)
        np.cumsum(list(map(len, parts)), out=self._offsets[1:])
        self._payload = b"".join(parts)

    def decode(self) -> Sequence[Any]:
        out = []
        for index in range(len(self._offsets) - 1):
            start, end = int(self._offsets[index]), int(self._offsets[index + 1])
            out.append(pickle.loads(self._payload[start:end]))
        return out

    @property
    def compressed_bytes(self) -> int:
        return len(self._payload) + int(self._offsets.nbytes)

    def __len__(self) -> int:
        return len(self._offsets) - 1


class SerializedBlob(CompressionScheme):
    """Serialize complex values into one concatenated byte array."""

    name = "blob"
    column_class = _BlobColumn


# ---------------------------------------------------------------------------
# Per-partition scheme selection (Section 3.3)
# ---------------------------------------------------------------------------

PLAIN = PlainEncoding()
RLE = RunLengthEncoding()
DICTIONARY = DictionaryEncoding()
BITPACK = BitPacking()
BITSET = BooleanBitset()
BLOB = SerializedBlob()


def _few_distinct(column: ColumnAnalysis, dictionary_threshold: int) -> bool:
    if column.distinct is None:
        return False
    distinct = len(column.distinct)
    return (
        distinct <= dictionary_threshold
        and distinct / len(column) <= DICTIONARY_RATIO
    )


def choose_scheme(
    values,
    data_type: DataType,
    dictionary_threshold: int = DEFAULT_DICTIONARY_THRESHOLD,
) -> CompressionScheme:
    """Pick the best scheme for this partition's column, locally.

    Mirrors the paper's loading tasks: the column analysis tracks distinct
    counts and run lengths, then this chooses dictionary encoding when
    distinct values are few, RLE when runs are long (clustered data), bit
    packing for narrow integer ranges, bitsets for NULL-free booleans,
    and plain otherwise.  ``values`` is a sequence or its ``ColumnAnalysis``.
    """
    column = analyze(values, data_type)
    if not len(column):
        return PLAIN
    if data_type == BOOLEAN and not column.has_null:
        return BITSET
    dtype = numpy_dtype_for(data_type)
    if data_type == BOOLEAN or (
        column.has_null and dtype is not None and dtype.kind == "M"
    ):
        # NULLs among booleans or dates behave like strings, the bitset
        # having no room for a third value and the datetime64 array none
        # for NULL: dictionary if few distinct, otherwise one pickled
        # vector (compact: the codec is shared).
        if _few_distinct(column, dictionary_threshold):
            return DICTIONARY
        return PLAIN

    if dtype is None and not isinstance(data_type, StringType):
        return BLOB
    if column.has_null:
        # Null-bearing primitive columns fall back to plain list storage.
        return PLAIN

    if len(column) / len(column.run_starts) >= MIN_AVG_RUN_LENGTH:
        return RLE
    if _few_distinct(column, dictionary_threshold):
        return DICTIONARY
    # ``array`` is None for a DATE / TIMESTAMP column holding anything but
    # exact dates (naive datetimes): it stays a list, as a NULL keeps one.
    array = column.array
    if array is not None and array.dtype.kind in "iM":
        if array.dtype.kind == "M":
            # Day numbers and microseconds pack like the integers they are.
            array = array.view(np.int64)
        span = int(array.max()) - int(array.min())
        if span.bit_length() <= MAX_PACK_BITS:
            return BITPACK
    return PLAIN
