"""The metastore: table metadata, storage handles, co-partitioning links.

Plays the role of the "Metastore (System Catalog)" box in the paper's
architecture diagram (Figure 2).  A table is either *external* (rows
encoded in the distributed file store, scanned from "disk") or *cached*
(``shark.cache`` — one flat list of columnar blocks pinned in worker
memory, each carrying the statistics map pruning reads).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.datatypes import Schema
from repro.errors import CatalogError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.columnar.stats import PartitionStats
    from repro.engine.partitioner import Partitioner
    from repro.engine.rdd import BlockListRDD

EXTERNAL = "external"
CACHED = "cached"


@dataclass
class TableEntry:
    """Everything the system knows about one table."""

    name: str
    schema: Schema
    kind: str = EXTERNAL
    #: DFS path for external tables.
    path: Optional[str] = None
    #: Cached tables: the current version of the table's block list, one
    #: ColumnarPartition element per partition (None until first loaded).
    cached_rdd: Optional["BlockListRDD"] = None
    #: Set when the table was created with DISTRIBUTE BY (Section 3.4).
    partitioner: Optional["Partitioner"] = None
    distribute_column: Optional[str] = None
    #: TBLPROPERTIES as written.
    properties: dict[str, str] = field(default_factory=dict)
    #: Known row count (maintained on load/insert; None if unknown).
    row_count: Optional[int] = None
    #: Stored size in bytes (memstore footprint or DFS file size); the
    #: static optimizer's size estimate.
    size_bytes: Optional[int] = None

    @property
    def is_cached(self) -> bool:
        return self.kind == CACHED

    def set_blocks(self, blocks: "BlockListRDD") -> None:
        """Point the table at the next version of its block list; the
        counts are the list's own."""
        self.cached_rdd = blocks
        self.row_count = blocks.row_count
        self.size_bytes = blocks.size_bytes

    @property
    def partition_stats(self) -> list["PartitionStats"]:
        """Cached tables: per-block column statistics, for map pruning."""
        return self.cached_rdd.stats if self.cached_rdd is not None else []

    @property
    def partition_bytes(self) -> list[int]:
        """Cached tables: memstore bytes per block (PDE-independent
        sizing)."""
        return self.cached_rdd.bytes if self.cached_rdd is not None else []


class Catalog:
    """Named tables plus UDF registrations.

    Every mutation moves a *monotonic per-table version* — bumped by
    CREATE/DROP (and therefore CACHE/UNCACHE, which drop-and-recreate)
    and by every load/insert — plus a catalog-wide ``ddl_version`` that
    only schema-identity changes move.  The query cache keys on these:
    versions never reset (a drop + recreate continues the sequence, so
    a journal replay reproduces them deterministically), and listeners
    get a callback per bump for eager invalidation.
    """

    def __init__(self) -> None:
        self._tables: dict[str, TableEntry] = {}
        #: Lowercased table name -> monotonic version.  Survives drops
        #: so a recreated table can never collide with a stale cache key.
        self._versions: dict[str, int] = {}
        self._ddl_version = 0
        #: Callbacks ``fn(table_lower, version, ddl)`` per version bump.
        self._listeners: list = []

    def add_listener(self, fn) -> None:
        """Register a version-bump callback (the query cache's eager
        invalidation hook)."""
        self._listeners.append(fn)

    def version(self, name: str) -> int:
        """The table's current version (0 before any mutation)."""
        return self._versions.get(name.lower(), 0)

    @property
    def ddl_version(self) -> int:
        """Catalog-wide schema-identity counter (plan-cache key part)."""
        return self._ddl_version

    def bump_version(self, name: str, ddl: bool = False) -> int:
        """Advance the table's version (loads/inserts pass ddl=False;
        create/drop bump through here with ddl=True)."""
        key = name.lower()
        version = self._versions.get(key, 0) + 1
        self._versions[key] = version
        if ddl:
            self._ddl_version += 1
        for fn in self._listeners:
            fn(key, version, ddl)
        return version

    def create(self, entry: TableEntry, if_not_exists: bool = False) -> bool:
        """Register a table; returns False when skipped by IF NOT EXISTS."""
        key = entry.name.lower()
        if key in self._tables:
            if if_not_exists:
                return False
            raise CatalogError(f"table already exists: {entry.name}")
        self._tables[key] = entry
        self.bump_version(key, ddl=True)
        return True

    def drop(self, name: str, if_exists: bool = False) -> bool:
        key = name.lower()
        if key not in self._tables:
            if if_exists:
                return False
            raise CatalogError(f"no such table: {name}")
        entry = self._tables.pop(key)
        if entry.cached_rdd is not None:
            entry.cached_rdd.unpersist()
        self.bump_version(key, ddl=True)
        return True

    def get(self, name: str) -> TableEntry:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise CatalogError(
                f"no such table: {name}; known tables: {self.table_names()}"
            ) from None

    def exists(self, name: str) -> bool:
        return name.lower() in self._tables

    def table_names(self) -> list[str]:
        return sorted(entry.name for entry in self._tables.values())

    def __len__(self) -> int:
        return len(self._tables)
