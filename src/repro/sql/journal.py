"""Master recovery: a reliable log of catalog-mutating operations.

Paper, footnote 4: "Support for master recovery could also be added by
reliably logging the RDD lineage graph and the submitted jobs, because
this state is small, but we have not yet implemented this."  This module
implements that sketch for the repro system:

* every catalog-mutating operation — DDL statements and bulk loads — is
  appended to a journal file in the *reliable* distributed store (the
  same place HDFS data lives, so it survives the master);
* after a master loss, a fresh session replays the journal: DDL re-runs,
  loads re-ingest, and cached tables are rebuilt by recomputation — the
  exact recovery story lineage gives worker data, applied to the master.

What is recovered: the catalog, external table data, cached tables (with
identical rows), co-partitioning metadata.  What is not: registered UDFs
(Python callables are code, not state — re-register them, as the paper's
design also implies) and in-flight queries.
"""

from __future__ import annotations

import pickle
from typing import TYPE_CHECKING, Any, Iterator

from repro.errors import StorageError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sql.session import SqlSession
    from repro.storage import DistributedFileStore

#: Journal location inside the reliable store.
JOURNAL_PATH = "/journal/master.log"


class MasterJournal:
    """Append-only log of statements and loads, stored reliably."""

    def __init__(self, store: "DistributedFileStore"):
        self.store = store
        if not store.exists(JOURNAL_PATH):
            store.write_file(JOURNAL_PATH, [], format="binary")

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def _append(self, record: dict[str, Any]) -> None:
        self.store.append_block(
            JOURNAL_PATH, pickle.dumps(record, protocol=4)
        )

    def log_statement(self, text: str) -> None:
        """Log one successfully executed DDL/DML statement."""
        self._append({"kind": "statement", "text": text})

    def log_load(
        self, table: str, rows: list[tuple], num_partitions: int
    ) -> None:
        """Log one bulk load (the rows are the recovery source; the
        partition count makes the replayed table's blocks the same)."""
        self._append(
            {
                "kind": "load",
                "table": table,
                "rows": rows,
                "num_partitions": num_partitions,
            }
        )

    # ------------------------------------------------------------------
    # Reading / replay
    # ------------------------------------------------------------------
    def records(self) -> Iterator[dict[str, Any]]:
        stored = self.store.file(JOURNAL_PATH)
        for index in range(stored.num_blocks):
            payload = self.store.read_block(JOURNAL_PATH, index)
            record = pickle.loads(payload)
            if not isinstance(record, dict) or "kind" not in record:
                raise StorageError(
                    f"corrupt journal record at block {index}"
                )
            yield record

    def __len__(self) -> int:
        return self.store.file(JOURNAL_PATH).num_blocks

    def replay(self, session: "SqlSession") -> int:
        """Re-apply every journaled operation to a fresh session.

        Journaling is suppressed during replay (the log already holds
        these operations).  Returns the number of records applied.
        """
        applied = 0
        session_journal = session.journal
        session.journal = None  # suppress re-journaling
        try:
            for record in self.records():
                if record["kind"] == "statement":
                    session.execute(record["text"])
                elif record["kind"] == "load":
                    session.load_rows(
                        record["table"],
                        record["rows"],
                        record.get("num_partitions"),
                    )
                else:
                    raise StorageError(
                        f"unknown journal record kind {record['kind']!r}"
                    )
                applied += 1
        finally:
            session.journal = session_journal
        return applied
