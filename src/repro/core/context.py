"""SharkContext: the single entry point for SQL + analytics.

Combines the execution engine, the distributed store, the SQL session, and
the ML integration hooks — the "single system capable of efficient SQL
query processing and sophisticated machine learning" of the paper.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional

from repro.core.table_rdd import TableRDD
from repro.datatypes import DataType, STRING, Schema
from repro.engine.context import EngineContext
from repro.engine.rdd import RDD
from repro.sql.catalog import TableEntry
from repro.sql.planner import ExecutionReport, PlannerConfig
from repro.sql.session import QueryResult, SqlSession
from repro.storage import DistributedFileStore


class SharkContext:
    """Run SQL, get results or RDDs, and mix in distributed ML.

    Example (the paper's Listing 1 pipeline)::

        shark = SharkContext(num_workers=4)
        ...  # create and load 'user' and 'comment' tables
        users = shark.sql2rdd(
            "SELECT * FROM user u JOIN comment c ON c.uid = u.uid")
        features = users.map_rows(lambda row: extract(row)).cache()
        model = LogisticRegression(iterations=10).fit(features)
    """

    def __init__(
        self,
        num_workers: int = 4,
        cores_per_worker: int = 2,
        default_parallelism: Optional[int] = None,
        config: Optional[PlannerConfig] = None,
        store: Optional[DistributedFileStore] = None,
        enable_master_recovery: bool = False,
        fault_injector=None,
        memory_per_worker_bytes: Optional[int] = None,
    ):
        self.engine = EngineContext(
            num_workers=num_workers,
            cores_per_worker=cores_per_worker,
            default_parallelism=default_parallelism,
            memory_per_worker_bytes=memory_per_worker_bytes,
            fault_injector=fault_injector,
        )
        self.store = store if store is not None else DistributedFileStore()
        self.session = SqlSession(
            self.engine,
            self.store,
            config=config,
            enable_master_recovery=enable_master_recovery,
        )

    @classmethod
    def recover(
        cls,
        store: DistributedFileStore,
        num_workers: int = 4,
        cores_per_worker: int = 2,
        config: Optional[PlannerConfig] = None,
    ) -> "SharkContext":
        """Rebuild a master from the journal in ``store`` (footnote 4).

        The journal holds every catalog-mutating operation; replaying it
        on a fresh master restores the catalog, external table data, and
        cached tables (recomputed, identical rows).  Registered UDFs are
        code, not state — re-register them after recovery.
        """
        from repro.sql.journal import MasterJournal

        shark = cls(
            num_workers=num_workers,
            cores_per_worker=cores_per_worker,
            config=config,
            store=store,
            enable_master_recovery=True,
        )
        MasterJournal(store).replay(shark.session)
        return shark

    # ------------------------------------------------------------------
    # SQL
    # ------------------------------------------------------------------
    def sql(self, text: str) -> QueryResult:
        """Execute a statement and return its result rows."""
        return self.session.execute(text)

    def sql2rdd(self, text: str) -> TableRDD:
        """Compile a SELECT and return the RDD representing its plan
        (Section 4.1) — nothing executes until an action runs."""
        from repro.sql.parser import parse
        from repro.sql import ast

        statement = parse(text)
        if not isinstance(statement, ast.SelectStatement):
            raise ValueError("sql2rdd requires a SELECT statement")
        planned = self.session.plan_select(statement)
        return TableRDD(planned.rdd, planned.schema)

    def explain(self, text: str) -> str:
        """The optimized logical plan for a statement, as text."""
        result = self.session.execute(f"EXPLAIN {text}")
        return result.plan_text or ""

    def explain_analyze(self, text: str, log=None) -> str:
        """Run a statement and return the plan annotated with per-stage
        runtime statistics (task counts, rows, bytes, simulated seconds).

        ``log``: optional event-log path — the query's full record set
        (plan, timeline, profile, counters) is appended there.  With an
        event log already enabled on the engine, this query streams to
        it regardless.
        """
        transient = log is not None and self.engine.event_log is None
        if transient:
            self.engine.enable_event_log(log)
        try:
            result = self.session.execute(f"EXPLAIN ANALYZE {text}")
        finally:
            if transient:
                self.engine.close_event_log()
        return result.plan_text or ""

    @property
    def last_report(self) -> Optional[ExecutionReport]:
        """Run-time optimizer decisions of the most recent query."""
        return self.session.last_report

    # ------------------------------------------------------------------
    # Query lifecycle (admission, deadlines, cancellation, fairness)
    # ------------------------------------------------------------------
    def enable_lifecycle(self, config=None):
        """Attach a query lifecycle manager to the engine; returns it.

        See :mod:`repro.engine.lifecycle` for the semantics (admission
        control, deadlines, cooperative cancellation, fairness, circuit
        breaking).
        """
        return self.engine.enable_lifecycle(config=config)

    @property
    def lifecycle(self):
        """The lifecycle manager, or None until enable_lifecycle()."""
        return self.engine.lifecycle

    def submit_sql(
        self,
        text: str,
        name: Optional[str] = None,
        deadline_s: Optional[float] = None,
        key: Optional[str] = None,
    ):
        """Submit a SQL statement for concurrent execution; returns a
        :class:`~repro.engine.lifecycle.QueryHandle`.

        Requires :meth:`enable_lifecycle`.  The statement runs when the
        lifecycle manager is driven (``handle.result_or_raise()`` or
        ``ctx.lifecycle.drain()``), interleaved fairly with other
        submitted queries.  Raises
        :class:`~repro.errors.AdmissionRejected` at capacity.
        """
        if self.engine.lifecycle is None:
            raise RuntimeError(
                "call enable_lifecycle() before submit_sql()"
            )
        return self.engine.lifecycle.submit(
            lambda: self.session.execute(text),
            name=name,
            deadline_s=deadline_s,
            key=key if key is not None else text,
        )

    # ------------------------------------------------------------------
    # Query caching
    # ------------------------------------------------------------------
    def enable_sql_cache(self):
        """Turn on the plan/result query caching stack
        (:mod:`repro.sql.cache`); returns the active SqlCache."""
        return self.session.enable_sql_cache()

    @property
    def sql_cache(self):
        """The query cache, or None until enable_sql_cache()."""
        return self.session.sql_cache

    # ------------------------------------------------------------------
    # Catalog and loading
    # ------------------------------------------------------------------
    def create_table(
        self,
        name: str,
        schema: Schema,
        cached: bool = False,
        properties: Optional[dict[str, str]] = None,
    ) -> None:
        """Programmatic CREATE TABLE.

        Not via DDL text, so it supports complex column types
        (ARRAY/MAP/STRUCT) that the SQL grammar does not spell.
        """
        props = dict(properties or {})
        if cached:
            props["shark.cache"] = "true"
        self.session.create_table(name, schema, cached, props)

    def load_rows(
        self,
        table: str,
        rows: Iterable[tuple],
        num_partitions: Optional[int] = None,
    ) -> int:
        """Distributed load into a table's store (Section 3.3)."""
        return self.session.load_rows(table, rows, num_partitions)

    def table(self, name: str) -> TableRDD:
        """A TableRDD scanning one catalog table."""
        return self.sql2rdd(f"SELECT * FROM {name}")

    def table_entry(self, name: str) -> TableEntry:
        return self.session.catalog.get(name)

    def drop_table(self, name: str, if_exists: bool = True) -> None:
        suffix = "IF EXISTS " if if_exists else ""
        self.sql(f"DROP TABLE {suffix}{name}")

    def register_udf(
        self,
        name: str,
        fn: Callable[..., Any],
        return_type: DataType = STRING,
    ) -> None:
        """Make a Python function callable from SQL (Hive-style UDF)."""
        self.session.registry.register(name, fn, return_type)

    # ------------------------------------------------------------------
    # Engine passthroughs
    # ------------------------------------------------------------------
    def parallelize(
        self, data: Iterable[Any], num_partitions: Optional[int] = None
    ) -> RDD:
        return self.engine.parallelize(data, num_partitions)

    def broadcast(self, value: Any):
        return self.engine.broadcast(value)

    def kill_worker(self, worker_id: int) -> None:
        """Fault-injection hook for recovery experiments (Section 6.3.3)."""
        self.engine.kill_worker(worker_id)

    def inject_failure(self, worker_id: int | None, after_tasks: int):
        return self.engine.inject_failure(worker_id, after_tasks)

    @property
    def num_workers(self) -> int:
        return self.engine.cluster.num_workers

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    @property
    def tracer(self):
        return self.engine.tracer

    @property
    def metrics(self):
        """The engine's always-on metrics registry."""
        return self.engine.metrics

    @property
    def trace(self):
        """Spans and events recorded since tracing was enabled."""
        return self.engine.trace

    def enable_tracing(self, reset: bool = True):
        return self.engine.enable_tracing(reset=reset)

    def disable_tracing(self) -> None:
        self.engine.disable_tracing()

    def enable_event_log(self, path, **header_extra):
        """Stream every query's records to a persistent event log at
        ``path`` (see :mod:`repro.obs.events`); returns the writer."""
        return self.engine.enable_event_log(path, **header_extra)

    def close_event_log(self) -> None:
        self.engine.close_event_log()

    def __repr__(self) -> str:
        return (
            f"SharkContext(workers={self.num_workers}, "
            f"tables={self.session.catalog.table_names()})"
        )
