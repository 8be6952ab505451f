"""SqlSession: statement execution over the engine, store, and catalog.

Runs the full pipeline of Section 2.4 — parse, logical plan + rule-based
optimization, physical plan as RDD transformations — then executes the
dataflow and materializes results.  Also owns DDL/DML: CREATE TABLE [AS
SELECT] with ``shark.cache`` and co-partitioning TBLPROPERTIES, INSERT,
DROP, CACHE/UNCACHE, and EXPLAIN.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Optional, Sequence

from repro.columnar.batch import ColumnBatch, check_row_width
from repro.columnar.serde import TextSerde
from repro.columnar.table import ColumnarPartition
from repro.datatypes import Field, Schema, type_by_name
from repro.engine.context import EngineContext
from repro.engine.rdd import RDD, BlockListRDD, TableBlock
from repro.errors import AnalysisError, CatalogError, UnsupportedFeatureError
from repro.obs.analyze import render_query
from repro.obs.planquality import DEFAULT_Q_ERROR_THRESHOLD, audit
from repro.obs.record import Marks, capture
from repro.sql import ast
from repro.sql.analyzer import Analyzer, Scope
from repro.sql.catalog import CACHED, Catalog, EXTERNAL, TableEntry
from repro.sql.functions import FunctionRegistry
from repro.sql.logical import LogicalPlan
from repro.sql.optimizer import optimize
from repro.sql.parser import parse
from repro.sql.planner import (
    ExecutionReport,
    PhysicalPlanner,
    PlannerConfig,
)
from repro.storage import DistributedFileStore
from repro.storage.scan import lineage_reads


@dataclass
class QueryResult:
    """Rows plus metadata from one executed statement."""

    rows: list[tuple]
    schema: Schema
    report: ExecutionReport = field(default_factory=ExecutionReport)
    #: For EXPLAIN: the rendered plan text.
    plan_text: Optional[str] = None
    #: True when the rows came from the session's result cache.
    cache_hit: bool = False

    @property
    def column_names(self) -> list[str]:
        return self.schema.names

    def column(self, name: str) -> list:
        index = self.schema.index_of(name)
        return [row[index] for row in self.rows]

    def to_dicts(self) -> list[dict[str, Any]]:
        names = self.schema.names
        return [dict(zip(names, row)) for row in self.rows]

    def scalar(self) -> Any:
        """The single value of a one-row, one-column result."""
        if len(self.rows) != 1 or len(self.rows[0]) != 1:
            raise ValueError(
                f"scalar() needs a 1x1 result, got {len(self.rows)} rows x "
                f"{len(self.schema)} columns"
            )
        return self.rows[0][0]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)


class SqlSession:
    """One SQL session: catalog + UDF registry + planner configuration."""

    def __init__(
        self,
        ctx: EngineContext,
        store: Optional[DistributedFileStore] = None,
        config: Optional[PlannerConfig] = None,
        enable_master_recovery: bool = False,
    ):
        self.ctx = ctx
        self.store = store if store is not None else DistributedFileStore()
        self.catalog = Catalog()
        self.registry = FunctionRegistry()
        self.config = config or PlannerConfig()
        #: Report of the most recently planned query.
        self.last_report: Optional[ExecutionReport] = None
        #: Reliable log of catalog-mutating operations (paper footnote 4);
        #: None disables journaling.
        self.journal = None
        if enable_master_recovery:
            from repro.sql.journal import MasterJournal

            self.journal = MasterJournal(self.store)
        #: Warehouse files of dropped tables, and shuffles a dropped
        #: table's lineage read, that a dependent cached table's lineage
        #: still reads; see _reap_dropped.
        self._dropped_paths: set[str] = set()
        self._dropped_shuffles: set[int] = set()
        #: Original SQL text of the statement being executed (event log).
        self._current_text: Optional[str] = None
        #: Query caching stack (repro.sql.cache); None until enabled.
        self.sql_cache = None
        #: Worst q-error of the last misestimated query.
        self._q_error_max: Optional[float] = None
        ctx.tracer.metrics.register_gauge(
            "plan.q_error_max", lambda: self._q_error_max
        )

    def enable_sql_cache(self):
        """Turn on the plan/result caching stack for this session
        (idempotent; returns the active SqlCache)."""
        if self.sql_cache is None:
            from repro.sql.cache import SqlCache

            self.sql_cache = SqlCache(self.ctx, self.catalog)
        return self.sql_cache

    # ------------------------------------------------------------------
    # Statement execution
    # ------------------------------------------------------------------
    def execute(self, text: str) -> QueryResult:
        self._current_text = text
        try:
            cache = self.sql_cache
            if cache is not None:
                from repro.sql.cache import SqlCache

                memo = cache.memo_for(text)
                if memo is not None and memo is not SqlCache._MISSING:
                    # Known-cacheable text: the normalized form stands in
                    # for the AST, so parsing is skipped entirely.  A
                    # plan- or result-cache miss below re-parses on demand.
                    with self.ctx.query_scope():
                        return self._execute_select(None, memo=memo)
            # One scope per statement: what it leaves in the engine — map
            # outputs, broadcast charges — is given back when it closes, on
            # success, cancellation or failure alike (a statement inside a
            # lifecycle query joins that query's scope).
            with self.ctx.query_scope():
                return self._execute_statement(parse(text), text)
        finally:
            self._current_text = None

    def _execute_statement(
        self, statement: ast.Statement, text: str
    ) -> QueryResult:
        if isinstance(statement, ast.SelectStatement):
            memo = None
            if self.sql_cache is not None and self._current_text is not None:
                memo = self.sql_cache.memoize(self._current_text, statement)
            return self._execute_select(statement, memo=memo)
        if isinstance(statement, ast.Explain):
            if statement.analyze:
                return self._explain_analyze(statement.statement)
            return self._explain(statement.statement)
        # Catalog-mutating statements: execute, then journal the text as
        # it was submitted (paper footnote 4) on success.  The text and
        # the flag are the statement's own, not the session's: lifecycle
        # queries interleave on one session.
        scope = self.ctx.query
        previously_in_statement = scope.in_statement
        scope.in_statement = True
        try:
            if isinstance(statement, ast.CreateTable):
                result = self._create_table(statement)
            elif isinstance(statement, ast.DropTable):
                result = self._drop_table(statement)
            elif isinstance(statement, ast.InsertInto):
                result = self._insert(statement)
            elif isinstance(statement, ast.CacheTable):
                result = self._cache_table(statement)
            else:
                raise UnsupportedFeatureError(
                    f"cannot execute {type(statement).__name__}"
                )
        finally:
            scope.in_statement = previously_in_statement
        if self.journal is not None and not previously_in_statement:
            self.journal.log_statement(text)
        return result

    def _execute_select(
        self,
        statement: Optional[ast.SelectStatement],
        memo=None,
        explain: bool = False,
    ) -> QueryResult:
        """Run one SELECT through the cache stack.

        ``statement`` may be None when the raw text's normalized form
        (``memo``) is known — a result- or plan-cache hit then never
        parses; a miss re-parses ``self._current_text`` on demand.
        ``explain``: the run of an EXPLAIN ANALYZE — logged and traced
        under that kind, and its plan text always rendered.
        """
        ctx = self.ctx
        tracer = ctx.tracer
        tracer.metrics.inc("queries.executed")
        text = self._current_text
        cache = self.sql_cache
        scope = ctx.query
        lookups = scope.cache_lookups
        kind = "explain-analyze" if explain else "select"
        with self._logged_query(kind if explain else "sql", text):
            with tracer.span("query", "query", kind=kind):
                if cache is not None and memo is not None:
                    hit = cache.result_lookup(memo)
                    if hit is not None:
                        rows, schema = hit
                        lookups.append(
                            {"layer": "result", "outcome": "hit"}
                        )
                        report = ExecutionReport()
                        report.note("served from result cache")
                        self.last_report = scope.report = report
                        scope.result_rows = len(rows)
                        return QueryResult(
                            rows, schema, report, cache_hit=True
                        )
                    lookups.append(
                        {"layer": "result", "outcome": "miss"}
                    )
                plan = None
                if cache is not None and memo is not None:
                    cached = cache.plan_lookup(memo)
                    if cached is not None:
                        plan = cached[0]
                        lookups.append(
                            {"layer": "plan", "outcome": "hit"}
                        )
                    else:
                        lookups.append(
                            {"layer": "plan", "outcome": "miss"}
                        )
                if plan is None:
                    plan = self.logical_plan(statement or parse(text))
                plan_text = (
                    plan.pretty()
                    if explain or ctx.event_log is not None
                    else None
                )
                planner = PhysicalPlanner(ctx, self.store, self.config)
                planned = planner.plan(plan)
                self.last_report = planned.report
                rows = planned.rdd.collect()
                if cache is not None and memo is not None:
                    cache.plan_store(memo, plan, planned.schema)
                    cache.result_store(memo, rows, planned.schema)
            scope.report = planned.report
            scope.result_rows = len(rows)
            scope.plan_text = plan_text
        return QueryResult(rows, planned.schema, planned.report)

    def logical_plan(self, select: ast.SelectStatement) -> LogicalPlan:
        """The analyzed, optimized logical plan of one SELECT: the front
        end every way of running or explaining a query goes through."""
        return optimize(
            Analyzer(self.catalog, self.registry).analyze_select(select)
        )

    def plan_select(self, select: ast.SelectStatement,
                    config: Optional[PlannerConfig] = None):
        """Analyze, optimize and physically plan a SELECT; returns the
        PlannedQuery (rdd + schema + report) without executing it."""
        planner = PhysicalPlanner(self.ctx, self.store, config or self.config)
        planned = planner.plan(self.logical_plan(select))
        self.last_report = planned.report
        return planned

    # ------------------------------------------------------------------
    # Event logging
    # ------------------------------------------------------------------
    @contextmanager
    def _logged_query(self, kind: str, text: Optional[str]):
        """Stream one statement's record to the context's event log.

        The statement's scope holds its jobs, shuffles, cache lookups
        and what the session learned (report, plan text, result rows);
        :class:`~repro.obs.record.Marks` taken here isolate its slice of
        the trace buffers and counters.  On any exit (including
        cancellation/failure) the record is captured and written and,
        on abnormal status, the flight recorder dumps.  No-op without
        an event log, or inside a lifecycle-managed query (the scope
        with a cancel token: the lifecycle manager writes that record).
        """
        ctx = self.ctx
        log = ctx.event_log
        scope = ctx.query
        if log is None or scope.token is not None:
            yield
            return
        tracer = ctx.tracer
        marks = Marks(ctx)
        query_id = f"q{log.queries_logged:04d}"
        status, error = "ok", None
        try:
            yield
        except BaseException as exc:
            status = _terminal_status(exc)
            error = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            record = capture(
                ctx,
                scope,
                marks,
                query_id=query_id,
                name=(text or kind).strip(),
                kind=kind,
                text=text,
                status=status,
                error=error,
            )
            metrics = tracer.metrics
            metrics.observe("query.sim_seconds", record.sim_seconds)
            if status != "ok":
                tracer.flight_dump(status, query=query_id)
            if record.operator_profiles:
                metrics.inc(
                    "plan.operator_profiles", len(record.operator_profiles)
                )
                flagged = audit(
                    record.operator_profiles, DEFAULT_Q_ERROR_THRESHOLD
                )
                if flagged:
                    metrics.inc("plan.misestimates", len(flagged))
                    self._q_error_max = flagged[0]["q_error"]
            if record.skew_records:
                metrics.inc("skew.shuffles", len(record.skew_records))
            log.write_query(record)

    def _explain(self, statement: ast.Statement) -> QueryResult:
        text = self.logical_plan(_explained(statement, "EXPLAIN")).pretty()
        return _plan_result(text)

    def _explain_analyze(self, statement: ast.Statement) -> QueryResult:
        """EXPLAIN ANALYZE: run the query for real, then annotate the
        optimized plan with each executed stage's task counts, attempts,
        rows, shuffle bytes, and simulated seconds."""
        select = _explained(statement, "EXPLAIN ANALYZE")
        # The report covers the jobs and shuffles of the scope this
        # statement runs in — its own, whatever runs beside it.
        ctx = self.ctx
        marks = Marks(ctx)
        report = self._execute_select(select, explain=True).report

        # Live-only trailers: engine-wide state, not facts of the query.
        trailers = []
        if ctx.serving is not None:
            trailers.append(("serving", ctx.serving.summary_lines()))
        if self.sql_cache is not None:
            trailers.append(("sql cache", self.sql_cache.summary_lines()))
        notes = list(report.notes)
        if ctx.lifecycle is not None:
            notes.append(ctx.lifecycle.describe())
        text = render_query(
            capture(ctx, ctx.query, marks),
            pressure_events=ctx.memory.pressure_events,
            trailers=trailers,
            notes=notes,
        )
        return _plan_result(text, report)

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------
    def _create_table(self, statement: ast.CreateTable) -> QueryResult:
        if self.catalog.exists(statement.name):
            if statement.if_not_exists:
                return _status(f"table {statement.name} already exists")
            raise CatalogError(f"table already exists: {statement.name}")

        cached = _wants_cache(statement.properties)

        if statement.as_select is None:
            if not statement.columns:
                raise AnalysisError(
                    "CREATE TABLE needs column definitions or AS SELECT"
                )
            schema = Schema(
                Field(column.name, type_by_name(column.type_name))
                for column in statement.columns
            )
            self.create_table(
                statement.name, schema, cached, statement.properties
            )
            return _status(f"created {statement.name}")

        # CTAS: plan the select, honoring co-partitioning requests.
        config = self.config
        copartition_target = statement.properties.get("copartition")
        if copartition_target:
            target = self.catalog.get(copartition_target)
            if target.partitioner is None:
                raise AnalysisError(
                    f"cannot co-partition with {copartition_target}: it was "
                    f"not created with DISTRIBUTE BY"
                )
            config = replace(
                self.config, repartition_override=target.partitioner
            )
        planned = self.plan_select(statement.as_select, config=config)
        entry = self.create_table(
            statement.name,
            planned.schema,
            cached,
            statement.properties,
            planned.batches,
            partitioner=planned.output_partitioner,
            distribute_column=planned.distribute_column,
        )
        return _status(
            f"created {statement.name} ({entry.row_count} rows, "
            f"{'cached' if cached else 'external'})"
        )

    def create_table(
        self,
        name: str,
        schema: Schema,
        cached: bool,
        properties: dict[str, str],
        batches: Optional[RDD] = None,
        replaces: bool = False,
        **layout,
    ) -> TableEntry:
        """Make a table (CREATE TABLE, CTAS, ``SharkContext.create_table``,
        CACHE / UNCACHE's replacement entry).  With ``batches`` it is
        written, then registered; without, the catalog takes the name
        before an external table's empty file overwrites the path (a
        taken name must not truncate its table's file)."""
        entry = TableEntry(
            name=name,
            schema=schema,
            kind=CACHED if cached else EXTERNAL,
            path=None if cached else self._table_path(name),
            properties=dict(properties),
            row_count=0,
            size_bytes=0,
            **layout,
        )
        if batches is not None:
            self._write(entry, batches)
        if replaces:
            self.catalog.drop(name)
        self.catalog.create(entry)
        if batches is None and not cached:
            self.store.write_file(entry.path, [], format="text", overwrite=True)
        return entry

    def _drop_table(self, statement: ast.DropTable) -> QueryResult:
        name = statement.name
        entry = self.catalog.get(name) if self.catalog.exists(name) else None
        if self.catalog.drop(name, if_exists=statement.if_exists):
            # The table owns its warehouse file (an external table's
            # data, or what CACHE TABLE read it from) and the shuffles
            # its lineage reads (CTAS ... GROUP BY / DISTRIBUTE BY kept
            # their map outputs for it): they go with it.
            self._dropped_paths.add(self._table_path(name))
            if entry.cached_rdd is not None:
                self._dropped_shuffles |= lineage_reads(entry.cached_rdd)[1]
            self._reap_dropped()
        return _status(f"dropped {name}")

    def _reap_dropped(self) -> None:
        """Delete dropped tables' files and release the map outputs they
        kept, except those a live cached table's lineage still reads
        (CTAS / CACHE TABLE from the dropped table): recomputing a lost
        partition needs them, so they go when the last such dependent is
        dropped."""
        entries = list(map(self.catalog.get, self.catalog.table_names()))
        # A name created again since owns its path again.
        self._dropped_paths.difference_update(
            entry.path for entry in entries
        )
        pinned_paths: set[str] = set()
        pinned_shuffles: set[int] = set()
        for entry in entries:
            if entry.cached_rdd is not None:
                paths, shuffles = lineage_reads(entry.cached_rdd)
                pinned_paths |= paths
                pinned_shuffles |= shuffles
        for path in self._dropped_paths - pinned_paths:
            self.store.delete(path)
        self._dropped_paths &= pinned_paths
        self.ctx.scheduler.release_query_shuffles(
            self._dropped_shuffles - pinned_shuffles
        )
        self._dropped_shuffles &= pinned_shuffles

    def _cache_table(self, statement: ast.CacheTable) -> QueryResult:
        entry = self.catalog.get(statement.name)
        uncache = statement.uncache
        if uncache and entry.cached_rdd is None:
            return _status(f"uncached {statement.name}")
        if not uncache and entry.is_cached:
            return _status(f"{statement.name} is already cached")
        # UNCACHE spills to the store and flips to external; CACHE reads
        # the file into memory.
        self.create_table(
            entry.name,
            entry.schema,
            not uncache,
            entry.properties,
            self._scan_batches(entry),
            replaces=True,
        )
        if not uncache:
            return _status(f"cached {statement.name}")
        # The external entry has no lineage to walk at DROP: the shuffles
        # the cached one read go now (or with the last live table whose
        # lineage still reads them).
        self._dropped_shuffles |= lineage_reads(entry.cached_rdd)[1]
        self._reap_dropped()
        return _status(f"uncached {statement.name}")

    def _scan_batches(self, entry: TableEntry) -> RDD:
        from repro.sql import logical

        planner = PhysicalPlanner(self.ctx, self.store, self.config)
        return planner.plan(logical.Scan(entry)).batches

    # ------------------------------------------------------------------
    # DML and loading
    # ------------------------------------------------------------------
    def _insert(self, statement: ast.InsertInto) -> QueryResult:
        entry = self.catalog.get(statement.table)
        if statement.values:
            analyzer = Analyzer(self.catalog, self.registry)
            empty_scope = Scope([])
            rows = []
            for value_exprs in statement.values:
                row = tuple(
                    analyzer.bind(expr, empty_scope).eval(())
                    for expr in value_exprs
                )
                if len(row) != len(entry.schema):
                    raise AnalysisError(
                        f"INSERT row width {len(row)} != table width "
                        f"{len(entry.schema)}"
                    )
                rows.append(row)
            self.load_rows(statement.table, rows)
            return _status(f"inserted {len(rows)} rows into {statement.table}")
        planned = self.plan_select(statement.select)
        if len(planned.schema) != len(entry.schema):
            raise AnalysisError(
                f"INSERT select width {len(planned.schema)} != table width "
                f"{len(entry.schema)}"
            )
        rows = self._write(entry, planned.batches, append=True)
        return _status(f"inserted {rows} rows into {statement.table}")

    def load_rows(
        self,
        table_name: str,
        rows: Iterable[tuple],
        num_partitions: Optional[int] = None,
    ) -> int:
        """Bulk-load rows into a table: each loading task transposes its
        split into a batch for :meth:`_write` (Section 3.3)."""
        entry = self.catalog.get(table_name)
        rows = list(map(tuple, rows))
        width = len(entry.schema)
        # Once, before any task transposes the rows into columns.
        check_row_width(rows, width)

        def batch(part: list) -> list:
            return [ColumnBatch.from_rows(part, width)]

        table = entry.cached_rdd
        if num_partitions is None:
            num_partitions = self.ctx.default_parallelism
            if table is not None:
                # Sized from the table: blocks like its largest, so a
                # small INSERT arrives as one block, as any trickle.
                largest = max(block.rows for block in table.blocks)
                wanted = -(-len(rows) // max(largest, 1))
                num_partitions = max(1, min(wanted, num_partitions))
        rdd = self.ctx.parallelize(rows, num_partitions, batch)
        delta = entry.is_cached and rdd.num_partitions == 1
        absorbed = []
        if delta and table is not None:
            # The load arrives as one block, a delta: it takes in the
            # trailing deltas no larger than itself, so n trickles leave
            # O(log n) blocks and not n.  The merged block's task reads
            # their columns through their lineage, then the new batch.
            absorbed = table.absorbable(
                len(rows), self.config.target_partition_bytes
            )
        if absorbed:
            tail = TableBlock(rdd, 0, None, 0, len(rows))
            rdd = BlockListRDD(self.ctx, absorbed + [tail]).coalesce(1)
        self._write(entry, rdd, append=True, delta=delta, absorbed=absorbed)
        # Journaled once it landed, as a statement is once it ran.
        if self.journal is not None and not self.ctx.query.in_statement:
            self.journal.log_load(table_name, rows, num_partitions)
        return len(rows)

    # ------------------------------------------------------------------
    # The writer
    # ------------------------------------------------------------------
    def _run_load(self, rdd: RDD, func) -> list:
        """A load's job: data the table cannot take (TypeMismatchError) fails
        it with that error, and leaves none of its blocks behind."""
        try:
            return self.ctx.run_job(rdd, func)
        except BaseException as error:
            if rdd.is_cached:
                rdd.unpersist()
            if isinstance(getattr(error, "cause", None), AnalysisError):
                raise error.cause from None
            raise

    def _write(
        self,
        entry: TableEntry,
        batches: RDD,
        append: bool = False,
        delta: bool = False,
        absorbed: Sequence[TableBlock] = (),
    ) -> int:
        """The one write into a table, of an RDD of ColumnBatches (a
        distributed job, Section 3.3): each task types its partition's
        columns, then compresses them into a cached block with its
        statistics or formats a block of the text file.  A block follows
        a partition; an ``append`` writes none of no rows.  A ``delta``'s
        one partition leads with the rows of the ``absorbed`` blocks,
        which it replaces.  Returns the rows the table gained.
        """
        schema = entry.schema
        if entry.is_cached:
            # TBLPROPERTIES ('shark.compress' = 'false') keeps columns
            # plain — an ablation/differential-testing axis for the codecs.
            compress = (
                entry.properties.get("shark.compress", "").lower()
                not in ("false", "0", "no")
            )
            columns = range(len(schema))

            def build(part: list) -> list:
                # An absorbed block is read as the batch of its columns.
                batch = ColumnBatch.concat([
                    ColumnBatch.from_block(item, columns)
                    if isinstance(item, ColumnarPartition) else item
                    for item in part
                ])
                return [ColumnarPartition.from_batch(schema, batch, compress)]

            name = f"load:{entry.name}"
            loaded = batches.map_partitions(build).set_name(name).cache()
            infos = self._run_load(
                loaded,
                lambda blks: (
                    blks[0].stats,
                    blks[0].memory_footprint_bytes(),
                    blks[0].num_rows,
                ),
            )
            blocks = [
                TableBlock(loaded, split, *info, delta=delta)
                for split, info in enumerate(infos)
                if info[2] or not append
            ]
            if len(blocks) < len(infos):
                self.ctx.cache_tracker.unpersist(
                    loaded.id,
                    {split for split, info in enumerate(infos) if not info[2]},
                )
            # The table keeps ``loaded`` as its lineage: recomputing a
            # lost block reads the shuffles it reads.
            self.ctx.query.kept_shuffles |= lineage_reads(loaded)[1]
            rows = sum(block.rows for block in blocks)
            table = entry.cached_rdd
            if table is None and blocks:
                entry.set_blocks(BlockListRDD(self.ctx, blocks, name))
            elif blocks:
                entry.set_blocks(table.extended(blocks, len(absorbed)))
                # An append ends the co-partitioning contract of a
                # DISTRIBUTE BY table: block i no longer holds all of
                # bucket i.
                entry.partitioner = None
                entry.distribute_column = None
        else:
            serde = TextSerde(schema)

            def encode(part: list) -> tuple[bytes, int]:
                batch = ColumnBatch.concat(part).typed(schema)
                return serde.encode_batch(batch), batch.num_rows

            encoded = self._run_load(batches, encode)
            blocks = [block for block, __ in encoded if block]
            rows = sum(count for __, count in encoded)
            if append:
                for block in blocks:
                    self.store.append_block(entry.path, block)
                entry.row_count += rows
            else:
                self.store.write_file(
                    entry.path, blocks, format="text", overwrite=True
                )
                entry.row_count = rows
            entry.size_bytes = self.store.file(entry.path).size_bytes
        if not append:
            return rows
        rewritten = sum(block.rows for block in absorbed)
        tracer = self.ctx.tracer
        if absorbed:
            tracer.metrics.inc(
                "memstore.append.blocks_absorbed", len(absorbed)
            )
            tracer.metrics.inc("memstore.append.rows_rewritten", rewritten)
        tracer.instant(
            "table.append",
            "memstore",
            table=entry.name,
            rows=rows - rewritten,
            blocks_written=len(blocks),
            blocks_absorbed=len(absorbed),
            rows_rewritten=rewritten,
        )
        # Appends move the table version (result cache invalidation)
        # without touching its DDL identity.
        self.catalog.bump_version(entry.name)
        return rows - rewritten

    @staticmethod
    def _table_path(name: str) -> str:
        return f"/warehouse/{name.lower()}"


def _wants_cache(properties: dict[str, str]) -> bool:
    return properties.get("shark.cache", "").lower() in ("true", "1", "yes")


def _terminal_status(error: BaseException) -> str:
    from repro.errors import QueryCancelledError, QueryDeadlineExceeded

    if isinstance(error, QueryDeadlineExceeded):
        return "deadline"
    if isinstance(error, QueryCancelledError):
        return "cancelled"
    return "error"


def _explained(statement: ast.Statement, what: str) -> ast.SelectStatement:
    """The SELECT an EXPLAIN [ANALYZE] shows: its own, or a CTAS's."""
    if isinstance(statement, ast.CreateTable) and statement.as_select:
        statement = statement.as_select
    if not isinstance(statement, ast.SelectStatement):
        raise UnsupportedFeatureError(f"{what} supports SELECT and CTAS")
    return statement


def _plan_result(
    text: str, report: Optional[ExecutionReport] = None
) -> QueryResult:
    """An EXPLAIN's answer: one row per line of ``text``."""
    return QueryResult(
        rows=[(line,) for line in text.splitlines()],
        schema=Schema([Field("plan", type_by_name("string"))]),
        report=report or ExecutionReport(),
        plan_text=text,
    )


def _status(message: str) -> QueryResult:
    schema = Schema([Field("status", type_by_name("string"))])
    return QueryResult(rows=[(message,)], schema=schema)
