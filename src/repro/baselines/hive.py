"""Hive: the same SQL front end, lowered to chains of MapReduce jobs.

This executor reuses the repro analyzer and optimizer (mirroring reality —
Shark itself reuses Hive's query compiler, Section 2.4) but lowers the
logical plan the way Hive does:

* narrow operator chains (filter/project) fuse into the *map phase* of the
  consuming job;
* every blocking operator — aggregation, join, sort, distinct,
  repartition — is its own MapReduce job with a sort-based shuffle;
* when one job feeds another, the intermediate output is materialized to
  the replicated file system (``materialized_output=True``), the first
  cost Section 7.1 calls out.

Rows produced are identical to Shark's, which the differential tests
verify; only the job structure and cost accounting differ.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.baselines.mapreduce import JobStats, MapReduceEngine
from repro.columnar.serde import TextSerde
from repro.datatypes import Schema
from repro.errors import UnsupportedFeatureError
from repro.sql import ast, logical
from repro.sql.analyzer import Analyzer
from repro.sql.catalog import Catalog, TableEntry
from repro.sql.functions import FunctionRegistry
from repro.sql.optimizer import optimize
from repro.sql.parser import parse
from repro.sql.expressions import BoundExpr
from repro.sql.physical import flat_sort_keys
from repro.storage import DistributedFileStore

# ---------------------------------------------------------------------------
# Row-at-a-time operators: Hive's semantics, not Shark's (whose operators
# run on ColumnBatches).  The join test keeps ``_emit_joined`` as its
# per-row reference.
# ---------------------------------------------------------------------------


def _key_function(keys: list[BoundExpr]) -> Callable[[tuple], Any]:
    if len(keys) == 1:
        key = keys[0]
        return lambda row: key.eval(row)
    return lambda row: tuple(key.eval(row) for key in keys)


def row_sort_keys(
    keys: list[tuple[BoundExpr, bool]], rows: list
) -> list[tuple]:
    """:func:`~repro.sql.physical.flat_sort_keys` of a partition of rows."""
    return flat_sort_keys(
        keys, [[expr.eval(row) for row in rows] for expr, __ in keys]
    )


def _emit_joined(
    join_type: str,
    left_width: int,
    right_width: int,
    residual: Optional[BoundExpr],
    num_keys: int = 1,
) -> Callable[[tuple], list]:
    """The rows one cogrouped ``(key, (left rows, right rows))`` joins
    to.  An equi-join key with a NULL component equals nothing — not
    even another NULL."""
    left_nulls = (None,) * left_width
    right_nulls = (None,) * right_width

    def emit(pair: tuple) -> list:
        key, (left_rows, right_rows) = pair
        null_key = key is None if num_keys == 1 else None in key
        out: list[tuple] = []
        if left_rows and right_rows and not null_key:
            for left_row in left_rows:
                matched = False
                for right_row in right_rows:
                    combined = tuple(left_row) + tuple(right_row)
                    if residual is None or residual.eval(combined) is True:
                        out.append(combined)
                        matched = True
                if not matched and join_type in ("left", "full"):
                    out.append(tuple(left_row) + right_nulls)
            if join_type in ("right", "full"):
                for right_row in right_rows:
                    matched = any(
                        residual is None
                        or residual.eval(tuple(lr) + tuple(right_row)) is True
                        for lr in left_rows
                    )
                    if not matched:
                        out.append(left_nulls + tuple(right_row))
            return out
        if join_type in ("left", "full"):
            out.extend(tuple(row) + right_nulls for row in left_rows)
        if join_type in ("right", "full"):
            out.extend(left_nulls + tuple(row) for row in right_rows)
        return out

    return emit


def semi_join_probe(
    key_fn: Callable[[tuple], Any],
    value_set: frozenset,
    has_null: bool,
    negated: bool,
) -> Callable[[tuple], bool]:
    """Row predicate for ``key [NOT] IN (subquery values)``.

    SQL three-valued semantics: a NULL key is never TRUE; NOT IN over a
    set containing NULL is never TRUE for any row — unless the subquery
    returned nothing: NOT IN (nothing) is TRUE whatever the key.
    """

    def keep(row: tuple) -> bool:
        value = key_fn(row)
        if value is None:
            return negated and not value_set and not has_null
        if negated:
            if has_null:
                return False
            return value not in value_set
        return value in value_set

    return keep


@dataclass
class HiveQueryRun:
    """Result rows plus the MapReduce job chain that produced them."""

    rows: list[tuple]
    schema: Schema
    jobs: list[JobStats] = field(default_factory=list)

    @property
    def num_jobs(self) -> int:
        return len(self.jobs)

    @property
    def materialized_bytes(self) -> int:
        return sum(
            job.output_bytes for job in self.jobs if job.materialized_output
        )


@dataclass
class _Staged:
    """Intermediate state while lowering: data blocks, jobs so far, and a
    pending per-row map chain not yet attached to a job."""

    blocks: list[list]
    jobs: list[JobStats]
    pending: Optional[Callable[[tuple], list]] = None
    #: True when ``blocks`` came out of a job (so feeding another job
    #: means materializing to HDFS first).
    from_job: bool = False
    #: On-storage byte size per block for base-table scans (what the map
    #: tasks actually read off HDFS); None once blocks left a job.
    block_bytes: Optional[list[int]] = None


def _compose(
    outer: Callable[[tuple], list], inner: Optional[Callable[[tuple], list]]
) -> Callable[[tuple], list]:
    if inner is None:
        return outer

    def chained(row: tuple) -> list:
        out: list = []
        for intermediate in inner(row):
            out.extend(outer(intermediate))
        return out

    return chained


class HiveExecutor:
    """Executes SELECT statements as MapReduce job chains."""

    def __init__(
        self,
        catalog: Catalog,
        store: DistributedFileStore,
        registry: Optional[FunctionRegistry] = None,
        num_reducers: int = 8,
        table_rows: Optional[Callable[[TableEntry], list[list]]] = None,
    ):
        self.catalog = catalog
        self.store = store
        self.registry = registry or FunctionRegistry()
        self.engine = MapReduceEngine(num_reducers=num_reducers)
        self.num_reducers = num_reducers
        #: Hook to fetch a table's row blocks (the SharkContext supplies
        #: one that can also read memstore tables for A/B comparisons).
        self._table_rows = table_rows

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def execute(self, text: str) -> HiveQueryRun:
        """Parse, analyze, optimize and run one SELECT as MapReduce jobs."""
        statement = parse(text)
        if not isinstance(statement, ast.SelectStatement):
            raise UnsupportedFeatureError(
                "the Hive baseline executes SELECT statements only"
            )
        analyzer = Analyzer(self.catalog, self.registry)
        plan = optimize(analyzer.analyze_select(statement))
        return self.execute_plan(plan)

    def execute_plan(self, plan: logical.LogicalPlan) -> HiveQueryRun:
        """Lower and run an already-optimized logical plan."""
        staged = self._lower(plan)
        staged = self._flush(staged, name="final_map")
        rows = [row for block in staged.blocks for row in block]
        return HiveQueryRun(rows=rows, schema=plan.schema, jobs=staged.jobs)

    # ------------------------------------------------------------------
    # Lowering
    # ------------------------------------------------------------------
    def _lower(self, plan: logical.LogicalPlan) -> _Staged:
        if isinstance(plan, logical.Values):
            return _Staged(blocks=[list(plan.rows)], jobs=[])
        if isinstance(plan, logical.Scan):
            blocks, sizes = self._scan_blocks(plan)
            return _Staged(blocks=blocks, jobs=[], block_bytes=sizes)
        if isinstance(plan, logical.Filter):
            child = self._lower(plan.child)
            condition = plan.condition
            mapper = lambda row: [row] if condition.eval(row) is True else []  # noqa: E731
            child.pending = _compose(mapper, child.pending)
            return child
        if isinstance(plan, logical.Project):
            child = self._lower(plan.child)
            expressions = plan.expressions
            mapper = lambda row: [  # noqa: E731
                tuple(expr.eval(row) for expr in expressions)
            ]
            child.pending = _compose(mapper, child.pending)
            return child
        if isinstance(plan, logical.Aggregate):
            return self._lower_aggregate(plan)
        if isinstance(plan, logical.Join):
            return self._lower_join(plan)
        if isinstance(plan, logical.Sort):
            return self._lower_sort(plan)
        if isinstance(plan, logical.Limit):
            return self._lower_limit(plan)
        if isinstance(plan, logical.Distinct):
            return self._lower_distinct(plan)
        if isinstance(plan, logical.UnionAll):
            staged_children = [
                self._flush(self._lower(child), name="union_branch")
                for child in plan.inputs
            ]
            blocks: list[list] = []
            jobs: list[JobStats] = []
            for staged in staged_children:
                blocks.extend(staged.blocks)
                jobs.extend(staged.jobs)
            return _Staged(blocks=blocks, jobs=jobs, from_job=bool(jobs))
        if isinstance(plan, logical.Repartition):
            return self._lower_repartition(plan)
        if isinstance(plan, logical.SemiJoinFilter):
            return self._lower_semi_join_filter(plan)
        raise UnsupportedFeatureError(
            f"Hive baseline cannot lower {type(plan).__name__}"
        )

    def _scan_blocks(self, plan: logical.Scan) -> tuple[list[list], list[int]]:
        """Blocks plus their on-storage sizes.

        Hive reads the encoded file (it has no columnar memstore), so map
        input bytes are the serde-encoded sizes even when the query also
        projects columns -- column pruning does not reduce Hive's I/O.
        """
        entry = plan.table
        blocks = self._fetch_table_blocks(entry)
        if entry.path is not None and self.store.exists(entry.path):
            stored = self.store.file(entry.path)
            sizes = [len(payload) for payload in stored.blocks]
        else:
            serde = TextSerde(entry.schema)
            sizes = [len(serde.encode(block)) for block in blocks]
        if plan.projected_columns is not None:
            indices = [
                entry.schema.index_of(name)
                for name in plan.projected_columns
            ]
            blocks = [
                [tuple(row[i] for i in indices) for row in block]
                for block in blocks
            ]
        return blocks, sizes

    def _fetch_table_blocks(self, entry: TableEntry) -> list[list]:
        if self._table_rows is not None:
            return self._table_rows(entry)
        if entry.path is not None and self.store.exists(entry.path):
            serde = TextSerde(entry.schema)
            stored = self.store.file(entry.path)
            return [
                serde.decode(self.store.read_block(entry.path, index))
                for index in range(stored.num_blocks)
            ]
        raise UnsupportedFeatureError(
            f"Hive baseline cannot read table {entry.name}; provide a "
            f"table_rows hook for cached tables"
        )

    def _consume(self, staged: _Staged, job_name: str) -> _Staged:
        """Prepare a staged input to feed a new job: if it came from a
        previous job, that job's output materializes to HDFS."""
        if staged.from_job and staged.jobs:
            staged.jobs[-1].materialized_output = True
        del job_name
        return staged

    def _flush(self, staged: _Staged, name: str) -> _Staged:
        """Apply any pending map chain.

        Over base-table blocks this is a real map-only job; over a
        previous job's output it fuses into that job's reduce phase (Hive
        evaluates select expressions in the reducer), costing no extra job.
        """
        if staged.pending is None:
            return staged
        pending = staged.pending
        if staged.from_job:
            blocks = [
                [out for row in block for out in pending(row)]
                for block in staged.blocks
            ]
            return _Staged(
                blocks=blocks, jobs=staged.jobs, pending=None, from_job=True
            )
        run = self.engine.run_job(
            staged.blocks, mapper=pending, name=name,
            input_block_bytes=staged.block_bytes,
        )
        return _Staged(
            blocks=run.blocks,
            jobs=staged.jobs + run.jobs,
            pending=None,
            from_job=True,
        )

    # ------------------------------------------------------------------
    # Blocking operators
    # ------------------------------------------------------------------
    def _lower_aggregate(self, plan: logical.Aggregate) -> _Staged:
        child = self._consume(self._lower(plan.child), "aggregate")
        groups = plan.group_expressions
        specs = plan.aggregates

        def to_pair(row: tuple) -> list:
            key = tuple(expr.eval(row) for expr in groups)
            accs = []
            for spec in specs:
                value = (
                    spec.argument.eval(row)
                    if spec.argument is not None
                    else None
                )
                accs.append(spec.function.update(spec.function.initial(), value))
            return [(key, accs)]

        mapper = _compose(to_pair, child.pending)

        def combiner(key: tuple, partials: list) -> list:
            merged = partials[0]
            for accs in partials[1:]:
                merged = [
                    spec.function.merge(a, b)
                    for spec, a, b in zip(specs, merged, accs)
                ]
            return [(key, merged)]

        def reducer(key: tuple, partials: list) -> list:
            (_, merged), = combiner(key, partials)
            finished = tuple(
                spec.function.finish(acc)
                for spec, acc in zip(specs, merged)
            )
            return [tuple(key) + finished]

        reducers = 1 if not groups else self.num_reducers
        run = self.engine.run_job(
            child.blocks,
            mapper=mapper,
            reducer=reducer,
            combiner=combiner,
            num_reducers=reducers,
            name="aggregate",
            input_block_bytes=child.block_bytes,
        )
        return _Staged(
            blocks=run.blocks, jobs=child.jobs + run.jobs, from_job=True
        )

    def _lower_join(self, plan: logical.Join) -> _Staged:
        left = self._consume(self._lower(plan.left), "join")
        right = self._consume(self._lower(plan.right), "join")
        left_pending, right_pending = left.pending, right.pending

        if not plan.left_keys:
            left = self._flush(left, "cross_left_map")
            right = self._flush(right, "cross_right_map")
            # Cross join: Hive would do a single-reducer nested loop.
            residual = plan.residual
            rows = []
            for left_block in left.blocks:
                for left_row in left_block:
                    for right_block in right.blocks:
                        for right_row in right_block:
                            combined = tuple(left_row) + tuple(right_row)
                            if residual is None or residual.eval(combined) is True:
                                rows.append(combined)
            stats = JobStats(
                name="cross_join",
                map_tasks=len(left.blocks) + len(right.blocks),
                reduce_tasks=1,
                output_records=len(rows),
            )
            return _Staged(
                blocks=[rows],
                jobs=left.jobs + right.jobs + [stats],
                from_job=True,
            )

        left_key = _key_function(plan.left_keys)
        right_key = _key_function(plan.right_keys)
        tagged_blocks = [
            [(0, row) for row in block] for block in left.blocks
        ] + [[(1, row) for row in block] for block in right.blocks]

        def mapper(tagged: tuple) -> list:
            # Filters/projections below the join fuse into its map phase.
            tag, raw = tagged
            pending = left_pending if tag == 0 else right_pending
            rows = [raw] if pending is None else pending(raw)
            key_fn = left_key if tag == 0 else right_key
            return [(key_fn(row), (tag, row)) for row in rows]

        emit = _emit_joined(
            plan.join_type,
            len(plan.left.schema),
            len(plan.right.schema),
            plan.residual,
            len(plan.left_keys),
        )

        def reducer(key, tagged_rows: list) -> list:
            left_rows = [row for tag, row in tagged_rows if tag == 0]
            right_rows = [row for tag, row in tagged_rows if tag == 1]
            return emit((key, (left_rows, right_rows)))

        tagged_bytes = None
        if left.block_bytes is not None or right.block_bytes is not None:
            tagged_bytes = (
                (left.block_bytes
                 or [0] * len(left.blocks))
                + (right.block_bytes or [0] * len(right.blocks))
            )
        run = self.engine.run_job(
            tagged_blocks,
            mapper=mapper,
            reducer=reducer,
            num_reducers=self.num_reducers,
            name="repartition_join",
            input_block_bytes=tagged_bytes,
        )
        return _Staged(
            blocks=run.blocks,
            jobs=left.jobs + right.jobs + run.jobs,
            from_job=True,
        )

    def _lower_sort(self, plan: logical.Sort) -> _Staged:
        child = self._consume(self._lower(plan.child), "sort")
        keys = plan.keys

        def to_pair(row: tuple) -> list:
            return [(None, (row_sort_keys(keys, [row])[0], row))]

        mapper = _compose(to_pair, child.pending)

        def reducer(__, pairs: list) -> list:
            pairs.sort(key=lambda item: item[0])
            return [row for ___, row in pairs]

        # Hive's ORDER BY runs with a single reducer for a total order.
        run = self.engine.run_job(
            child.blocks, mapper=mapper, reducer=reducer, num_reducers=1,
            name="order_by", input_block_bytes=child.block_bytes,
        )
        return _Staged(
            blocks=run.blocks, jobs=child.jobs + run.jobs, from_job=True
        )

    def _lower_limit(self, plan: logical.Limit) -> _Staged:
        child = self._flush(self._lower(plan.child), "limit_map")
        count = plan.count
        taken: list = []
        for block in child.blocks:
            taken.extend(block[: count - len(taken)])
            if len(taken) >= count:
                break
        return _Staged(blocks=[taken], jobs=child.jobs, from_job=child.from_job)

    def _lower_distinct(self, plan: logical.Distinct) -> _Staged:
        child = self._consume(self._lower(plan.child), "distinct")
        mapper = _compose(lambda row: [(row, None)], child.pending)

        def reducer(key, __) -> list:
            return [key]

        run = self.engine.run_job(
            child.blocks, mapper=mapper, reducer=reducer,
            num_reducers=self.num_reducers, name="distinct",
            input_block_bytes=child.block_bytes,
        )
        return _Staged(
            blocks=run.blocks, jobs=child.jobs + run.jobs, from_job=True
        )

    def _lower_semi_join_filter(
        self, plan: logical.SemiJoinFilter
    ) -> _Staged:
        """Hive's uncorrelated IN-subquery: run the subquery as its own
        job chain, distribute the value set to the outer query's mappers
        (a map-side semi-join), and filter in the map phase."""
        sub = self._flush(self._lower(plan.subquery), "subquery")
        values = [row[0] for block in sub.blocks for row in block]
        has_null = any(value is None for value in values)
        value_set = frozenset(v for v in values if v is not None)
        key = plan.key
        keep = semi_join_probe(
            lambda row: key.eval(row), value_set, has_null, plan.negated
        )
        child = self._lower(plan.child)
        mapper = lambda row: [row] if keep(row) else []  # noqa: E731
        child.pending = _compose(mapper, child.pending)
        child.jobs = sub.jobs + child.jobs
        return child

    def _lower_repartition(self, plan: logical.Repartition) -> _Staged:
        child = self._consume(self._lower(plan.child), "repartition")
        key_fn = _key_function(plan.expressions)
        mapper = _compose(lambda row: [(key_fn(row), row)], child.pending)

        def reducer(__, rows: list) -> list:
            return rows

        run = self.engine.run_job(
            child.blocks, mapper=mapper, reducer=reducer,
            num_reducers=self.num_reducers, name="distribute_by",
            input_block_bytes=child.block_bytes,
        )
        return _Staged(
            blocks=run.blocks, jobs=child.jobs + run.jobs, from_job=True
        )
