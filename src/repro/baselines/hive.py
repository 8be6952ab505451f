"""Hive: the same SQL front end and engine, lowered the way Hive runs.

Hive is a lowering policy over the one engine (Shark reuses Hive's
compiler, Section 2.4): a query is cut into MapReduce jobs, one per
aggregation, join, sort, DISTINCT and DISTRIBUTE BY, with filters and
projections fused into the map phase over a table or into the reducer
whose output they read.  Each job is planned by the one planner with
every run-time optimization off (every join shuffles) and runs on the
engine.  A job's output that another job reads goes to the file store
as text, a block per reduce partition, and is scanned from there.
:class:`JobStats` are a job's stage profile (tasks, map output records,
shuffle bytes) and its input and output as ``TextSerde`` bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.baselines.mapreduce import JobStats
from repro.columnar.serde import TextSerde
from repro.datatypes import INT, Field, Schema
from repro.engine.metrics import QueryProfile
from repro.errors import StorageError, UnsupportedFeatureError
from repro.sql import ast, logical, physical
from repro.sql.catalog import TableEntry
from repro.sql.expressions import BoundLiteral
from repro.sql.parser import parse
from repro.sql.planner import PhysicalPlanner
from repro.sql.session import SqlSession

#: The job of each blocking operator but a join (see ``_lower``).
_JOBS = {logical.Aggregate: "aggregate", logical.Sort: "order_by",
         logical.Distinct: "distinct", logical.Repartition: "distribute_by"}
_ONE = BoundLiteral(0, INT)


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
        return sum(j.output_bytes for j in self.jobs if j.materialized_output)


@dataclass
class _Staged:
    """A subtree lowered so far: ``plan`` over stored tables, or over the
    ``Values`` of rows jobs produced (``blocks``, by ``producers``), and
    the jobs run for it; ``name`` while ``plan`` is a job not yet run."""

    plan: logical.LogicalPlan
    jobs: list[JobStats] = field(default_factory=list)
    name: Optional[str] = None
    blocks: Optional[list[list]] = None
    producers: list[JobStats] = field(default_factory=list)


class _JobPlanner(PhysicalPlanner):
    """The planner, with Hive's reducers: ``num_reducers`` of them behind
    every hash exchange, and one for ORDER BY, for a total order, and
    for an aggregate with no GROUP BY."""

    def _hash_partitions(self) -> int:
        return self.config.num_reducers

    def _global_partials(self, partials):
        # Hive merges a global aggregate's partials on one reducer.
        return physical.exchange_partials(partials, 0, 1)

    def _lower(self, node, no_prune=False, top=None):
        if not isinstance(node, logical.Sort):
            return super()._lower(node, no_prune, top)
        child, ordinals = self._keyed(node.child, [e for e, __ in node.keys])
        op = self._stamp("sort", node)
        return self._over(
            physical.sort_batches(
                child, node.keys, ordinals, len(node.schema), op=op,
                num_partitions=1,
            ),
            op,
        )


class HiveExecutor:
    """Runs SELECT statements as MapReduce job chains on ``session``'s
    engine and tables."""

    def __init__(self, session: SqlSession, num_reducers: int = 8):
        if num_reducers <= 0:
            raise ValueError("num_reducers must be positive")
        self.session = session
        self.ctx = session.ctx
        self.store = session.store
        self.config = replace(
            session.config, enable_pde=False, enable_map_pruning=False,
            enable_copartition_join=False, enable_static_join_estimates=False,
            num_reducers=num_reducers,
        )
        #: The running query's intermediate files.
        self._files: list[str] = []

    def execute(self, text: str) -> HiveQueryRun:
        """Parse, analyze, optimize and run one SELECT as MapReduce jobs."""
        statement = parse(text)
        if not isinstance(statement, ast.SelectStatement):
            raise UnsupportedFeatureError(
                "the Hive baseline executes SELECT statements only"
            )
        plan = self.session.logical_plan(statement)
        with self.ctx.query_scope():
            try:
                staged = self._flush(self._lower(plan), "final_map")
            finally:
                for path in self._files:
                    self.store.delete(path)
                self._files.clear()
        return HiveQueryRun(staged.plan.rows, plan.schema, staged.jobs)

    def _lower(self, node: logical.LogicalPlan) -> _Staged:
        if _is_leaf(node):
            return _Staged(node)
        if isinstance(node, (logical.Filter, logical.Project)):
            child = self._lower(node.child)
            child.plan = replace(node, child=child.plan)
            return child
        if isinstance(node, logical.SemiJoinFilter):
            # The subquery runs first; its values reach the outer
            # query's mappers (a map-side semi-join).
            sub = self._flush(self._lower(node.subquery), "subquery")
            child = self._lower(node.child)
            child.jobs = sub.jobs + child.jobs
            child.plan = replace(node, child=child.plan, subquery=sub.plan)
            return child
        if isinstance(node, logical.Limit):
            return self._flush(self._lower(node.child), "limit_map", node.count)
        if isinstance(node, logical.UnionAll):
            branches = [
                self._flush(self._lower(child), "union_branch")
                for child in node.inputs
            ]
            return _rows(
                node.schema,
                [block for branch in branches for block in branch.blocks],
                [job for branch in branches for job in branch.jobs],
                [job for branch in branches for job in branch.producers],
            )
        if isinstance(node, logical.Join):
            left, right = (
                self._input(self._lower(side)) for side in node.children
            )
            plan = replace(node, left=left.plan, right=right.plan)
            name = "repartition_join"
            if not node.left_keys:  # every row meets every row, on one key
                join_type = node.join_type.replace("cross", "inner")
                plan = replace(
                    plan, join_type=join_type, left_keys=[_ONE], right_keys=[_ONE]
                )
                name = "cross_join"
            return _Staged(plan, left.jobs + right.jobs, name)
        if type(node) not in _JOBS:
            raise UnsupportedFeatureError(
                f"Hive baseline cannot lower {type(node).__name__}"
            )
        child = self._input(self._lower(node.child))
        return _Staged(
            replace(node, child=child.plan), child.jobs, _JOBS[type(node)]
        )

    def _input(self, staged: _Staged) -> _Staged:
        """``staged`` as the input of a job: a pending job runs, and rows
        jobs produced go to a file the new job scans."""
        if staged.name is not None:
            staged = self._flush(staged, staged.name)
        if staged.blocks is None:
            return staged  # its map chain joins the new job's map phase
        for job in staged.producers:
            job.materialized_output = True
        plan = _rebase(
            staged.plan, lambda leaf: self._write(staged.blocks, leaf.schema)
        )
        return _Staged(plan, staged.jobs)

    def _flush(
        self, staged: _Staged, name: str, limit: Optional[int] = None
    ) -> _Staged:
        """``staged`` run to rows (its first ``limit``).  A pending job
        runs, and so does a map chain over a stored table, as map-only job
        ``name``; a bare table is fetched, and a chain over rows jobs
        produced runs as part of their reducers: neither is a job."""
        plan, jobs, producers = staged.plan, staged.jobs, staged.producers
        job = None
        if staged.name is None and (staged.blocks is not None or _is_leaf(plan)):
            blocks = staged.blocks
            if blocks is None or not _is_leaf(plan):
                blocks = self._collect(plan)
        else:
            name = staged.name or name
            sizes = [self._size(leaf) for leaf in _inputs(plan)]
            config = self.config
            if name == "cross_join":  # Hive's cross join has one reducer
                config = replace(config, num_reducers=1)
            blocks = self._collect(plan, config)
            job = _job_stats(name, self.ctx.query.profiles[-1])
            job.input_records = sum(rows for rows, __ in sizes)
            job.input_bytes = sum(size for __, size in sizes)
            jobs, producers = jobs + [job], [job]
        if limit is not None:
            blocks = [_concat(blocks)[:limit]]
        if job is not None:
            job.output_records = sum(map(len, blocks))
            job.output_bytes = sum(map(len, _encoded(blocks, plan.schema)))
            if not job.reduce_tasks:
                job.map_output_records = job.output_records
        return _rows(plan.schema, blocks, jobs, producers)

    def _collect(self, plan: logical.LogicalPlan, config=None) -> list[list]:
        """``plan`` run on the engine: its rows, one list a partition."""
        planner = _JobPlanner(self.ctx, self.store, config or self.config)
        return self.ctx.run_job(planner.plan(plan).rdd, list)

    def _size(self, leaf: logical.LogicalPlan) -> tuple[int, int]:
        """Rows and text bytes of a job's input: a stored file as it is;
        a cached table, or literal rows, as Hive would store them."""
        if isinstance(leaf, logical.Scan):
            entry = leaf.table
            if entry.path is not None:
                return entry.row_count or 0, self.store.file(entry.path).size_bytes
            leaf = logical.Scan(entry)  # every column, whatever is read
        blocks = self._collect(leaf)
        return len(_concat(blocks)), sum(map(len, _encoded(blocks, leaf.schema)))

    def _write(self, blocks: list[list], schema: Schema) -> logical.Scan:
        """Rows jobs produced as a text file, a block a partition, to be
        scanned as a table (its columns renamed apart: a join's output
        may repeat a name).  Rows it would read back as other rows are
        an error (DESIGN §16, "Text")."""
        schema = Schema(
            Field(f"_c{i}", column.data_type)
            for i, column in enumerate(schema.fields)
        )
        serde = TextSerde(schema)
        payloads = list(map(serde.encode, blocks))
        try:  # (repr: a NaN reads back as a NaN, which is unequal to it)
            read = list(map(serde.decode, payloads))
            carried = read == blocks or repr(read) == repr(blocks)
        except StorageError:  # a STRUCT
            carried = False
        if not carried:
            raise UnsupportedFeatureError(
                "the Hive baseline's text intermediate cannot hold these rows"
            )
        path = f"/tmp/hive/{id(self)}/{len(self._files)}"
        self.store.write_file(path, payloads)
        self._files.append(path)
        rows = sum(map(len, blocks))
        return logical.Scan(TableEntry(path, schema, path=path, row_count=rows))


def _job_stats(name: str, profile: QueryProfile) -> JobStats:
    """A job's tasks and shuffle, from the profile of its engine job —
    the one that runs its stages: PDE is off, a one-reducer sort needs no
    bounds.  Shuffle-map stages that ran are the map phase, the result
    stage the reduce phase (without a shuffle, the map phase)."""
    maps = [s for s in profile.stages if s.is_shuffle_map and s.num_tasks]
    if not maps:
        return JobStats(name, map_tasks=profile.stages[-1].num_tasks)
    return JobStats(
        name,
        map_tasks=sum(stage.num_tasks for stage in maps),
        reduce_tasks=profile.stages[-1].num_tasks,
        map_output_records=sum(stage.shuffle_write_records for stage in maps),
        shuffle_bytes=sum(stage.shuffle_write_bytes for stage in maps),
        used_combiner=any(stage.map_side_combined for stage in maps),
    )


def _rows(schema: Schema, blocks, jobs, producers) -> _Staged:
    values = logical.Values(_concat(blocks), schema)
    return _Staged(values, jobs, blocks=blocks, producers=producers)


def _concat(blocks: list[list]) -> list:
    return [row for block in blocks for row in block]


def _encoded(blocks: list[list], schema: Schema) -> list[bytes]:
    serde = TextSerde(schema)
    return [serde.encode(block) for block in blocks]


def _is_leaf(plan: logical.LogicalPlan) -> bool:
    return isinstance(plan, (logical.Scan, logical.Values))


def _rebase(plan: logical.LogicalPlan, source) -> logical.LogicalPlan:
    """``plan``'s map chain over ``source(leaf)`` in place of its leaf."""
    if _is_leaf(plan):
        return source(plan)
    return replace(plan, child=_rebase(plan.child, source))


def _inputs(plan: logical.LogicalPlan) -> list:
    """The tables (or literal rows) a job reads; an IN-subquery's values
    were handed to it, not read."""
    if _is_leaf(plan):
        return [plan]
    children = plan.children
    if isinstance(plan, logical.SemiJoinFilter):
        children = [plan.child]
    return [leaf for child in children for leaf in _inputs(child)]
