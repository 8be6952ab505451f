"""The physical planner: logical plan -> RDD dataflow, with run-time
optimization.

This is where the paper's Section 3 machinery comes together:

* **map pruning** (3.5): Filter-over-Scan consults per-partition column
  statistics and never launches tasks for partitions that cannot match;
* **join selection** (3.1.1): static size estimates pick broadcast joins
  when a side is known-small; when sizes are unknown (fresh data, UDFs),
  PDE pre-runs the likely-small side's map stage, reads the observed size,
  and switches to a map join if it is small — reusing the materialized
  pre-shuffle either way;
* **co-partitioned joins** (3.4): both sides stored DISTRIBUTE BY the join
  key -> all-narrow cogroup, no shuffle;
* **degree-of-parallelism + skew** (3.1.2): aggregations shuffle into
  fine-grained buckets; PDE reads bucket sizes and greedily bin-packs them
  into balanced coalesced reduce partitions.

Every operator's expressions compile to the batch kernels of
:mod:`repro.sql.codegen`; no option selects another execution mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import TYPE_CHECKING, Optional

from repro.columnar.batch import ColumnBatch
from repro.datatypes import Schema
from repro.engine.partitioner import HashPartitioner, Partitioner
from repro.engine.rdd import RDD, DriverRDD
from repro.errors import UnsupportedFeatureError
from repro.pde import (
    JoinDecision,
    choose_num_reducers,
    decide_join_strategy,
    pack_partitions,
)
from repro.obs.planquality import (
    SOURCE_CATALOG,
    SOURCE_GUESS,
    SOURCE_NONE,
    SOURCE_PRUNING,
    OperatorStamp,
    estimate_filtered_rows,
)
from repro.pde.decisions import (
    DEFAULT_BROADCAST_THRESHOLD,
    DEFAULT_TARGET_PARTITION_BYTES,
    FINE_GRAINED_FACTOR,
)
from repro.sql import logical
from repro.sql import physical
from repro.sql.catalog import TableEntry
from repro.sql.codegen import (
    compile_vector_expression,
    compile_vector_predicate,
    compile_vector_projection,
)
from repro.sql.expressions import (
    BoundBetween,
    BoundColumn,
    BoundComparison,
    BoundExpr,
    BoundIn,
    BoundLiteral,
)
from repro.sql.optimizer import split_conjuncts

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.context import EngineContext
    from repro.storage import DistributedFileStore


@dataclass
class PlannerConfig:
    """Knobs controlling run-time optimization (each is an ablation axis)."""

    enable_pde: bool = True
    enable_map_pruning: bool = True
    enable_copartition_join: bool = True
    #: Also use static size estimates for join selection; turning this off
    #: while keeping PDE reproduces the "adaptive only" bar of Figure 8.
    enable_static_join_estimates: bool = True
    broadcast_threshold_bytes: int = DEFAULT_BROADCAST_THRESHOLD
    target_partition_bytes: int = DEFAULT_TARGET_PARTITION_BYTES
    #: Fixed reducer count (overrides PDE parallelism choice when set).
    num_reducers: Optional[int] = None
    #: Partitioner override for DISTRIBUTE BY (co-partitioning with an
    #: existing table requires using its exact partitioner).
    repartition_override: Optional[Partitioner] = None


@dataclass
class ExecutionReport:
    """What the planner decided at run time, for tests and EXPLAIN."""

    notes: list[str] = field(default_factory=list)
    scanned_partitions: int = 0
    pruned_partitions: int = 0
    join_decisions: list[JoinDecision] = field(default_factory=list)
    #: (operator label, execution mode) per lowered operator: "vectorized"
    #: for array kernels, with an interpreted-subtree count when some
    #: expressions fell back to the elementwise evaluator.  EXPLAIN
    #: ANALYZE renders these.
    operator_modes: list[tuple[str, str]] = field(default_factory=list)
    #: One :class:`OperatorStamp` per ``mode()`` call, carrying the
    #: planner's cardinality estimate and its statistics source; runtime
    #: row counts join back on ``stamp.key`` (repro.obs.planquality).
    operator_stamps: list[OperatorStamp] = field(default_factory=list)

    def note(self, message: str) -> None:
        self.notes.append(message)

    def mode(
        self,
        operator: str,
        mode: str,
        est_rows: Optional[int] = None,
        est_source: str = SOURCE_NONE,
        detail: str = "",
    ) -> OperatorStamp:
        self.operator_modes.append((operator, mode))
        stamp = OperatorStamp(
            operator=operator,
            mode=mode,
            op_id=len(self.operator_stamps),
            est_rows=est_rows,
            est_source=est_source,
            detail=detail,
        )
        self.operator_stamps.append(stamp)
        return stamp

    def set_mode(self, stamp: OperatorStamp, mode: str) -> None:
        """Correct the mode of an operator stamped before the planner
        knew how it would run (a join is stamped before its inputs)."""
        stamp.mode = mode
        self.operator_modes[stamp.op_id] = (stamp.operator, mode)


@dataclass
class PlannedQuery:
    #: The output as ColumnBatches: what CTAS / CACHE TABLE write.
    batches: RDD
    schema: Schema
    report: ExecutionReport
    output_partitioner: Optional[Partitioner] = None
    distribute_column: Optional[str] = None

    @cached_property
    def rdd(self) -> RDD:
        """The output as rows, for a row consumer (built on first use)."""
        return physical.rows_of(self.batches)


@dataclass
class _Pipeline:
    """What lowering a subtree gives: an open chain of batch links over
    a source of ColumnBatches — a cached scan's blocks (``scan``), or any
    RDD whose partitions hold batches (``rdd``: an external scan's
    decoded columns, the output of an exchange).  Filters, projections
    and map-join probes are appended to it until an operator that needs
    the batches or their partial aggregates closes it into one
    :class:`~repro.sql.physical.BatchPipelineRDD`."""

    rdd: Optional[RDD] = None
    scan: Optional[logical.Scan] = None
    kept: Optional[list[int]] = None
    scan_op: Optional[OperatorStamp] = None
    chain: list = field(default_factory=list)
    #: One stamp per link; None for a link no plan node stands behind.
    chain_ops: list[Optional[OperatorStamp]] = field(default_factory=list)
    #: Running row estimate through the chain, with its source.
    est: Optional[int] = None
    source: str = SOURCE_NONE


def _is_identity(node: logical.Project) -> bool:
    """True when the projection passes every child column through, in
    order (it may still rename them: names live in the logical schema)."""
    expressions = node.expressions
    return len(expressions) == len(node.child.schema) and all(
        isinstance(expression, BoundColumn) and expression.index == index
        for index, expression in enumerate(expressions)
    )


class PhysicalPlanner:
    """Plans one optimized logical plan into an RDD dataflow."""

    def __init__(
        self,
        ctx: "EngineContext",
        store: "DistributedFileStore",
        config: Optional[PlannerConfig] = None,
    ):
        self.ctx = ctx
        self.store = store
        self.config = config or PlannerConfig()
        self.report = ExecutionReport()

    def _record_join_decision(
        self, decision: JoinDecision, mechanism: str
    ) -> None:
        """Log one run-time join selection to the report and the tracer."""
        self.report.join_decisions.append(decision)
        tracer = self.ctx.tracer
        tracer.metrics.inc("pde.join_decisions")
        tracer.instant(
            "pde.decision",
            "pde",
            decision="join_strategy",
            mechanism=mechanism,
            strategy=decision.strategy,
            reason=decision.reason,
            left_bytes=decision.left_bytes,
            right_bytes=decision.right_bytes,
        )

    def plan(self, node: logical.LogicalPlan) -> PlannedQuery:
        pipeline = self._lower(node)
        planned = PlannedQuery(self._close(pipeline), node.schema, self.report)
        if isinstance(node, logical.Repartition):
            planned.output_partitioner = self._repartition_partitioner()
            if len(node.expressions) == 1 and isinstance(
                node.expressions[0], BoundColumn
            ):
                planned.distribute_column = node.schema.names[
                    node.expressions[0].index
                ]
        return planned

    # ------------------------------------------------------------------
    # Expression compilation
    # ------------------------------------------------------------------
    def _mode(self, interpreted: int = 0) -> str:
        """How an operator's expressions run, for its stamp."""
        if interpreted:
            return f"vectorized ({interpreted} interpreted)"
        return "vectorized"

    def _kernel(self, expr: BoundExpr) -> tuple:
        return compile_vector_expression(expr, self.ctx.tracer.metrics)

    def _kernels(self, expressions: list[BoundExpr]) -> tuple[list, int]:
        """A kernel per expression, and how many subtrees of all of them
        are interpreted."""
        compiled = list(map(self._kernel, expressions))
        return (
            [kernel for kernel, __ in compiled],
            sum(count for __, count in compiled),
        )

    def _predicate(self, condition: Optional[BoundExpr]) -> tuple:
        if condition is None:
            return None, 0
        return compile_vector_predicate(condition, self.ctx.tracer.metrics)

    # ------------------------------------------------------------------
    # Recursive lowering
    # ------------------------------------------------------------------
    def _stamp(
        self,
        operator: str,
        node: logical.LogicalPlan,
        detail: str = "",
        interpreted: int = 0,
    ) -> OperatorStamp:
        est, source = self._estimate_rows(node)
        return self.report.mode(
            operator, self._mode(interpreted), est, source, detail
        )

    @staticmethod
    def _over(rdd: RDD, op: OperatorStamp) -> _Pipeline:
        """A new pipeline over the batches operator ``op`` yields."""
        return _Pipeline(rdd, est=op.est_rows, source=op.est_source)

    def _batches(
        self,
        node: logical.LogicalPlan,
        no_prune: bool = False,
        top: Optional[int] = None,
    ) -> RDD:
        return self._close(self._lower(node, no_prune, top))

    def _lower(
        self,
        node: logical.LogicalPlan,
        no_prune: bool = False,
        top: Optional[int] = None,
    ) -> _Pipeline:
        """``node``'s dataflow.  ``top``: only the first ``top`` rows
        will be read (a LIMIT above, through projections), which a sort
        hands its exchange."""
        if isinstance(node, logical.Values):
            return _Pipeline(
                physical.values_batches(
                    self.ctx, node.rows, len(node.schema)
                ),
                est=len(node.rows),
                source=SOURCE_CATALOG,
            )
        if isinstance(node, logical.Scan):
            return self._open_pipeline(node, None, no_prune)
        if isinstance(node, logical.Filter):
            if isinstance(node.child, logical.Scan):
                # A filter directly over the scan is the scan's
                # predicate: it drives map pruning.
                return self._open_pipeline(
                    node.child, node.condition, no_prune
                )
            child = self._lower(node.child)
            self._append_filter(child, node.condition)
            return child
        if isinstance(node, logical.Project):
            child = self._lower(node.child, no_prune, top)
            # (SELECT * and the like: the child's rows are the output.)
            if not _is_identity(node):
                self._append_project(child, node.expressions)
            return child
        if isinstance(node, logical.Aggregate):
            return self._lower_aggregate(node)
        if isinstance(node, logical.Join):
            return self._lower_join(node)
        width = len(node.schema)
        if isinstance(node, logical.Sort):
            child, ordinals = self._keyed(
                node.child, [expr for expr, __ in node.keys]
            )
            op = self._stamp("sort", node)
            return self._over(
                physical.sort_batches(
                    child, node.keys, ordinals, width, op=op, top=top
                ),
                op,
            )
        if isinstance(node, logical.Limit):
            child = self._batches(node.child, top=node.count)
            op = self._stamp("limit", node)
            return self._over(
                physical.limit_batches(child, node.count, op=op), op
            )
        if isinstance(node, logical.Distinct):
            child = self._batches(node.child)
            op = self._stamp("distinct", node)
            return self._over(
                physical.distinct_batches(
                    child, width, self._hash_partitions(), op=op
                ),
                op,
            )
        if isinstance(node, logical.UnionAll):
            children = list(map(self._batches, node.inputs))
            op = self._stamp("union_all", node)
            return self._over(
                physical.union_batches(self.ctx, children, op=op), op
            )
        if isinstance(node, logical.Repartition):
            child, ordinals = self._keyed(node.child, node.expressions)
            op = self._stamp("distribute_by", node)
            return self._over(
                physical.repartition_batches(
                    child, ordinals, width,
                    self._repartition_partitioner(), op=op,
                ),
                op,
            )
        if isinstance(node, logical.SemiJoinFilter):
            return self._lower_semi_join_filter(node)
        raise UnsupportedFeatureError(
            f"no physical strategy for {type(node).__name__}"
        )

    def _lower_semi_join_filter(
        self, node: logical.SemiJoinFilter
    ) -> _Pipeline:
        """Broadcast semi-join: collect the subquery's (small) result,
        broadcast it, probe it with the outer batches' key column."""
        child = self._lower(node.child)
        values = self._collect_batch(node.subquery).values(0)
        self.report.note(
            f"IN-subquery materialized {len(values)} values for a "
            f"broadcast semi-join"
        )
        key, interpreted = self._kernel(node.key)
        op = self._stamp("semi_join", node, node.key.name, interpreted)
        self._append(
            child,
            physical.semi_join_link(self.ctx, key, values, node.negated),
            op,
        )
        return child

    def _repartition_partitioner(self) -> Partitioner:
        if self.config.repartition_override is not None:
            return self.config.repartition_override
        return HashPartitioner(self._hash_partitions())

    def _hash_partitions(self) -> int:
        """Reduce partitions of a join's, DISTINCT's or DISTRIBUTE BY's
        hash exchange: one per core."""
        return self.ctx.default_parallelism

    # ------------------------------------------------------------------
    # Scans and map pruning
    # ------------------------------------------------------------------
    def _open_pipeline(
        self,
        scan: logical.Scan,
        condition: Optional[BoundExpr],
        no_prune: bool,
    ) -> _Pipeline:
        """A new pipeline over ``scan``; ``condition`` is the scan's
        predicate: it drives map pruning (of a cached table) and runs as
        the chain's first kernel."""
        entry = scan.table
        label = f"scan({entry.name})"
        if entry.is_cached and entry.cached_rdd is not None:
            kept = self._scan_prep(scan, condition, no_prune)
            est, source = self._scan_estimate(entry, kept)
            pipeline = _Pipeline(
                scan=scan, kept=kept,
                scan_op=self.report.mode(label, self._mode(), est, source),
                est=est, source=source,
            )
        elif entry.is_cached:
            # Cached table created but never loaded: empty.
            op = self.report.mode(label, self._mode(), 0, SOURCE_CATALOG)
            pipeline = self._over(
                physical.values_batches(
                    self.ctx, [], len(scan.schema), op
                ),
                op,
            )
        else:
            from repro.storage import HdfsRDD

            est, source = (
                (entry.row_count, SOURCE_CATALOG)
                if entry.row_count is not None
                else (None, SOURCE_NONE)
            )
            op = self.report.mode(label, self._mode(), est, source)
            pipeline = self._over(
                physical.external_batches(
                    HdfsRDD(self.ctx, self.store, entry.path, entry.schema),
                    [entry.schema.index_of(c) for c in scan.schema.names],
                    op,
                ),
                op,
            )
        if condition is not None:
            self._append_filter(pipeline, condition)
        return pipeline
    def _scan_estimate(
        self, entry: TableEntry, kept: Optional[list[int]]
    ) -> tuple[Optional[int], str]:
        """Base row estimate for a cached scan: per-partition statistics
        summed over the kept partitions when map pruning narrowed the
        scan, the catalog row count otherwise."""
        if kept is not None and entry.partition_stats:
            total = 0
            known = True
            for index in kept:
                stats = entry.partition_stats[index]
                rows = None
                for name in stats.column_names:
                    column = stats.column(name)
                    if column is not None:
                        rows = column.row_count
                        break
                if rows is None:
                    known = False
                    break
                total += rows
            if known:
                return total, SOURCE_PRUNING
        if entry.row_count is not None:
            return entry.row_count, SOURCE_CATALOG
        return None, SOURCE_NONE

    def _scan_prep(
        self,
        scan: logical.Scan,
        condition: Optional[BoundExpr],
        no_prune: bool,
    ) -> Optional[list[int]]:
        """Map pruning for a cached scan.  Returns the kept partitions, or
        None when every partition is scanned.
        """
        entry = scan.table
        kept = None
        total = (
            entry.cached_rdd.num_partitions
            if entry.cached_rdd is not None
            else 0
        )
        if (
            condition is not None
            and self.config.enable_map_pruning
            and not no_prune
            and entry.partition_stats
        ):
            kept = self._prune_partitions(scan, condition)
            self.report.scanned_partitions += len(kept)
            self.report.pruned_partitions += total - len(kept)
            if len(kept) < total:
                self.report.note(
                    f"map pruning on {entry.name}: scanning "
                    f"{len(kept)}/{total} partitions"
                )
            if kept == list(range(total)):
                kept = None
        return kept

    # ------------------------------------------------------------------
    # The batch pipeline
    # ------------------------------------------------------------------
    @staticmethod
    def _append(
        pipeline: _Pipeline, link: tuple, op: Optional[OperatorStamp]
    ) -> None:
        pipeline.chain.append(link)
        pipeline.chain_ops.append(op)
        if op is not None:
            pipeline.est, pipeline.source = op.est_rows, op.est_source

    def _append_filter(self, pipeline: _Pipeline, condition: BoundExpr) -> None:
        kernel, interpreted = self._predicate(condition)
        est, source = pipeline.est, SOURCE_NONE
        if est is not None:
            est, source = estimate_filtered_rows(est, condition), SOURCE_GUESS
        op = self.report.mode(
            "filter", self._mode(interpreted), est, source,
            detail=condition.name,
        )
        self._append(pipeline, physical.filter_link(kernel), op)

    def _append_project(
        self, pipeline: _Pipeline, expressions: list[BoundExpr]
    ) -> None:
        plans, interpreted = compile_vector_projection(
            expressions, self.ctx.tracer.metrics
        )
        op = self.report.mode(
            "project", self._mode(interpreted), pipeline.est, pipeline.source
        )
        self._append(pipeline, physical.project_link(plans), op)

    def _with_columns(
        self, pipeline: _Pipeline, expressions: list[BoundExpr], width: int
    ) -> list[int]:
        """The ordinals at which ``pipeline``'s batches hold every
        expression as a column, for an exchange to key on: a plain column
        reference is that column, anything else is computed — by one more
        link of the chain — into a column after the ``width`` row columns."""
        computed = [e for e in expressions if not isinstance(e, BoundColumn)]
        appended = iter(range(width, width + len(computed)))
        ordinals = [
            expr.index if isinstance(expr, BoundColumn) else next(appended)
            for expr in expressions
        ]
        if computed:
            carried = [("col", index) for index in range(width)]
            kernels, __ = self._kernels(computed)
            self._append(
                pipeline,
                physical.project_link(
                    carried + [("expr", kernel) for kernel in kernels]
                ),
                None,
            )
        return ordinals

    def _close(
        self,
        pipeline: _Pipeline,
        aggregate: Optional[tuple] = None,
        aggregate_est: Optional[tuple] = None,
    ) -> RDD:
        """Lower a pipeline to an RDD of its batches or — with
        ``aggregate`` — of the partial batches of the task-local
        aggregation fused onto it: the source itself when nothing was
        appended, else one :class:`BatchPipelineRDD`."""
        scan = pipeline.scan
        if scan is None and not pipeline.chain and aggregate is None:
            return pipeline.rdd
        aggregate_factory = None
        op_keys: dict = {
            "chain": tuple(
                None if op is None else op.key for op in pipeline.chain_ops
            ),
        }
        if scan is not None:
            entry = scan.table
            map_parts = (
                len(pipeline.kept)
                if pipeline.kept is not None
                else entry.cached_rdd.num_partitions
            )
            op_keys["scan"] = pipeline.scan_op.key
        else:
            map_parts = pipeline.rdd.num_partitions
        if aggregate is not None:
            group_exprs, specs = aggregate
            group_kernels, interpreted = self._kernels(group_exprs)
            arg_kernels = []
            for spec in specs:
                kernel = None  # COUNT(*) reads no column
                if spec.argument is not None:
                    kernel, count = self._kernel(spec.argument)
                    interpreted += count
                arg_kernels.append(kernel)
            aggregate_factory = partial(
                physical.BatchAggregator, group_kernels, specs, arg_kernels
            )
            groups_est, groups_source = aggregate_est or (None, SOURCE_NONE)
            partial_est = None
            partial_source = SOURCE_NONE
            if groups_est is not None:
                # Each map task emits at most one partial per group.
                partial_est = groups_est * max(map_parts, 1)
                partial_source = groups_source
                if pipeline.est is not None:
                    partial_est = min(partial_est, max(pipeline.est, 1))
            op_keys["aggregate"] = self.report.mode(
                "aggregate.partial", self._mode(interpreted),
                partial_est, partial_source,
            ).key
        self.ctx.tracer.metrics.inc("batch.pipelines")
        # A stage is known by what its pipeline ends in.
        if aggregate is not None:
            name = "batch_partial_aggregate"
        elif scan is not None:
            name = f"batch_scan({entry.name})"
        else:
            name = pipeline.chain[-1][0]
        if scan is None:
            return physical.BatchPipelineRDD(
                pipeline.rdd, pipeline.chain, aggregate_factory, name, op_keys
            )
        return physical.scan_batch_pipeline(
            entry,
            scan.projected_columns,
            pipeline.kept,
            column_indices=[
                entry.schema.index_of(column) for column in scan.schema.names
            ],
            chain=pipeline.chain,
            aggregate_factory=aggregate_factory,
            name=name,
            op_keys=op_keys,
        )
    def _prune_partitions(
        self, scan: logical.Scan, condition: BoundExpr
    ) -> list[int]:
        """Partitions whose statistics may satisfy the condition."""
        entry = scan.table
        names = scan.schema.names  # ordinal -> column name
        conjuncts = split_conjuncts(condition)
        kept: list[int] = []
        for index, stats in enumerate(entry.partition_stats):
            if all(
                _conjunct_may_match(conjunct, stats, names)
                for conjunct in conjuncts
            ):
                kept.append(index)
        return kept

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def _lower_aggregate(self, node: logical.Aggregate) -> _Pipeline:
        """Two-phase hash aggregation.  Phase 1 aggregates within each
        input partition ("task-local aggregations", Section 6.2.2),
        fused onto the child's batch chain, and phase 2 shuffles the
        partial batches by group key and merges them — on the driver with
        no GROUP BY (:meth:`_global_partials`), or when PDE sizes the
        merge to one reducer (:meth:`_coalesce_buckets`)."""
        groups_est, groups_source = self._estimate_groups(node)
        num_keys = len(node.group_expressions)
        partials = self._close(
            self._lower(node.child),
            aggregate=(node.group_expressions, node.aggregates),
            aggregate_est=(groups_est, groups_source),
        )
        final_op = self.report.mode(
            "aggregate.final", self._mode(), groups_est, groups_source
        )

        if not node.group_expressions:
            exchanged = self._global_partials(partials)
        elif self.config.num_reducers is not None:
            exchanged = physical.exchange_partials(
                partials, num_keys, self.config.num_reducers
            )
        elif not self.config.enable_pde:
            exchanged = physical.exchange_partials(
                partials, num_keys, self.ctx.default_parallelism
            )
        else:
            # PDE path (Section 3.1.2): shuffle into fine-grained buckets,
            # read observed bucket sizes, then pick the reduce parallelism
            # and bin-pack buckets into balanced coalesced partitions.
            fine = self.ctx.default_parallelism * FINE_GRAINED_FACTOR
            exchanged = self._coalesce_buckets(
                physical.exchange_partials(partials, num_keys, fine), fine
            )
        return self._over(
            physical.final_aggregate(
                exchanged, num_keys, node.aggregates, final_op
            ),
            final_op,
        )

    def _global_partials(self, partials: RDD) -> RDD:
        """Where a GROUP-BY-less aggregate's partial rows (one a map
        task) meet: on the driver, as the map tasks' results, in
        map-index order — the order a one-bucket exchange fetches them
        in, so the merge sums in the same order (DESIGN §17).  The merge
        and everything narrow above it run there, when the job reads
        them through narrow operators alone; read inside a task, the
        partials go through that exchange."""
        return DriverRDD(
            physical.exchange_partials(partials, 0, 1), partials
        )

    def _coalesce_buckets(self, exchanged, fine: int) -> RDD:
        stats = self.ctx.materialize_dependency(exchanged.shuffle_dep)
        sizes = stats.reduce_input_sizes()
        total = sum(sizes)
        reducers = choose_num_reducers(
            total,
            self.config.target_partition_bytes,
            max_reducers=fine,
        )
        tracer = self.ctx.tracer
        tracer.metrics.inc("pde.reducer_decisions")
        tracer.instant(
            "pde.decision",
            "pde",
            decision="num_reducers",
            fine_buckets=fine,
            reducers=reducers,
            observed_bytes=total,
        )
        if reducers >= fine:
            self.report.note(
                f"PDE: kept {fine} fine-grained reduce partitions "
                f"({total} observed bytes)"
            )
            return exchanged
        groups = pack_partitions(sizes, reducers)
        self.report.note(
            f"PDE: coalesced {fine} fine buckets into "
            f"{len(groups)} bin-packed reduce partitions "
            f"({total} observed bytes)"
        )
        # One fetch and one merge per coalesced partition.
        coalesced = exchanged.coalesce_grouped(groups).set_name(
            "coalesced_aggregate"
        )
        if len(groups) > 1:
            return coalesced
        # One reducer: the driver fetches its buckets, in the order its
        # task would, and merges them — no one-task reduce stage, when
        # the job reads the merge through narrow operators (DESIGN §17).
        return DriverRDD(coalesced)

    # ------------------------------------------------------------------
    # Joins
    # ------------------------------------------------------------------
    def _lower_join(self, node: logical.Join) -> _Pipeline:
        join_op = self._stamp("join", node, detail=node.join_type)

        if not node.left_keys:
            left = self._lower(node.left)
            right = self._collect_batch(node.right)
            self.report.note("cross join: broadcasting right side")
            residual, interpreted = self._predicate(node.residual)
            self.report.set_mode(join_op, self._mode(interpreted))
            self._append(
                left, physical.cross_link(self.ctx, right, residual), join_op
            )
            return left

        # 1. Co-partitioned join (Section 3.4).
        if self.config.enable_copartition_join and node.join_type == "inner":
            planned = self._try_copartitioned(node, join_op)
            if planned is not None:
                return planned

        # 2. Static size estimates.
        left_est = self._estimate_bytes(node.left)
        right_est = self._estimate_bytes(node.right)
        left_broadcastable = node.join_type in ("inner", "right")
        right_broadcastable = node.join_type in ("inner", "left")

        if self.config.enable_static_join_estimates and (
            left_est is not None or right_est is not None
        ):
            decision = decide_join_strategy(
                left_est,
                right_est,
                self.config.broadcast_threshold_bytes,
                left_broadcastable,
                right_broadcastable,
            )
            if decision.strategy != "shuffle":
                self._record_join_decision(decision, "static")
                self.report.note(f"static join selection: {decision.reason}")
                return self._broadcast(node, decision.strategy, join_op)
            if left_est is not None and right_est is not None:
                # Both sides known and big: commit to a shuffle join.
                self._record_join_decision(decision, "static")
                self.report.note(f"static join selection: {decision.reason}")
                return self._shuffle_join(node, join_op)

        # 3. Sizes unknown (fresh data / UDF filters): PDE (Section 3.1.1).
        if self.config.enable_pde and (
            left_broadcastable or right_broadcastable
        ):
            return self._pde_join(
                node, left_est, right_est,
                left_broadcastable, right_broadcastable,
                join_op,
            )

        decision = JoinDecision("shuffle", "fallback: no PDE, no estimates")
        self._record_join_decision(decision, "fallback")
        return self._shuffle_join(node, join_op)

    def _join_probe(
        self,
        node: logical.Join,
        join_op: OperatorStamp,
        stream_is_left: bool,
        stream_keys: Optional[list] = None,
    ) -> physical.JoinProbe:
        """The join of ``node`` as one probe of the side not streamed;
        ``stream_keys`` where the stream batches already hold the keys
        as columns, else kernels are compiled from the key expressions."""
        stream, expressions = (
            (node.left, node.left_keys)
            if stream_is_left
            else (node.right, node.right_keys)
        )
        interpreted = 0
        if stream_keys is None:
            stream_keys, interpreted = self._kernels(expressions)
        residual, count = self._predicate(node.residual)
        self.report.set_mode(join_op, self._mode(interpreted + count))
        return physical.JoinProbe(
            stream_keys, stream_is_left, node.join_type, residual,
            len(stream.schema),
        )

    def _try_copartitioned(
        self, node: logical.Join, join_op: OperatorStamp
    ) -> Optional[_Pipeline]:
        if len(node.left_keys) != 1 or len(node.right_keys) != 1:
            return None
        left_info = _copartition_info(node.left, node.left_keys[0])
        right_info = _copartition_info(node.right, node.right_keys[0])
        if left_info is None or right_info is None:
            return None
        left_part, right_part = left_info.partitioner, right_info.partitioner
        if left_part != right_part:
            return None
        # (The keys are plain columns: that is what co-partitioned means.)
        left = self._batches(node.left, no_prune=True)
        right = self._batches(node.right, no_prune=True)
        self.report.note(
            f"co-partitioned join on {left_info.table_name}."
            f"{left_info.column} = {right_info.table_name}."
            f"{right_info.column}: no shuffle"
        )
        self._record_join_decision(
            JoinDecision("copartitioned", "tables co-partitioned on join key"),
            "copartitioned",
        )
        return self._cogroup(
            node, join_op, left_part, "copartitioned_join",
            (left, [node.left_keys[0].index]),
            (right, [node.right_keys[0].index]),
        )

    def _broadcast(
        self,
        node: logical.Join,
        strategy: str,
        join_op: OperatorStamp,
        build: Optional[ColumnBatch] = None,
    ) -> _Pipeline:
        """Map join: stream one side past the other, collected (here, or
        already by PDE: ``build``) and broadcast; the probe is one more
        link of the stream side's chain."""
        stream_is_left = strategy == "broadcast_right"
        if stream_is_left:
            stream_node = node.left
            build_node, build_keys = node.right, node.right_keys
        else:
            stream_node = node.right
            build_node, build_keys = node.left, node.left_keys
        stream = self._lower(stream_node)
        if build is None:
            build = self._collect_batch(build_node)
        probe = self._join_probe(node, join_op, stream_is_left)
        # Hash the small side once and broadcast it.
        kernels, __ = self._kernels(build_keys)
        link = physical.broadcast_link(
            self.ctx, build, [kernel(build) for kernel in kernels], probe
        )
        self._append(stream, link, join_op)
        return stream

    def _collect_batch(self, node: logical.LogicalPlan) -> ColumnBatch:
        """The rows of ``node`` as one batch (no row is built)."""
        return _concat_collected(
            self._collect(self._batches(node)), len(node.schema)
        )

    def _keyed(
        self, child: logical.LogicalPlan, keys: list[BoundExpr]
    ) -> tuple[RDD, list[int]]:
        """``child``'s batches as an exchange keyed by ``keys`` (join
        keys, ORDER BY or DISTRIBUTE BY expressions) reads them, and the
        ordinals at which they hold the keys."""
        pipeline = self._lower(child)
        ordinals = self._with_columns(pipeline, keys, len(child.schema))
        return self._close(pipeline), ordinals

    def _cogroup(
        self,
        node: logical.Join,
        join_op: OperatorStamp,
        partitioner: Partitioner,
        name: str,
        left: tuple,
        right: tuple,
    ) -> _Pipeline:
        """Join corresponding partitions of two sides, each ``(what to
        read it through, its key ordinals)``: the left streams, the right
        is built."""
        (left, left_ordinals), (right, right_ordinals) = left, right
        probe = self._join_probe(
            node, join_op, True,
            [partial(ColumnBatch.vector, ordinal=i) for i in left_ordinals],
        )
        return self._over(
            physical.cogroup_join(
                self.ctx, left, right, partitioner, probe, right_ordinals,
                len(node.right.schema), name, join_op,
            ),
            join_op,
        )

    def _shuffle_join(
        self,
        node: logical.Join,
        join_op: OperatorStamp,
        pre_shuffled: Optional[dict] = None,
        partitioner: Optional[Partitioner] = None,
    ) -> _Pipeline:
        """Repartition both sides by key and join corresponding
        partitions.  ``pre_shuffled`` holds the side ("left" / "right")
        PDE already shuffled, if any: the cogroup reads it narrowly, so
        that work is reused, not repeated."""
        partitioner = partitioner or HashPartitioner(self._hash_partitions())
        sides = dict(pre_shuffled or {})
        for name, side, keys in (
            ("left", node.left, node.left_keys),
            ("right", node.right, node.right_keys),
        ):
            if name not in sides:
                batches, ordinals = self._keyed(side, keys)
                sides[name] = (
                    physical.keyed_batches(batches, ordinals, partitioner),
                    ordinals,
                )
        return self._cogroup(
            node, join_op, partitioner, f"{node.join_type}_join",
            sides["left"], sides["right"],
        )

    def _pde_join(
        self,
        node: logical.Join,
        left_est: Optional[int],
        right_est: Optional[int],
        left_broadcastable: bool,
        right_broadcastable: bool,
        join_op: OperatorStamp,
    ) -> _Pipeline:
        """Pre-shuffle the likely-small side, observe, then decide.

        "If the optimizer has a prior belief that a particular join input
        will be small, it will schedule that task before other join inputs
        and decide to perform a map-join if it observes that the task's
        output is small" — avoiding the pre-shuffle of the large table.
        """
        left_prior = self._prior_bytes(node.left)
        right_prior = self._prior_bytes(node.right)
        probe_left = left_broadcastable and (
            not right_broadcastable
            or (left_prior or 0) <= (right_prior or 0)
        )

        partitioner = HashPartitioner(self._hash_partitions())
        if probe_left:
            side_plan, keys = node.left, node.left_keys
        else:
            side_plan, keys = node.right, node.right_keys
        side, ordinals = self._keyed(side_plan, keys)
        pre_shuffled, observed = physical.pre_shuffle_side(
            self.ctx, side, ordinals, partitioner
        )
        observed_bytes = observed.total_output_bytes()

        if probe_left:
            decision = decide_join_strategy(
                observed_bytes, right_est,
                self.config.broadcast_threshold_bytes,
                left_broadcastable, right_broadcastable,
            )
        else:
            decision = decide_join_strategy(
                left_est, observed_bytes,
                self.config.broadcast_threshold_bytes,
                left_broadcastable, right_broadcastable,
            )
        self._record_join_decision(decision, "pde")
        self.report.note(
            f"PDE join selection: pre-shuffled "
            f"{'left' if probe_left else 'right'} side, observed "
            f"{observed_bytes} bytes -> {decision.strategy}"
        )

        wanted = "broadcast_left" if probe_left else "broadcast_right"
        if decision.strategy == wanted:
            # Collect the pre-shuffled rows.  The map outputs are already
            # materialized, but the read is still a job of one reduce task
            # per fine bucket (8 for TPC-H Q3's filtered customer side).
            build = _concat_collected(
                self._collect(pre_shuffled), len(side_plan.schema)
            )
            return self._broadcast(node, wanted, join_op, build=build)

        # Shuffle join, reusing the already-shuffled side.
        return self._shuffle_join(
            node, join_op,
            {"left" if probe_left else "right": (pre_shuffled, ordinals)},
            partitioner,
        )

    # ------------------------------------------------------------------
    # Cardinality estimation (plan-quality stamps)
    # ------------------------------------------------------------------
    def _estimate_rows(
        self, node: logical.LogicalPlan
    ) -> tuple[Optional[int], str]:
        """Estimated output rows for a logical subtree, with the
        statistics source behind it.  (None, "none") when unknown.

        These estimates feed the plan-quality stamps, not execution
        decisions: they are deliberately simple (catalog row counts plus
        System R selectivity constants), and the est-vs-actual audit
        exists precisely to show where they miss.
        """
        if isinstance(node, logical.Values):
            return len(node.rows), SOURCE_CATALOG
        if isinstance(node, logical.Scan):
            if node.table.row_count is not None:
                return node.table.row_count, SOURCE_CATALOG
            return None, SOURCE_NONE
        if isinstance(node, logical.Filter):
            base, __ = self._estimate_rows(node.child)
            if base is None:
                return None, SOURCE_NONE
            return estimate_filtered_rows(base, node.condition), SOURCE_GUESS
        if isinstance(node, (logical.Project, logical.Sort,
                             logical.Repartition)):
            return self._estimate_rows(node.child)
        if isinstance(node, logical.Limit):
            base, source = self._estimate_rows(node.child)
            if base is None:
                return node.count, SOURCE_GUESS
            return min(node.count, base), source
        if isinstance(node, logical.Distinct):
            base, __ = self._estimate_rows(node.child)
            if base is None:
                return None, SOURCE_NONE
            return max(1, base // 10), SOURCE_GUESS
        if isinstance(node, logical.Aggregate):
            return self._estimate_groups(node)
        if isinstance(node, logical.Join):
            left, __ = self._estimate_rows(node.left)
            right, __ = self._estimate_rows(node.right)
            if left is None or right is None:
                return None, SOURCE_NONE
            if not node.left_keys:
                return left * right, SOURCE_GUESS
            # Keyed joins: assume roughly foreign-key shape (each row of
            # the larger side matches ~once).
            return max(left, right, 1), SOURCE_GUESS
        if isinstance(node, logical.UnionAll):
            total = 0
            for child in node.inputs:
                rows, __ = self._estimate_rows(child)
                if rows is None:
                    return None, SOURCE_NONE
                total += rows
            return total, SOURCE_GUESS
        if isinstance(node, logical.SemiJoinFilter):
            base, __ = self._estimate_rows(node.child)
            if base is None:
                return None, SOURCE_NONE
            return max(1, base // 2), SOURCE_GUESS
        return None, SOURCE_NONE

    def _estimate_groups(
        self, node: logical.Aggregate
    ) -> tuple[Optional[int], str]:
        """Estimated group count for an aggregation."""
        if not node.group_expressions:
            return 1, SOURCE_CATALOG
        ndv = self._group_ndv(node)
        if ndv is not None:
            return ndv, SOURCE_CATALOG
        child_rows, __ = self._estimate_rows(node.child)
        if child_rows is None:
            return None, SOURCE_NONE
        return max(1, child_rows // 10), SOURCE_GUESS

    def _group_ndv(self, node: logical.Aggregate) -> Optional[int]:
        """Exact distinct-value count for a single-column group key over
        a cached scan, from the partition statistics' small distinct
        sets; None when the key is computed, multi-column, or any
        partition overflowed :data:`~repro.columnar.stats.DISTINCT_LIMIT`.
        """
        if len(node.group_expressions) != 1:
            return None
        key = node.group_expressions[0]
        if not isinstance(key, BoundColumn):
            return None
        index = key.index
        current = node.child
        while True:
            if isinstance(current, logical.Filter):
                current = current.child
                continue
            if isinstance(current, logical.Project):
                expr = current.expressions[index]
                if not isinstance(expr, BoundColumn):
                    return None
                index = expr.index
                current = current.child
                continue
            if isinstance(current, logical.Scan):
                entry = current.table
                if not entry.partition_stats:
                    return None
                column = current.schema.names[index]
                values: set = set()
                for stats in entry.partition_stats:
                    column_stats = stats.column(column)
                    if (
                        column_stats is None
                        or column_stats.distinct_values is None
                    ):
                        return None
                    values |= column_stats.distinct_values
                return len(values) or None
            return None

    # ------------------------------------------------------------------
    # Size estimation
    # ------------------------------------------------------------------
    def _estimate_bytes(self, node: logical.LogicalPlan) -> Optional[int]:
        """Static size estimate; None when unknown (e.g. UDF filters)."""
        if isinstance(node, logical.Scan):
            return node.table.size_bytes
        if isinstance(node, logical.Project):
            return self._estimate_bytes(node.child)
        if isinstance(node, logical.Values):
            return 64 * len(node.rows)
        return None

    def _prior_bytes(self, node: logical.LogicalPlan) -> Optional[int]:
        """Upper-bound prior: the size of the underlying base table, used
        only to order PDE probes (filters can only shrink a side)."""
        if isinstance(node, logical.Scan):
            return node.table.size_bytes
        if isinstance(node, (logical.Project, logical.Filter, logical.Limit)):
            return self._prior_bytes(node.child)
        return None

    def _collect(self, rdd: RDD) -> list:
        return rdd.collect()


def _concat_collected(batches: list, width: int) -> ColumnBatch:
    """Collected batches as one, of the ``width`` row columns."""
    batch = ColumnBatch.concat([b for b in batches if b.num_rows])
    if not batch.num_rows:
        return ColumnBatch.from_rows([], width)
    return ColumnBatch(batch.entries[:width], batch.num_rows)


# ---------------------------------------------------------------------------
# Map-pruning predicate analysis
# ---------------------------------------------------------------------------


def _conjunct_may_match(conjunct, stats, names: list[str]) -> bool:
    """Can any row of a partition with these statistics satisfy the
    conjunct?  Conservative: unrecognized shapes return True."""
    if isinstance(conjunct, BoundComparison):
        column, literal, op = _normalize_comparison(conjunct)
        if column is None:
            return True
        column_stats = stats.column(names[column])
        if column_stats is None:
            return True
        if op == "=":
            return column_stats.may_contain(literal)
        if op == "<>":
            # Prunable only when the partition is single-valued on this
            # column and that value is the excluded one (e.g. a per-
            # datacenter partition holding exactly one country).
            if column_stats.distinct_values == {literal}:
                return False
            return True
        if op == ">":
            return column_stats.may_overlap(low=literal, low_inclusive=False)
        if op == ">=":
            return column_stats.may_overlap(low=literal)
        if op == "<":
            return column_stats.may_overlap(high=literal, high_inclusive=False)
        if op == "<=":
            return column_stats.may_overlap(high=literal)
        return True
    if isinstance(conjunct, BoundBetween) and not conjunct.negated:
        if isinstance(conjunct.operand, BoundColumn) and isinstance(
            conjunct.low, BoundLiteral
        ) and isinstance(conjunct.high, BoundLiteral):
            column_stats = stats.column(names[conjunct.operand.index])
            if column_stats is None:
                return True
            return column_stats.may_overlap(
                low=conjunct.low.value, high=conjunct.high.value
            )
        return True
    if isinstance(conjunct, BoundIn) and not conjunct.negated:
        if isinstance(conjunct.operand, BoundColumn) and all(
            isinstance(option, BoundLiteral) for option in conjunct.options
        ):
            column_stats = stats.column(names[conjunct.operand.index])
            if column_stats is None:
                return True
            return any(
                column_stats.may_contain(option.value)
                for option in conjunct.options
            )
        return True
    return True


def _normalize_comparison(conjunct: BoundComparison):
    """Extract (column_ordinal, literal, op) with the column on the left."""
    flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "="}
    if isinstance(conjunct.left, BoundColumn) and isinstance(
        conjunct.right, BoundLiteral
    ):
        return conjunct.left.index, conjunct.right.value, conjunct.op
    if isinstance(conjunct.right, BoundColumn) and isinstance(
        conjunct.left, BoundLiteral
    ):
        if conjunct.op not in flipped:
            return None, None, None
        return conjunct.right.index, conjunct.left.value, flipped[conjunct.op]
    return None, None, None


# ---------------------------------------------------------------------------
# Co-partitioning detection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _CopartitionInfo:
    table_name: str
    column: str
    partitioner: Partitioner


def _copartition_info(
    node: logical.LogicalPlan, key: BoundExpr
) -> Optional[_CopartitionInfo]:
    """Does this join side read a cached, DISTRIBUTE BY'd table with the
    join key being exactly the distribution column (passed through
    projections untouched)?"""
    if not isinstance(key, BoundColumn):
        return None
    index = key.index
    current = node
    while True:
        if isinstance(current, logical.Filter):
            current = current.child
            continue
        if isinstance(current, logical.Project):
            expr = current.expressions[index]
            if not isinstance(expr, BoundColumn):
                return None
            index = expr.index
            current = current.child
            continue
        if isinstance(current, logical.Scan):
            entry: TableEntry = current.table
            if not entry.is_cached or entry.partitioner is None:
                return None
            column = current.schema.names[index]
            if (
                entry.distribute_column is None
                or column.lower() != entry.distribute_column.lower()
            ):
                return None
            return _CopartitionInfo(
                table_name=entry.name,
                column=column,
                partitioner=entry.partitioner,
            )
        return None
