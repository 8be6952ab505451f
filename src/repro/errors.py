"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so
applications can catch one base class.  Subsystems raise the most specific
subclass that applies; messages carry enough context (table names, stage ids,
worker ids) to debug a failed query without a stack trace.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class EngineError(ReproError):
    """Base class for execution-engine failures."""


class TaskError(EngineError):
    """A task raised an exception while computing a partition."""

    def __init__(self, stage_id: int, partition: int, cause: BaseException):
        super().__init__(
            f"task failed in stage {stage_id}, partition {partition}: {cause!r}"
        )
        self.stage_id = stage_id
        self.partition = partition
        self.cause = cause


class TransientTaskFailure(EngineError):
    """A task attempt failed for a transient reason (an injected fault or a
    flaky worker).

    The scheduler catches this internally: the attempt is retried on
    another worker after a capped exponential (simulated-clock) backoff.
    It only escapes to user code when ``max_task_attempts`` is exhausted,
    wrapped in :class:`TaskError`.
    """

    def __init__(
        self,
        stage_id: int,
        partition: int,
        worker_id: int,
        reason: str,
        attempt: int = 1,
    ):
        super().__init__(
            f"transient failure of task {stage_id}.{partition} "
            f"(attempt {attempt}) on worker {worker_id}: {reason}"
        )
        self.stage_id = stage_id
        self.partition = partition
        self.worker_id = worker_id
        self.reason = reason
        self.attempt = attempt


class FetchFailedError(EngineError):
    """A reduce task could not fetch map output (the worker died).

    The scheduler catches this internally and re-runs the lost map tasks; it
    only escapes to user code if recovery itself is impossible.
    """

    def __init__(self, shuffle_id: int, map_partition: int, worker_id: int):
        super().__init__(
            f"fetch failed: shuffle {shuffle_id} map partition "
            f"{map_partition} lost with worker {worker_id}"
        )
        self.shuffle_id = shuffle_id
        self.map_partition = map_partition
        self.worker_id = worker_id


class BlockLostError(EngineError):
    """A cached RDD block disappeared (its worker was killed)."""

    def __init__(self, block_id: str, worker_id: int):
        super().__init__(f"block {block_id} lost with worker {worker_id}")
        self.block_id = block_id
        self.worker_id = worker_id


class NoLiveWorkersError(EngineError):
    """All workers are dead; the cluster cannot make progress."""


class QueryLifecycleError(EngineError):
    """Base class for query-lifecycle failures (admission, cancellation,
    deadlines, circuit breaking) raised by
    :class:`~repro.engine.lifecycle.QueryLifecycleManager`."""


class AdmissionRejected(QueryLifecycleError):
    """The engine is at capacity: the admission queue is full.

    Backpressure, not silent queueing: the caller should resubmit after
    ``retry_after_s`` simulated seconds (a hint derived from recent query
    durations and the current queue depth).
    """

    def __init__(self, name: str, running: int, queued: int, retry_after_s: float):
        super().__init__(
            f"query {name!r} rejected: {running} running and {queued} queued "
            f"queries at capacity; retry after ~{retry_after_s:.2f}s"
        )
        self.name = name
        self.running = running
        self.queued = queued
        self.retry_after_s = retry_after_s


class TenantQuotaExceeded(AdmissionRejected):
    """A tenant hit one of its own serving quotas (concurrency slots,
    queued-query cap, or the simulated-seconds budget of the current
    accounting window) — the server as a whole may have capacity, but
    this tenant must back off.

    ``resource`` names the exhausted quota: ``"concurrency"``,
    ``"queue"``, or ``"budget"``.
    """

    def __init__(
        self,
        name: str,
        tenant: str,
        resource: str,
        running: int,
        queued: int,
        retry_after_s: float,
    ):
        QueryLifecycleError.__init__(
            self,
            f"query {name!r} rejected: tenant {tenant!r} exceeded its "
            f"{resource} quota ({running} running, {queued} queued); "
            f"retry after ~{retry_after_s:.2f}s",
        )
        self.name = name
        self.tenant = tenant
        self.resource = resource
        self.running = running
        self.queued = queued
        self.retry_after_s = retry_after_s


class QueryCancelledError(QueryLifecycleError):
    """The query was cancelled mid-flight (user request or deadline).

    Raised inside the query at the next cooperative cancellation point;
    the lifecycle manager then releases the query's admission slot and
    cleans up its shuffle outputs, spans, and accumulator buffers.
    """

    def __init__(self, name: str, reason: str = "cancelled"):
        super().__init__(f"query {name!r} cancelled: {reason}")
        self.name = name
        self.reason = reason


class QueryDeadlineExceeded(QueryCancelledError):
    """The query ran past its simulated-clock deadline and was cancelled
    mid-flight (subclasses :class:`QueryCancelledError` so one handler
    catches both forms of cooperative cancellation)."""

    def __init__(self, name: str, deadline_s: float, elapsed_s: float):
        super().__init__(
            name,
            reason=(
                f"deadline of {deadline_s:.3f}s exceeded "
                f"({elapsed_s:.3f} simulated seconds charged)"
            ),
        )
        self.deadline_s = deadline_s
        self.elapsed_s = elapsed_s


class QueryShedError(QueryCancelledError):
    """A still-queued query was dropped by load shedding before it ever
    launched a task (its deadline became unmeetable while it waited, or
    the server entered brownout and shed its priority tier).

    ``shed_reason`` is machine-readable: ``"deadline-unmeetable"`` or
    ``"brownout"``.  Subclasses :class:`QueryCancelledError` so one
    handler catches every form of a query being killed before
    completion.
    """

    def __init__(self, name: str, shed_reason: str):
        super().__init__(name, reason=f"shed: {shed_reason}")
        self.shed_reason = shed_reason


class QueryCircuitOpenError(QueryLifecycleError):
    """Submissions for this query key are failing fast: previous runs
    repeatedly exhausted their recovery budget, so the per-query circuit
    breaker is open until ``retry_after_completions`` more queries finish."""

    def __init__(self, key: str, failures: int, retry_after_completions: int):
        super().__init__(
            f"circuit open for query key {key!r} after {failures} consecutive "
            f"engine failures; retry after {retry_after_completions} more "
            f"query completions"
        )
        self.key = key
        self.failures = failures
        self.retry_after_completions = retry_after_completions


class StorageError(ReproError):
    """Base class for storage-layer failures."""


class FileNotFoundInStoreError(StorageError):
    """The requested path does not exist in the block store."""

    def __init__(self, path: str):
        super().__init__(f"no such file in store: {path}")
        self.path = path


class SqlError(ReproError):
    """Base class for SQL front-end failures."""


class ParseError(SqlError):
    """The query text could not be parsed."""

    def __init__(self, message: str, position: int = -1, line: int = -1):
        location = f" at line {line}, position {position}" if line >= 0 else ""
        super().__init__(f"parse error{location}: {message}")
        self.position = position
        self.line = line


class AnalysisError(SqlError):
    """The query parsed but failed semantic analysis.

    Raised for unknown tables/columns, type mismatches, aggregates in
    WHERE clauses, and similar schema-level problems.
    """


class CatalogError(SqlError):
    """Catalog operation failed (duplicate table, missing table, ...)."""


class TypeMismatchError(AnalysisError):
    """An expression was applied to values of an unsupported type."""


class UnsupportedFeatureError(SqlError):
    """The query uses syntax the dialect does not implement."""


class ColumnarError(ReproError):
    """Base class for columnar-store failures."""


class CompressionError(ColumnarError):
    """A column failed to compress or decompress."""


class MLError(ReproError):
    """Base class for machine-learning failures (bad dimensions, k > n, ...)."""
