"""Accumulators: Spark-style write-only shared variables.

Tasks add to an :class:`Accumulator` and the driver reads it (map
pruning's scan counters and user jobs use them).  PDE's statistics are
not accumulators here: each map task reports one status with its output
(:class:`~repro.engine.shuffle.MapStatus`).
"""

from __future__ import annotations

from typing import Any, Callable


class Accumulator:
    """A write-only shared variable tasks add to; the driver reads ``value``.

    ``add`` called inside a running task does *not* mutate driver state:
    the delta is buffered on the task's :class:`~repro.engine.task.
    TaskContext` and merged by the scheduler exactly once per partition —
    only for the attempt whose result is kept.  Retried, speculative, and
    lineage-recovered attempts therefore never double count.  Outside a
    task (on the driver), ``add`` applies immediately.
    """

    def __init__(self, initial: Any, add: Callable[[Any, Any], Any] = None):
        self._value = initial
        self._add = add if add is not None else (lambda a, b: a + b)

    def add(self, delta: Any) -> None:
        # Imported lazily: task.py does not depend on this module, but
        # importing at module scope would still risk a cycle via engine/.
        from repro.engine.task import current_task_context

        task_ctx = current_task_context()
        if task_ctx is not None:
            task_ctx.record_accumulator(self, delta)
        else:
            self._value = self._add(self._value, delta)

    def apply(self, delta: Any) -> None:
        """Merge a buffered task-side delta into driver state (scheduler
        use only)."""
        self._value = self._add(self._value, delta)

    @property
    def value(self) -> Any:
        return self._value

    def reset(self, initial: Any) -> None:
        self._value = initial
