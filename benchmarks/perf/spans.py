"""The benchmark's own span recorder for the traced run.

Spans are recorded from the benchmark's files, around the calls into
each layer (spans inside the program are a later change).  They are
kept in memory and written as Chrome-trace JSON when the run ends.  A
layer's self time is its span's duration minus the part its child spans
cover.  Imports nothing from the program.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional


@dataclass
class Span:
    name: str
    start: float
    #: Index of the span that caused this one; None for a root.
    parent: Optional[int]
    #: Spans of one operation share an identifier.
    op_id: int
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Nested spans on one thread (the benchmark drives the program
    from a single load-generating thread)."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        #: The traced run flips this per pass; callers skip recording
        #: (and run the untraced code path) while it is False.
        self.active = True
        self.spans: list = []
        self._stack: list = []
        self._next_op_id = 0

    def begin(self, name: str) -> Span:
        if self._stack:
            parent = self._stack[-1]
            op_id = self.spans[parent].op_id
        else:
            parent = None
            op_id = self._next_op_id
            self._next_op_id += 1
        span = Span(name, self._clock(), parent, op_id)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def finish(self, span: Span) -> None:
        span.end = self._clock()
        index = self._stack.pop()
        if self.spans[index] is not span:
            raise RuntimeError(
                f"span {span.name!r} closed out of order "
                f"(innermost open span is {self.spans[index].name!r})"
            )

    @contextmanager
    def span(self, name: str):
        opened = self.begin(name)
        try:
            yield opened
        finally:
            self.finish(opened)

    def self_times(self) -> dict:
        """Total self seconds per span name."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.duration
        totals: dict = {}
        for span, covered in zip(self.spans, child_time):
            totals[span.name] = (
                totals.get(span.name, 0.0) + span.duration - covered
            )
        return totals

    def counts(self) -> dict:
        totals: dict = {}
        for span in self.spans:
            totals[span.name] = totals.get(span.name, 0) + 1
        return totals

    def chrome_trace(self) -> dict:
        """Complete ("X") events, microseconds, one lane per op."""
        if not self.spans:
            return {"traceEvents": []}
        origin = self.spans[0].start
        return {
            "traceEvents": [
                {
                    "name": span.name,
                    "ph": "X",
                    "ts": (span.start - origin) * 1e6,
                    "dur": span.duration * 1e6,
                    "pid": 1,
                    "tid": 1,
                    "args": {"op_id": span.op_id, "parent": span.parent},
                }
                for span in self.spans
            ]
        }

    def write_chrome_trace(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle)
