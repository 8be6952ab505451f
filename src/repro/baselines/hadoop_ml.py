"""Hadoop ML baselines: one MapReduce job per iteration (Figures 11-12).

"In the case of Hive and Hadoop, every iteration took the reported time
because data was loaded from HDFS for every iteration."  These trainers do
exactly that: each iteration re-reads the stored file, decodes every
record (text or binary serde — the two bars in the figures), folds each
block's records into one partial per key as a map task with a combiner
would, merges the partials on the driver as the one reducer, and updates
the model.  Numeric results match the Shark trainers; only the data-path
costs differ.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Optional

import numpy as np

from repro.baselines.mapreduce import JobStats, serialized_size_bytes
from repro.columnar.serde import BinarySerde, TextSerde
from repro.datatypes import Schema
from repro.errors import MLError
from repro.ml.kmeans import KMeansModel, _closest
from repro.ml.logistic import LogisticRegressionModel, gradient_factor
from repro.storage import DistributedFileStore


@dataclass
class IterationTrace:
    """Per-iteration job stats — the benchmark reports their mean."""

    jobs: list[JobStats] = field(default_factory=list)

    @property
    def num_iterations(self) -> int:
        return len(self.jobs)

    @property
    def mean_input_bytes(self) -> float:
        if not self.jobs:
            return 0.0
        return sum(job.input_bytes for job in self.jobs) / len(self.jobs)


class _HadoopIterativeBase:
    """Shared machinery: per-iteration decode of the stored dataset."""

    def __init__(
        self,
        store: DistributedFileStore,
        path: str,
        schema: Schema,
        format: str = "text",
    ):
        if format not in ("text", "binary"):
            raise MLError(f"unknown format {format!r}")
        self.store = store
        self.path = path
        self.schema = schema
        self.format = format

    def _decode_blocks(self) -> tuple[list[list[tuple]], int]:
        """Read and deserialize every block; returns (blocks, total bytes).

        Called once per iteration — the cost Shark's cached RDDs avoid.
        """
        serde = (
            TextSerde(self.schema)
            if self.format == "text"
            else BinarySerde(self.schema)
        )
        stored = self.store.file(self.path)
        blocks = []
        total_bytes = 0
        for index in range(stored.num_blocks):
            payload = self.store.read_block(self.path, index)
            total_bytes += len(payload)
            blocks.append(serde.decode(payload))
        return blocks, total_bytes

    def _job(self, name: str, emit: Callable, merge: Callable, keyed=True):
        """One iteration's job over freshly decoded input: a map task
        folds its block's ``emit(row)`` = ``(key, value)`` pairs per key
        with ``merge`` (the combiner) and ships them sorted by key; the
        one reducer folds each key's partials in block order and emits
        ``(key, total)`` — or, not ``keyed``, the totals alone."""
        blocks, input_bytes = self._decode_blocks()
        job = JobStats(
            name, map_tasks=len(blocks), reduce_tasks=1,
            input_records=sum(map(len, blocks)), input_bytes=input_bytes,
            used_combiner=True,
        )

        def fold(into: dict, key, value) -> None:
            into[key] = merge(into[key], value) if key in into else value

        totals: dict = {}
        for block in blocks:
            partials: dict = {}
            for key, value in map(emit, block):
                fold(partials, key, value)
            output = sorted(partials.items(), key=itemgetter(0))
            job.map_output_records += len(output)
            job.shuffle_bytes += serialized_size_bytes(output)
            for key, value in output:
                fold(totals, key, value)
        output = sorted(totals.items(), key=itemgetter(0))
        if not keyed:
            output = [total for __, total in output]
        job.output_records = len(output)
        job.output_bytes = serialized_size_bytes(output)
        return output, job


class HadoopLogisticRegression(_HadoopIterativeBase):
    """Gradient descent where each iteration is one MapReduce job.

    Expects rows of ``(label, f0, f1, ...)`` with labels in {-1, +1}.
    """

    def fit(
        self,
        iterations: int = 10,
        learning_rate: float = 1.0,
        seed: int = 42,
        dimensions: Optional[int] = None,
    ) -> tuple[LogisticRegressionModel, IterationTrace]:
        """Train; each iteration re-reads and re-decodes the stored file
        (Hadoop's data path), returning the model plus per-iteration job
        stats for the cost model."""
        if dimensions is None:
            blocks, __ = self._decode_blocks()
            first = next(
                (row for block in blocks for row in block), None
            )
            if first is None:
                raise MLError("cannot fit on an empty dataset")
            dimensions = len(first) - 1

        rng = np.random.default_rng(seed)
        weights = 2.0 * rng.random(dimensions) - 1.0
        trace = IterationTrace()

        for iteration in range(iterations):

            def emit(row: tuple, w=weights) -> tuple:
                x = np.asarray(row[1:], dtype=np.float64)
                factor = gradient_factor(float(row[0]), float(np.dot(w, x)))
                return "gradient", factor * x

            (gradient,), job = self._job(
                f"logreg_iter_{iteration}", emit, np.add, keyed=False
            )
            weights = weights - learning_rate * gradient
            trace.jobs.append(job)

        model = LogisticRegressionModel(
            weights=weights, iterations_run=iterations
        )
        return model, trace


class HadoopKMeans(_HadoopIterativeBase):
    """Lloyd's algorithm, one MapReduce job per iteration.

    Expects rows of ``(f0, f1, ...)``.
    """

    def fit(
        self, k: int, iterations: int = 10, seed: int = 42
    ) -> tuple[KMeansModel, IterationTrace]:
        """Cluster; one MapReduce job per iteration over freshly decoded
        input, returning the model plus per-iteration job stats."""
        blocks, __ = self._decode_blocks()
        sample = [row for block in blocks for row in block][: max(k * 20, 100)]
        if len(sample) < k:
            raise MLError(f"need at least k={k} points, found {len(sample)}")
        rng = np.random.default_rng(seed)
        chosen = rng.choice(len(sample), size=k, replace=False)
        centers = np.array(
            [np.asarray(sample[i], dtype=np.float64) for i in chosen]
        )
        trace = IterationTrace()
        inertia = float("inf")

        for iteration in range(iterations):

            def emit(row: tuple, c=centers) -> tuple:
                point = np.asarray(row, dtype=np.float64)
                index, distance = _closest(c, point)
                return index, (point, 1, distance)

            def merge(total: tuple, part: tuple) -> tuple:
                return tuple(a + b for a, b in zip(total, part))

            pairs, job = self._job(f"kmeans_iter_{iteration}", emit, merge)
            totals = dict(pairs)
            inertia = sum(entry[2] for entry in totals.values())
            new_centers = centers.copy()
            for index, (vector_sum, count, __) in totals.items():
                if count > 0:
                    new_centers[index] = vector_sum / count
            centers = new_centers
            trace.jobs.append(job)

        model = KMeansModel(
            centers=centers, iterations_run=iterations, inertia=float(inertia)
        )
        return model, trace
