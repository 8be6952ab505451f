"""What a MapReduce job did, in the terms of Hadoop's cost structure.

Section 7.1 names what makes Hadoop slow: map output sorted and written
to disk before the shuffle, a job's output materialized to the
replicated file system when another job reads it, and a task with
Hadoop's launch overhead per input block and reduce partition.
:class:`JobStats` records those volumes; :mod:`repro.costmodel.bridge`
prices a chain of them at cluster scale.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass


def serialized_size_bytes(records: list) -> int:
    """Wire size of records as the Hadoop ML jobs ship them: pickled
    rows are their Writable format."""
    return len(pickle.dumps(records, protocol=4))


@dataclass
class JobStats:
    """Observed volumes for one MapReduce job."""

    name: str
    map_tasks: int = 0
    reduce_tasks: int = 0
    input_records: int = 0
    input_bytes: int = 0
    map_output_records: int = 0
    shuffle_bytes: int = 0
    output_records: int = 0
    output_bytes: int = 0
    #: True when this job's output was written to the replicated store
    #: (an intermediate step of a multi-job query, or a final INSERT).
    materialized_output: bool = False
    #: True when a combiner pre-aggregated map output; shuffle volume then
    #: scales with map-task count, not data volume.
    used_combiner: bool = False
