"""MapReduce analogue: JobTracker/TaskTrackers over HDFS, real user code."""

from .faults import NO_FAULTS, FaultModel, TaskAttemptFailed
from .job import Counters, JobResult, MapReduceJob, partition_for, record_size
from .jobtracker import JobQueue, JobTracker, MapOutput
from .library import grep_job, tokenize, word_count_job
from .sort import (
    TotalOrderPartitioner,
    run_distributed_sort,
    sample_boundaries,
    sort_job,
)
from .split import InputSplit, compute_splits
from .tasktracker import TaskTracker

__all__ = [
    "Counters",
    "FaultModel",
    "JobQueue",
    "NO_FAULTS",
    "TaskAttemptFailed",
    "InputSplit",
    "JobResult",
    "JobTracker",
    "MapOutput",
    "MapReduceJob",
    "TaskTracker",
    "TotalOrderPartitioner",
    "run_distributed_sort",
    "sample_boundaries",
    "sort_job",
    "compute_splits",
    "grep_job",
    "partition_for",
    "record_size",
    "tokenize",
    "word_count_job",
]
