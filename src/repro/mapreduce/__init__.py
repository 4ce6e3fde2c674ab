"""A simulated share-nothing MapReduce platform.

The paper runs on Hadoop; its claims are about *relative* work
distribution — input skew, straggling reducers, shuffle volume, candidate
counts — all of which are observable in-process.  This package provides:

* :mod:`repro.mapreduce.types` — the :class:`Block` record batch (our
  splits are numpy blocks, so mappers/combiners/reducers stay
  vectorised; the API is Hadoop's ``mapPartitions`` shape);
* :mod:`repro.mapreduce.hdfs` — an in-memory DFS with I/O accounting;
* :mod:`repro.mapreduce.cache` — the distributed cache (read-only side
  data shipped to every mapper: pivots, sample skyline, PGmap);
* :mod:`repro.mapreduce.cluster` — workers with per-task wall-clock and
  abstract-cost ledgers, makespan/skew metrics, and optional straggler
  fault injection;
* :mod:`repro.mapreduce.faults` — seeded, deterministic fault
  injection (:class:`FaultPlan`): transient task failures with retry +
  backoff, mid-round worker crashes that lose completed map output,
  and checksum-detected shuffle corruption;
* :mod:`repro.mapreduce.job` / :mod:`repro.mapreduce.runtime` — job
  specification and the engine that executes map → combine → shuffle →
  reduce rounds over the simulated cluster, including lineage-based
  re-execution of lost map tasks and shuffle re-fetch; a job's
  Hadoop-style counter groups are a
  :class:`~repro.observability.metrics.MetricsRegistry`;
* :mod:`repro.mapreduce.parallel` / :mod:`repro.mapreduce.procpool` —
  drop-in executors that run the same rounds on real threads
  (:class:`ThreadedCluster`) or real worker processes
  (:class:`ProcessPoolCluster`, with shared-memory Block transport via
  :mod:`repro.mapreduce.shm`).
"""

from repro.mapreduce.cache import DistributedCache
from repro.mapreduce.cluster import ClusterMetrics, SimulatedCluster, WorkerLedger
from repro.mapreduce.faults import FaultPlan, TransientTaskError
from repro.mapreduce.hdfs import InMemoryDFS
from repro.mapreduce.job import JobResult, MapReduceJob, TaskContext
from repro.mapreduce.parallel import ThreadedCluster
from repro.mapreduce.procpool import ProcessPoolCluster
from repro.mapreduce.runtime import MapReduceRuntime
from repro.mapreduce.types import Block

__all__ = [
    "Block",
    "ClusterMetrics",
    "DistributedCache",
    "FaultPlan",
    "InMemoryDFS",
    "JobResult",
    "MapReduceJob",
    "MapReduceRuntime",
    "ProcessPoolCluster",
    "SimulatedCluster",
    "TaskContext",
    "ThreadedCluster",
    "TransientTaskError",
    "WorkerLedger",
]
