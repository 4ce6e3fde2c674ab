"""repro.serving — concurrent skyline query serving.

The serving layer turns the offline skyline machinery into a
long-lived service: named datasets live in a
:class:`~repro.serving.registry.DatasetRegistry` as immutable,
monotonically versioned :class:`~repro.serving.snapshot.Snapshot`\\ s;
a :class:`~repro.serving.service.SkylineService` executes typed
queries on bounded worker pools behind admission control, with a
CRC-guarded, version-keyed LRU result cache; and
:class:`~repro.serving.client.SkylineClient` /
:func:`~repro.serving.client.replay_workload` provide the caller-side
facade and the seeded benchmark workload.

The tier is crash-safe and chaos-testable: mutations are WAL-logged
before they are applied (:mod:`repro.serving.wal`), a crashed writer
recovers bit-identically via :meth:`DatasetRegistry.recover`, seeded
fault schedules (:class:`~repro.serving.faults.ServingFaultPlan`)
inject worker/writer crashes, cache corruption, and queue delays
deterministically, and :mod:`repro.serving.resilience` provides the
client-side retry policy, retry budget, and per-dataset circuit
breaker.

On top of the single service sits the sharded tier: a
:class:`~repro.serving.shard.ShardMap` assigns Z-address ranges to
shards, :class:`~repro.serving.router.ShardedSkylineService`
scatter-gathers queries across per-shard services (coordinator-side
skyline merge, hedged sub-queries, WAL-backed failover, certified partial
answers when shards are lost), and a
:class:`~repro.serving.health.HealthMonitor` heartbeats shards into
per-shard circuit breakers.
"""

from repro.serving.admission import (
    AdmissionConfig,
    AdmissionController,
    Ticket,
)
from repro.serving.cache import MergeCache, ResultCache
from repro.serving.client import (
    ReplayReport,
    SkylineClient,
    WorkloadSpec,
    replay_workload,
    shed_ratios_from_admission,
)
from repro.serving.faults import ServingFaultPlan
from repro.serving.health import HealthMonitor
from repro.serving.registry import (
    DatasetRegistry,
    DriftPolicy,
    PublishResult,
)
from repro.serving.resilience import (
    CircuitBreaker,
    RetryBudget,
    RetryPolicy,
)
from repro.serving.router import RouterConfig, ShardedSkylineService
from repro.serving.service import (
    Mutation,
    MutationResult,
    Query,
    QueryResult,
    ServiceConfig,
    SkylineService,
)
from repro.serving.shard import (
    ShardMap,
    floor_dominated_mask,
    floor_k_dominated_mask,
)
from repro.serving.snapshot import Snapshot
from repro.serving.wal import DatasetStore, MutationWAL, WalRecord

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "CircuitBreaker",
    "DatasetRegistry",
    "DatasetStore",
    "DriftPolicy",
    "HealthMonitor",
    "MergeCache",
    "Mutation",
    "MutationResult",
    "MutationWAL",
    "PublishResult",
    "Query",
    "QueryResult",
    "ReplayReport",
    "ResultCache",
    "RetryBudget",
    "RetryPolicy",
    "RouterConfig",
    "ServiceConfig",
    "ServingFaultPlan",
    "ShardMap",
    "ShardedSkylineService",
    "SkylineClient",
    "SkylineService",
    "Snapshot",
    "Ticket",
    "WalRecord",
    "WorkloadSpec",
    "floor_dominated_mask",
    "floor_k_dominated_mask",
    "replay_workload",
    "shed_ratios_from_admission",
]
