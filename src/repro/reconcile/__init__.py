"""The self-healing control plane: declarative specs driven to convergence.

The paper's availability story is a *reactive* hook (``repro.one.ft``):
one failure mode, one remedy.  This package closes the loop instead — a
:class:`FleetSpec` declares what the fleet should look like (N portal
replicas, M DataNodes, a transcode pool, per-pool health policy), and a
:class:`Reconciler` process continuously diffs desired against observed
state and issues convergent actions: replace failed/flapping/hung
members (with exponential backoff and a crash-loop budget), scale pools
through a hysteresis :class:`Autoscaler` fed by the metrics registry,
and roll out version upgrades health-gated with automatic rollback.
"""

from .autoscaler import (
    Autoscaler,
    AutoscalePolicy,
    queue_depth_signal,
    shed_rate_signal,
)
from .failover import PROMOTE_RPC_COST, FailoverController
from .pools import (
    DataNodePoolAdapter,
    MemberStatus,
    PoolAdapter,
    TranscodePoolAdapter,
    WebReplicaPoolAdapter,
)
from .reconciler import Action, ActionLog, ConvergenceReport, Reconciler
from .spec import FleetSpec, HealthPolicy, PoolSpec

__all__ = [
    "Action",
    "ActionLog",
    "Autoscaler",
    "AutoscalePolicy",
    "ConvergenceReport",
    "DataNodePoolAdapter",
    "FailoverController",
    "FleetSpec",
    "HealthPolicy",
    "PROMOTE_RPC_COST",
    "MemberStatus",
    "PoolAdapter",
    "PoolSpec",
    "Reconciler",
    "TranscodePoolAdapter",
    "WebReplicaPoolAdapter",
    "queue_depth_signal",
    "shed_rate_signal",
]
