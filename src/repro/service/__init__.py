"""Fault-tolerant sharded sweep service (DESIGN.md §11).

The service layer turns one :class:`~repro.api.spec.ExperimentSpec` into
shard specs (:mod:`~repro.service.shards`), fans them out through a
dispatcher — forked worker processes (:mod:`~repro.service.worker`) or
cluster hosts — under an async supervisor with retry/backoff,
reassignment and quarantine (:mod:`~repro.service.supervisor`), and
merges the digest-verified shard artifacts back into one
:class:`~repro.api.result.RunResult` that is bit-identical to an
in-process run.  A deterministic fault-injection plane
(:mod:`~repro.service.faults`, ``REPRO_FAULTS``) lets the tests exercise
every failure path, and :mod:`~repro.service.server` runs shards for a
cluster coordinator (``repro serve``).
"""

from repro.service.faults import FaultPlan, FaultPlanError
from repro.service.shards import (
    ShardResult,
    ShardSpec,
    merge_shards,
    plan_shards,
)
from repro.service.supervisor import ShardedSweepResult, ShardSupervisor

__all__ = [
    "FaultPlan",
    "FaultPlanError",
    "ShardResult",
    "ShardSpec",
    "ShardSupervisor",
    "ShardedSweepResult",
    "merge_shards",
    "plan_shards",
]
