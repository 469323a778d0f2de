"""The sharded serving tier: one multi-shard front door, two constructors.

:class:`~repro.cluster.cluster.ShardedFrontDoor` implements the same
:class:`~repro.service.api.ServiceBackend` surface as a single
:class:`~repro.service.MPNService` — the ``dispatch`` wire face and the
in-process convenience methods — while routing sessions to per-shard
backends by consistent hash (:class:`~repro.cluster.hashring.HashRing`),
validating fleet waves once and scattering them per shard, applying POI
churn once and sweeping every shard, and merging metrics cluster-wide.
Answers are bit-identical to an unsharded service.  :class:`MPNCluster`
constructs it over in-process services that serve one space object;
:class:`repro.transport.ProcessCluster` over worker processes.
"""

from repro.cluster.cluster import MPNCluster, ShardedFrontDoor, SpaceFactory
from repro.cluster.hashring import HashRing
from repro.cluster.load import ShardLoad, collect_shard_loads, hot_shards

__all__ = [
    "MPNCluster",
    "ShardedFrontDoor",
    "SpaceFactory",
    "HashRing",
    "ShardLoad",
    "collect_shard_loads",
    "hot_shards",
]
