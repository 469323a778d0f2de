"""The road network as a :class:`~repro.space.base.Space`.

Bundles the metric (:class:`~repro.network_ext.space.NetworkSpace`,
exact shortest-path distances) with a POI backend
(:class:`~repro.index.network.NetworkIndex`, CSR adjacency + bulk
distance kernels) into the object the serving stack consumes: sessions
opened on a :class:`NetworkPOISpace` are served by the ``net_circle``
/ ``net_tile`` registry strategies with full feature parity with
Euclidean sessions — report/probe/notify, batched POI churn with
Lemma-1 selective re-notification, per-session and service-wide
metrics.

Positions are :class:`~repro.network_ext.space.NetworkPosition`; POIs
are graph nodes.
"""

from __future__ import annotations

from typing import Any, Hashable, Optional, Sequence

from repro.gnn.aggregate import Aggregate
from repro.index.entries import DEFAULT_DELTA_FRACTION
from repro.index.network import NetworkIndex
from repro.index.oracle import OracleConfig
from repro.network_ext.ball import NetworkBall
from repro.network_ext.gnn import network_aggregate_dist
from repro.network_ext.space import NetworkPosition, NetworkSpace


def _as_position(target: object) -> NetworkPosition:
    if isinstance(target, NetworkPosition):
        return target
    return NetworkPosition.at_node(target)


class NetworkPOISpace:
    """Road-network positions over a :class:`NetworkIndex` of POIs."""

    kind = "network"

    def __init__(
        self,
        space: NetworkSpace,
        pois: Sequence[Hashable] = (),
        payloads: Optional[Sequence[Any]] = None,
        delta_fraction: float = DEFAULT_DELTA_FRACTION,
        oracle_config: Optional[OracleConfig] = None,
    ):
        self.space = space
        self._index = NetworkIndex(
            space, pois, payloads, delta_fraction, oracle_config
        )

    @classmethod
    def from_grid(
        cls,
        pois: Sequence[Hashable] = (),
        oracle_config: Optional[OracleConfig] = None,
        **grid_kwargs,
    ) -> "NetworkPOISpace":
        """A serving space over :meth:`NetworkSpace.from_grid`."""
        return cls(
            NetworkSpace.from_grid(**grid_kwargs),
            pois,
            oracle_config=oracle_config,
        )

    @property
    def index(self) -> NetworkIndex:
        return self._index

    @property
    def epoch(self) -> int:
        """Churn batches the index has accepted (see
        :attr:`repro.space.EuclideanSpace.epoch`)."""
        return self._index.delta_batches

    @property
    def graph(self):
        return self.space.graph

    def distance(self, a: object, b: object) -> float:
        return self.space.distance(_as_position(a), _as_position(b))

    def aggregate_dist(
        self, candidate: object, users: Sequence[object], objective: Aggregate
    ) -> float:
        return network_aggregate_dist(
            self.space, candidate, [_as_position(u) for u in users], objective
        )

    def gnn(
        self, users: Sequence[object], k: int = 1, objective: Aggregate = Aggregate.MAX
    ) -> list[tuple[float, Hashable]]:
        return self._index.gnn(users, k, objective)

    def ball(self, center: object, radius: float) -> NetworkBall:
        if radius == float("inf"):
            radius = self.space.total_edge_length()
        return NetworkBall(self.space, _as_position(center), radius)

    def bulk_update(
        self,
        adds: Sequence[tuple[Hashable, Any]] = (),
        removes: Sequence[tuple[Hashable, Any]] = (),
    ) -> None:
        self._index.bulk_update(adds, removes)

    def poi_count(self) -> int:
        return len(self._index)

    def replicate(self) -> "NetworkPOISpace":
        """An independent POI replica over the shared road graph.

        The graph is immutable and POI-independent, so replicas share
        the :class:`NetworkSpace` — and through it the one
        :class:`~repro.index.oracle.DistanceOracle`, the only place a
        distance over this graph is computed or cached — while each
        owns its POI buckets: POI churn against one replica never
        leaks into another, and an N-shard cluster holds one distance
        cache, not N.  All replicas read the same rows, so distances
        are identical whichever serves.
        """
        items = self._index.items()
        return NetworkPOISpace(
            self.space,
            pois=[node for node, _ in items],
            payloads=[payload for _, payload in items],
            delta_fraction=self._index.delta_fraction,
        )
