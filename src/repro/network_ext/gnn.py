"""Aggregate nearest neighbor under network distance.

POIs live on graph nodes (real POI datasets are map-matched to the road
graph).  For each user anchor we read one single-source distance map —
a view over a row of the graph's shared
:class:`~repro.index.oracle.DistanceOracle` — and aggregate at every
POI node.  Exact, and fast enough for the graph sizes the monitoring
loop uses.
"""

from __future__ import annotations

from typing import Hashable, Sequence

from repro.gnn.aggregate import Aggregate
from repro.network_ext.space import NetworkPosition, NetworkSpace


def network_aggregate_dist(
    space: NetworkSpace,
    poi: Hashable,
    users: Sequence[NetworkPosition],
    agg: Aggregate,
) -> float:
    """``||poi, U||`` under network distance; ``poi`` is a graph node
    or a :class:`NetworkPosition`."""
    target = poi if isinstance(poi, NetworkPosition) else NetworkPosition.at_node(poi)
    dists = [space.distance(u, target) for u in users]
    return max(dists) if agg is Aggregate.MAX else sum(dists)


def network_gnn(
    space: NetworkSpace,
    pois: Sequence[Hashable],
    users: Sequence[NetworkPosition],
    k: int = 1,
    agg: Aggregate = Aggregate.MAX,
) -> list[tuple[float, Hashable]]:
    """The ``k`` best POI nodes by aggregate network distance."""
    if not users:
        raise ValueError("user group must be non-empty")
    if not pois:
        raise ValueError("POI set must be non-empty")
    if k <= 0:
        return []
    # One distance map per user anchor; aggregates read from the maps.
    per_user_maps = []
    for u in users:
        anchors = space.anchors(u)
        maps = [(d0, space.node_distances(node)) for node, d0 in anchors]
        per_user_maps.append(maps)

    scored: list[tuple[float, Hashable]] = []
    for poi in pois:
        total = 0.0
        worst = 0.0
        for maps in per_user_maps:
            d = min(d0 + m.get(poi, float("inf")) for d0, m in maps)
            total += d
            worst = max(worst, d)
        scored.append((worst if agg is Aggregate.MAX else total, poi))
    scored.sort(key=lambda t: (t[0], str(t[1])))
    return scored[:k]
