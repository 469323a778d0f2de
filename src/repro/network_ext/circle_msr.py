"""Circle-MSR in the road-network metric.

Theorem 1 (and Theorem 5 for the SUM objective) transfer verbatim to
network distance: their proofs only use

    d(p, l) <= d(p, u) + r   and   d(p, l) >= d(p, u) - r

for any location ``l`` within distance ``r`` of ``u`` — i.e. the
triangle inequality, which shortest-path distance satisfies.  Hence

    r_max = (d2 - d1) / 2          (MAX)
    r_max = (d2 - d1) / (2 m)      (SUM)

with ``d1, d2`` the two best aggregate network distances, and the safe
regions are network balls (range regions over road segments).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Optional, Sequence

from repro.core.circle_msr import maximal_circle_radius
from repro.gnn.aggregate import Aggregate
from repro.network_ext.ball import NetworkBall
from repro.network_ext.gnn import network_gnn
from repro.network_ext.space import NetworkPosition, NetworkSpace


@dataclass
class NetworkCircleResult:
    """Output of the network-metric Circle-MSR."""

    po: Hashable  # the optimal meeting POI (a graph node)
    po_dist: float
    second_dist: float
    radius: float
    balls: list[NetworkBall]
    objective: Aggregate


def network_circle_msr(
    space: NetworkSpace,
    pois: Optional[Sequence[Hashable]],
    users: Sequence[NetworkPosition],
    objective: Aggregate = Aggregate.MAX,
    index=None,
) -> NetworkCircleResult:
    """Algorithm 1 under network distance.

    ``index`` (a :class:`~repro.index.network.NetworkIndex` over the
    same graph and POI set) retrieves the two best aggregate nearest
    neighbors through the bulk CSR distance kernels instead of the
    brute-force per-POI scan; the results are bit-identical, only the
    retrieval cost changes.  This is the serving path — the registry's
    ``net_circle`` strategy always passes its session's index, and
    ``pois=None`` with it: the index *is* the POI set, so the list is
    never read (or built) there.
    """
    if index is not None:
        best_two = index.gnn(users, 2, objective)
    else:
        if pois is None:
            raise ValueError("pois is required without an index")
        best_two = network_gnn(space, pois, users, 2, objective)
    po_dist, po = best_two[0]
    if len(best_two) == 1:
        radius = float("inf")
        second = float("inf")
    else:
        second = best_two[1][0]
        radius = maximal_circle_radius(po_dist, second, len(users), objective)
    balls = [
        NetworkBall(space, u, radius if radius != float("inf") else _diameter(space))
        for u in users
    ]
    return NetworkCircleResult(
        po=po,
        po_dist=po_dist,
        second_dist=second,
        radius=radius,
        balls=balls,
        objective=objective,
    )


def _diameter(space: NetworkSpace) -> float:
    """A radius covering the whole network (single-POI degenerate case)."""
    return space.total_edge_length()
