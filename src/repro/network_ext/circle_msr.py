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
    retrieval cost changes.  This is the serving path — the one-group
    case of :func:`network_circle_msr_batch`; the registry's
    ``net_circle`` strategy always passes its session's index, and
    ``pois=None`` with it: the index *is* the POI set, so the list is
    never read (or built) there.  Without an index this is the
    reference the tests compare the serving path against: brute-force
    GNN, balls from their own anchor rows.
    """
    if index is not None:
        return network_circle_msr_batch(space, [users], objective, index)[0]
    if pois is None:
        raise ValueError("pois is required without an index")
    best_two = network_gnn(space, pois, users, 2, objective)
    return _circles(space, users, best_two, objective, None)


def network_circle_msr_batch(
    space: NetworkSpace,
    groups: Sequence[Sequence[NetworkPosition]],
    objective: Aggregate,
    index,
) -> list[NetworkCircleResult]:
    """:func:`network_circle_msr` for every group of a fleet wave.

    One :meth:`~repro.index.network.NetworkIndex.gnn_scan` serves the
    whole wave — one oracle-row gather and one scoring pass per chunk —
    and each group's balls are cut from the distance rows that scan
    already combined.  Bit-identical to the per-group calls.
    """
    results: list = [None] * len(groups)
    for i, best_two, rows in index.gnn_scan(groups, 2, objective):
        results[i] = _circles(space, groups[i], best_two, objective, rows)
    return results


def _circles(
    space: NetworkSpace,
    users: Sequence[NetworkPosition],
    best_two: list[tuple[float, Hashable]],
    objective: Aggregate,
    rows,
) -> NetworkCircleResult:
    """Theorem 1 / 5 radius from the two best, one ball per user
    (``rows``: the users' distance rows, or ``None`` to let each ball
    fetch its own)."""
    po_dist, po = best_two[0]
    if len(best_two) == 1:
        radius = float("inf")
        second = float("inf")
    else:
        second = best_two[1][0]
        radius = maximal_circle_radius(po_dist, second, len(users), objective)
    reach = radius if radius != float("inf") else _diameter(space)
    balls = [
        NetworkBall(space, u, reach, None if rows is None else rows[j])
        for j, u in enumerate(users)
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
