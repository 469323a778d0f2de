"""Circle-MSR: circular safe regions (Section 4, Algorithm 1).

Every user gets the disk centered at her current location with the
common maximal radius of Theorem 1 (MAX objective):

    r_max = (min_{p != po} ||p, U||_max - ||po, U||_max) / 2

or, for the sum-optimal variant (Theorem 5):

    r_max = (min_{p != po} ||p, U||_sum - ||po, U||_sum) / (2 m)

Both need only the two best aggregate nearest neighbors, which
``find_gnn(U, P, 2)`` retrieves from the R-tree (ref. [24]).
"""

from __future__ import annotations

import time
from typing import Sequence

from repro.core.types import CircleResult, SafeRegionStats
from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.gnn.aggregate import Aggregate, find_gnn
from repro.index.backend import SpatialIndex


def maximal_circle_radius(
    best_dist: float, second_dist: float, m: int, objective: Aggregate
) -> float:
    """The radius of Theorem 1 (MAX) or Theorem 5 (SUM).

    ``best_dist``/``second_dist`` are the aggregate distances of the
    optimal and second-best meeting points; ``m`` the group size.
    """
    gap = second_dist - best_dist
    if gap < 0.0:
        raise ValueError("second-best aggregate distance below the best")
    if objective is Aggregate.MAX:
        return gap / 2.0
    return gap / (2.0 * m)


def _result_from_best_two(
    users: Sequence[Point],
    best_two: Sequence[tuple[float, object]],
    objective: Aggregate,
    elapsed: float,
) -> CircleResult:
    """Shared tail of Algorithm 1: radii and circles from the two GNNs."""
    po_dist, po_entry = best_two[0]
    if len(best_two) == 1:
        radius = float("inf")
        second_dist = float("inf")
    else:
        second_dist = best_two[1][0]
        radius = maximal_circle_radius(po_dist, second_dist, len(users), objective)
    circles = [Circle(u, radius) for u in users]
    return CircleResult(
        po=po_entry.point,
        po_payload=po_entry.payload,
        po_dist=po_dist,
        second_dist=second_dist,
        radius=radius,
        circles=circles,
        objective=objective,
        stats=SafeRegionStats(elapsed_seconds=elapsed),
    )


def circle_msr(
    users: Sequence[Point],
    tree: SpatialIndex,
    objective: Aggregate = Aggregate.MAX,
) -> CircleResult:
    """Algorithm 1: compute circular safe regions for the group.

    Returns the optimal meeting point, the maximal radius and one
    circle per user.  When ``P`` holds a single point the radius is
    unbounded; we signal that with ``float('inf')`` (the result can
    never change, so the safe regions are the whole plane).
    """
    if not users:
        raise ValueError("user group must be non-empty")
    if len(tree) == 0:
        raise ValueError("POI set must be non-empty")
    start = time.perf_counter()
    best_two = find_gnn(tree, users, 2, objective)
    return _result_from_best_two(
        users, best_two, objective, time.perf_counter() - start
    )


def circle_msr_batch(
    groups: Sequence[Sequence[Point]],
    tree: SpatialIndex,
    objective: Aggregate = Aggregate.MAX,
) -> list[CircleResult]:
    """Algorithm 1 for many groups through one batched GNN dispatch.

    Equivalent to ``[circle_msr(g, tree, objective) for g in groups]``
    but retrieves every group's two best aggregate nearest neighbors
    with a single :meth:`~repro.index.backend.SpatialIndex.gnn_many`
    call, which the flat backend answers in one vectorized frontier
    traversal (:func:`repro.index.kernels.gnn_batch`) when the groups
    share a size.  Both paths are exact, so results agree except for
    ties between equally-good meeting points.  Elapsed time is split
    evenly across the batch; all other statistics are per group.
    """
    if not groups:
        return []
    for users in groups:
        if not users:
            raise ValueError("user group must be non-empty")
    if len(tree) == 0:
        raise ValueError("POI set must be non-empty")
    start = time.perf_counter()
    best_two = tree.gnn_many([list(g) for g in groups], 2, objective.value)
    share = (time.perf_counter() - start) / len(groups)
    return [
        _result_from_best_two(users, best, objective, share)
        for users, best in zip(groups, best_two)
    ]
