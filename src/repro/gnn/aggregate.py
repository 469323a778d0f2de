"""Branch-and-bound k-best aggregate nearest neighbor over the index.

For a node MBR ``N`` the aggregate of per-user ``min_dist`` values is a
lower bound of the aggregate distance of every point inside ``N`` (both
MAX and SUM are monotone in each argument), so a best-first traversal
ordered by that bound retrieves POIs in exactly increasing aggregate
distance — the MBM method of Papadias et al. (ref. [24]).

The traversal itself lives with the spatial index: the flat R-tree
batches the per-user ``min_dist`` lower bounds over whole sibling sets
(:mod:`repro.index.kernels`).  This module owns the
:class:`Aggregate` objective and the ``FindMaxGNN``/``FindSumGNN``
entry points of the paper.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterator, Sequence

from repro.geometry.point import Point
from repro.index.backend import SpatialIndex
from repro.index.entries import Entry


class Aggregate(Enum):
    """The aggregate function applied to per-user distances."""

    MAX = "max"
    SUM = "sum"


MAX = Aggregate.MAX
SUM = Aggregate.SUM


def aggregate_dist(p: Point, users: Sequence[Point], agg: Aggregate) -> float:
    """``||p, U||_max`` (Def. 2) or ``||p, U||_sum`` (Def. 7)."""
    if agg is Aggregate.MAX:
        return max(p.dist(u) for u in users)
    return sum(p.dist(u) for u in users)


def incremental_gnn(
    tree: SpatialIndex, users: Sequence[Point], agg: Aggregate = Aggregate.MAX
) -> Iterator[tuple[float, Entry]]:
    """Yield ``(aggregate_distance, entry)`` in increasing order."""
    return tree.incremental_gnn(users, agg.value)


def find_gnn(
    tree: SpatialIndex,
    users: Sequence[Point],
    k: int = 1,
    agg: Aggregate = Aggregate.MAX,
) -> list[tuple[float, Entry]]:
    """The ``k`` best meeting points with their aggregate distances.

    This is the ``FindMaxGNN(U, P, k)`` / ``FindSumGNN`` primitive used
    by Algorithm 1 (k=2) and by the buffering optimization of Section
    5.4 (k=b+1).
    """
    return tree.gnn(users, k, agg.value)


def find_max_gnn(tree: SpatialIndex, users: Sequence[Point], k: int = 1):
    """k-best MAX-GNN (optimal meeting points, Definition 2)."""
    return find_gnn(tree, users, k, Aggregate.MAX)


def find_sum_gnn(tree: SpatialIndex, users: Sequence[Point], k: int = 1):
    """k-best SUM-GNN (sum-optimal meeting points, Definition 8)."""
    return find_gnn(tree, users, k, Aggregate.SUM)
