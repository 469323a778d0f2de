"""The Euclidean plane as a :class:`~repro.space.base.Space`.

A thin adapter over the spatial index of :mod:`repro.index`: the
positions are :class:`~repro.geometry.point.Point`, the metric is L2,
the balls are :class:`~repro.geometry.circle.Circle` and the POI index
is whatever :func:`repro.index.backend.build_index` produced.  This is
the space every session lived in before the abstraction existed, which
is why :class:`repro.service.MPNService` wraps a bare tree into one
automatically (:func:`repro.space.as_space`).
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.gnn.aggregate import Aggregate, aggregate_dist, find_gnn
from repro.index.backend import SpatialIndex


class EuclideanSpace:
    """Planar positions over a :class:`SpatialIndex` of POIs."""

    kind = "euclidean"

    def __init__(self, tree: SpatialIndex):
        self._tree = tree

    @property
    def index(self) -> SpatialIndex:
        return self._tree

    @property
    def epoch(self) -> int:
        """Churn batches the index has accepted (a refused one, which
        raises ``KeyError``, does not count) — the publication counter
        every reader of this space sees move at once."""
        return self._tree.delta_batches

    def distance(self, a: Point, b: Point) -> float:
        return a.dist(b)

    def aggregate_dist(
        self, candidate: Point, users: Sequence[Point], objective: Aggregate
    ) -> float:
        return aggregate_dist(candidate, users, objective)

    def gnn(
        self, users: Sequence[Point], k: int = 1, objective: Aggregate = Aggregate.MAX
    ) -> list[tuple[float, Point]]:
        return [
            (dist, entry.point)
            for dist, entry in find_gnn(self._tree, users, k, objective)
        ]

    def ball(self, center: Point, radius: float) -> Circle:
        return Circle(center, radius)

    def bulk_update(
        self,
        adds: Sequence[tuple[Point, Any]] = (),
        removes: Sequence[tuple[Point, Any]] = (),
    ) -> None:
        self._tree.bulk_update(adds, removes)

    def poi_count(self) -> int:
        return len(self._tree)

    def replicate(self) -> "EuclideanSpace":
        """An independent copy over a freshly packed index.

        The replica uses the same node capacity and repack threshold,
        so queries traverse identically-shaped trees and answers stay
        bit-identical to the original (ties between coincident points
        may reorder payloads, never distances or meeting points).
        """
        entries = list(self._tree.entries())
        clone = type(self._tree).bulk_load(
            [e.point for e in entries],
            payloads=[e.payload for e in entries],
            max_entries=self._tree.max_entries,
            delta_fraction=self._tree.delta_fraction,
        )
        return EuclideanSpace(clone)
