"""The spatial-index protocol and its one constructor.

The paper's server "manages a data set P of points-of-interest and
indexes it by an R-tree" (Section 3.1), and every layer above — k-GNN
retrieval (gnn), Theorem-3/6 candidate pruning (core), the monitoring
loop and multi-group server (simulation), the figure harnesses
(experiments) — consumes that index only through the
:class:`SpatialIndex` protocol defined here.  The protocol asks for
what the paper asks of the R-tree and nothing more: the k best
aggregate nearest neighbors of a group (Algorithm 1 with k = 2, the
Section 5.4 buffer with k = b + 1) and the Theorem-3/6 candidate scans
of Tile-MSR (Algorithm 3), plus delta-layer maintenance under POI
churn.  The implementation is
:class:`repro.index.flat.FlatRTree`, an STR-packed structure-of-arrays
R-tree with vectorized NumPy kernels; :func:`build_index` bulk-loads
one.  Exhaustive scans (:mod:`repro.gnn.bruteforce`) referee it in the
test suite.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional, Protocol, Sequence, runtime_checkable

from repro.geometry.point import Point
from repro.index.entries import Entry
from repro.index.flat import FlatRTree


@runtime_checkable
class SpatialIndex(Protocol):
    """What the spatial index must answer.

    The first block is bookkeeping; the second block is the query
    surface the upper layers are written against.  ``agg`` takes the
    aggregate name (``"max"`` / ``"sum"``) as a plain string so the
    index layer stays independent of :mod:`repro.gnn`.
    """

    def __len__(self) -> int: ...

    def entries(self) -> Iterator[Entry]: ...

    def points(self) -> list[Point]: ...

    def insert(self, point: Point, payload: Any = None) -> None: ...

    def delete(self, point: Point, payload: Any = None) -> bool: ...

    def bulk_update(
        self,
        adds: Sequence[tuple[Point, Any]] = (),
        removes: Sequence[tuple[Point, Any]] = (),
    ) -> None: ...

    def height(self) -> int: ...

    def validate(self) -> None: ...

    def incremental_gnn(
        self, users: Sequence[Point], agg: str = "max"
    ) -> Iterator[tuple[float, Entry]]: ...

    def gnn(
        self, users: Sequence[Point], k: int = 1, agg: str = "max"
    ) -> list[tuple[float, Entry]]: ...

    def gnn_many(
        self, groups: Sequence[Sequence[Point]], k: int = 1, agg: str = "max"
    ) -> list[list[tuple[float, Entry]]]: ...

    def intersect_balls(
        self,
        centers: Sequence[Point],
        radii: Sequence[float],
        exclude: Optional[Point] = None,
        stats=None,
    ) -> list[Point]: ...

    def within_dist_sum(
        self,
        centers: Sequence[Point],
        threshold: float,
        exclude: Optional[Point] = None,
        stats=None,
    ) -> list[Point]: ...

    def scan(self, exclude: Optional[Point] = None, stats=None) -> list[Point]: ...


def build_index(
    points: Sequence[Point],
    payloads: Optional[Sequence[Any]] = None,
    max_entries: Optional[int] = None,
) -> SpatialIndex:
    """Bulk-load a :class:`FlatRTree` over ``points``.

    ``payloads`` default to each point's index in ``points``;
    ``max_entries`` of None keeps the tree's own packing width (wide
    nodes, so each vectorized kernel call amortizes over a larger
    sibling set).
    """
    if max_entries is None:
        return FlatRTree.bulk_load(list(points), payloads=payloads)
    return FlatRTree.bulk_load(list(points), payloads=payloads, max_entries=max_entries)
