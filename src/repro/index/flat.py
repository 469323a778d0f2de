"""A vectorized flat R-tree: STR packing into structure-of-arrays.

A pointer-based R-tree allocates one Python object per node and per
entry, so every traversal chases pointers and re-enters the
interpreter per child.  :class:`FlatRTree` stores the STR-packed tree
in contiguous NumPy arrays instead:

* all leaf points live in one ``(n, 2)`` float64 array, permuted so
  each leaf owns a contiguous slice;
* each level of the tree is three parallel arrays — ``bounds``
  ``(k, 4)`` float64 MBRs plus ``start``/``count`` int64 ranges into
  the level below (or into the point array for leaves);
* there are no node objects at all; a node is an index into its
  level's arrays.

The tree answers the two query kinds the paper's server sends: the k
best aggregate nearest neighbors of a group (FindMaxGNN / FindSumGNN;
plain k-NN is the one-user group) and the Theorem-3/6 candidate
scans of Tile-MSR.  Both run through the shared kernels of
:mod:`repro.index.kernels`, which score or mask whole sibling sets per
NumPy call.

Delta maintenance
-----------------

The packing is static, but the POI set is not: production churn is
small batches at high frequency, and repacking 50k points per batch is
the wrong cost model.  Mutations therefore flow through the shared
:class:`~repro.index.entries.DeltaLayer` over the packed epoch:

* deletions set a bit in a **tombstone mask** over the packed point
  array (the packing, its MBRs and its entry cache stay untouched —
  MBRs over a superset remain valid lower bounds);
* insertions land in a **buffered side arena** of unpacked points,
  scored brute-force by every kernel (the arena is small by
  construction, see below);
* every query answers over ``packed ∪ buffer − tombstones`` — the
  kernels take the live view from :meth:`delta_view`;
* when the delta debt (tombstones + arena entries) exceeds
  ``delta_fraction`` of the live size, :meth:`repack` folds the deltas
  into a fresh STR packing — so the arena stays a bounded fraction of
  the data and the O(n log n) rebuild is paid at amortized O(log n)
  per mutation, not per batch.

Per-item :meth:`insert` / :meth:`delete` route through the same deltas
(they are one-element batches), so nothing rebuilds O(n) for a single
point.  ``delta_fraction=0.0`` forces a repack after every batch —
the rebuild-per-batch behavior this layer replaces, kept reachable as
the baseline for the churn benchmarks.  Removal batches resolve
against the layer's lazily built point -> live-ids map, so a small
batch costs O(batch), not O(n).  The tree itself keeps only the STR
packing, the Entry cache and :meth:`FlatRTree.delta_view`.
"""

from __future__ import annotations

import itertools
import math
from typing import Any, Iterator, Optional, Sequence

import numpy as np

from repro.geometry.point import Point
from repro.index import kernels
from repro.index.entries import DEFAULT_DELTA_FRACTION, DeltaLayer, Entry

DEFAULT_FLAT_MAX_ENTRIES = 64


class _Level:
    """One tree level as parallel arrays (index 0 = leaves)."""

    __slots__ = ("bounds", "start", "count", "_cols")

    def __init__(self, bounds: np.ndarray, start: np.ndarray, count: np.ndarray):
        self.bounds = bounds
        self.start = start
        self.count = count
        self._cols: Optional[tuple[np.ndarray, ...]] = None

    def __len__(self) -> int:
        return len(self.start)

    def columns(self) -> tuple[np.ndarray, ...]:
        """``(x_lo, y_lo, x_hi, y_hi)`` as contiguous 1-D arrays.

        Gathers and ufuncs over contiguous columns beat strided slices
        of the ``(k, 4)`` bounds; built lazily, once per packing.
        """
        if self._cols is None:
            self._cols = tuple(
                np.ascontiguousarray(self.bounds[:, j]) for j in range(4)
            )
        return self._cols


def _str_partition(
    xs: np.ndarray, ys: np.ndarray, cap: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sort-Tile-Recursive grouping of one level.

    Returns ``(order, boundaries)``: a permutation placing the items in
    slab-then-y order, and node boundaries such that node ``j`` covers
    ``order[boundaries[j] : boundaries[j + 1]]``.
    """
    n = len(xs)
    n_nodes = math.ceil(n / cap)
    slab_count = max(1, math.ceil(math.sqrt(n_nodes)))
    per_slab = math.ceil(n / slab_count)
    xorder = np.argsort(xs, kind="stable")
    slab = np.empty(n, dtype=np.int64)
    slab[xorder] = np.arange(n, dtype=np.int64) // per_slab
    order = np.lexsort((ys, slab))
    boundaries: list[int] = []
    for s in range(0, n, per_slab):
        boundaries.extend(range(s, min(s + per_slab, n), cap))
    boundaries.append(n)
    return order, np.asarray(boundaries, dtype=np.int64)


class FlatRTree:
    """STR-packed R-tree over points with a tombstone/arena delta layer.

    Point ids are positions in the packed array (``0 .. n_packed-1``,
    tombstoned ids never surface from a query) followed by arena slots
    (``n_packed ..``).  ``delta_fraction`` tunes the repack policy —
    smaller folds deltas sooner (0.0 = repack every batch, the
    rebuild-per-batch baseline), larger lets the arena grow.
    """

    def __init__(
        self,
        max_entries: int = DEFAULT_FLAT_MAX_ENTRIES,
        delta_fraction: float = DEFAULT_DELTA_FRACTION,
    ):
        if max_entries < 4:
            raise ValueError("max_entries must be >= 4")
        self.max_entries = max_entries
        # Maintenance counters: full STR packings (builds) vs delta
        # batches absorbed without one.  The churn benchmarks and the
        # cluster's one-publish-per-batch gate read these.
        self.build_count = 0
        self.delta_batches = 0
        self._pts = np.empty((0, 2), dtype=np.float64)
        self._levels: list[_Level] = []
        self._delta = DeltaLayer(delta_fraction)
        # Entry objects for every id slot (see :meth:`_materialized`).
        self._entry_cache: list[Entry] = []
        self._pt_cols: Optional[tuple[np.ndarray, np.ndarray]] = None
        self._delta_cache: Optional[
            tuple[Optional[np.ndarray], Optional[np.ndarray], Optional[np.ndarray]]
        ] = None

    @property
    def delta_fraction(self) -> float:
        return self._delta.delta_fraction

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def bulk_load(
        cls,
        points: Sequence[Point],
        payloads: Optional[Sequence[Any]] = None,
        max_entries: int = DEFAULT_FLAT_MAX_ENTRIES,
        delta_fraction: float = DEFAULT_DELTA_FRACTION,
    ) -> "FlatRTree":
        tree = cls(max_entries=max_entries, delta_fraction=delta_fraction)
        if payloads is None:
            payloads = list(range(len(points)))
        elif len(payloads) != len(points):
            raise ValueError("payloads length must match points length")
        pts = np.asarray([[p.x, p.y] for p in points], dtype=np.float64)
        pts = pts.reshape(len(points), 2)
        keys = list(map(Point, pts[:, 0].tolist(), pts[:, 1].tolist()))
        tree._rebuild(pts, keys, list(payloads))
        return tree

    def _rebuild(
        self,
        pts: np.ndarray,
        keys: list[Point],
        payloads: list[Any],
        entries: Optional[list[Entry]] = None,
    ) -> None:
        """STR-pack the items as a new epoch; ``keys``, ``payloads`` and
        ``entries`` (when given, else built on the first query) are
        id-aligned with ``pts`` and carried into the packing order."""
        self._delta.reset([], [])
        self._entry_cache = []
        self._pt_cols = None
        self._delta_cache = None
        self.build_count += 1
        if len(pts) == 0:
            self._pts = np.empty((0, 2), dtype=np.float64)
            self._levels = []
            return
        cap = self.max_entries
        order, bnd = _str_partition(pts[:, 0], pts[:, 1], cap)
        self._pts = np.ascontiguousarray(pts[order])
        perm = order.tolist()
        self._delta.reset([keys[i] for i in perm], [payloads[i] for i in perm])
        if entries is not None:
            self._entry_cache = [entries[i] for i in perm]
        starts = bnd[:-1]
        counts = np.diff(bnd)
        bounds = np.empty((len(starts), 4), dtype=np.float64)
        bounds[:, 0] = np.minimum.reduceat(self._pts[:, 0], starts)
        bounds[:, 1] = np.minimum.reduceat(self._pts[:, 1], starts)
        bounds[:, 2] = np.maximum.reduceat(self._pts[:, 0], starts)
        bounds[:, 3] = np.maximum.reduceat(self._pts[:, 1], starts)
        self._levels = [_Level(bounds, starts, counts)]
        while len(self._levels[-1]) > 1:
            low = self._levels[-1]
            cx = (low.bounds[:, 0] + low.bounds[:, 2]) / 2.0
            cy = (low.bounds[:, 1] + low.bounds[:, 3]) / 2.0
            order, bnd = _str_partition(cx, cy, cap)
            # Permute the lower level so each parent's children are a
            # contiguous run; the ranges it stores still point one level
            # further down and survive the permutation untouched.
            low.bounds = np.ascontiguousarray(low.bounds[order])
            low.start = low.start[order]
            low.count = low.count[order]
            starts = bnd[:-1]
            counts = np.diff(bnd)
            pb = np.empty((len(starts), 4), dtype=np.float64)
            pb[:, 0] = np.minimum.reduceat(low.bounds[:, 0], starts)
            pb[:, 1] = np.minimum.reduceat(low.bounds[:, 1], starts)
            pb[:, 2] = np.maximum.reduceat(low.bounds[:, 2], starts)
            pb[:, 3] = np.maximum.reduceat(low.bounds[:, 3], starts)
            self._levels.append(_Level(pb, starts, counts))

    # ------------------------------------------------------------------
    # Dynamic maintenance (delta-based)
    # ------------------------------------------------------------------

    def insert(self, point: Point, payload: Any = None) -> None:
        """Buffer one insertion (a one-element delta batch)."""
        self.bulk_update(adds=[(point, payload)])

    def delete(self, point: Point, payload: Any = None) -> bool:
        """Tombstone one entry matching ``point`` (and ``payload``)."""
        try:
            self.bulk_update(removes=[(point, payload)])
        except KeyError:
            return False
        return True

    def bulk_update(
        self,
        adds: Sequence[tuple[Point, Any]] = (),
        removes: Sequence[tuple[Point, Any]] = (),
    ) -> None:
        """Apply a batch of inserts and deletes through the delta layer.

        Removals tombstone packed (or arena) slots and insertions land
        in the arena; the packed epoch is untouched until the delta
        debt crosses the :meth:`repack` threshold.  All removals are
        resolved before anything mutates
        (:meth:`repro.index.entries.DeltaLayer.update`), so a
        ``KeyError`` for a missing entry leaves the index untouched.
        """
        self._delta.update(adds, removes)
        self._delta_cache = None
        self.delta_batches += 1
        if self._delta.needs_repack():
            self.repack()

    def repack(self) -> None:
        """Fold all deltas into a fresh STR packing (O(n log n)).

        Survivors carry their key and (once a query has built them)
        :class:`Entry` objects into the new epoch: nothing is rebuilt
        from coordinates, and the Entry cache needs no refill.
        """
        ids = self._delta.live_ids()
        keys, payloads = self._delta.keys, self._delta.payloads
        cache = self._materialized() if self._entry_cache else None
        self._rebuild(
            self._coords(np.asarray(ids, dtype=np.int64)),
            [keys[i] for i in ids],
            [payloads[i] for i in ids],
            None if cache is None else [cache[i] for i in ids],
        )

    def delta_view(
        self,
    ) -> tuple[Optional[np.ndarray], Optional[np.ndarray], Optional[np.ndarray]]:
        """The kernels' live view: ``(alive_mask, arena_pts, arena_ids)``.

        ``alive_mask`` is a bool array over the packed points, or
        ``None`` when nothing is tombstoned (the fast path skips the
        gather); ``arena_pts`` / ``arena_ids`` are the live buffered
        points and their absolute ids, or ``None`` when the arena is
        empty.  Cached until the next delta batch.
        """
        if self._delta_cache is None:
            delta = self._delta
            alive = None if delta.n_dead == 0 else ~delta.tomb
            buf_pts = buf_ids = None
            ids = delta.arena_ids()
            if ids:
                buf_ids = np.asarray(ids, dtype=np.int64)
                buf_pts = self._arena_coords(ids)
            self._delta_cache = (alive, buf_pts, buf_ids)
        return self._delta_cache

    def delta_debt(self) -> int:
        """Tombstones + arena slots — what the next repack would fold."""
        return self._delta.debt()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._delta)

    def _materialized(self) -> list[Entry]:
        """Entry objects for every id slot (packed + arena, dead included).

        Queries return a handful of entries out of tens of thousands of
        points; materializing the whole set lazily (and only once per
        packing) keeps the per-query cost at list indexing instead of
        object churn.  The cache is id-aligned and *incremental*:
        tombstones leave it untouched and arena slots extend it, so
        churn batches never invalidate it — only a repack does.
        """
        cache = self._entry_cache
        keys = self._delta.keys
        if len(cache) < len(keys):
            payloads = self._delta.payloads
            cache.extend(
                Entry(keys[i], payloads[i]) for i in range(len(cache), len(keys))
            )
        return cache

    def _arena_coords(self, ids: Sequence[int]) -> np.ndarray:
        keys = self._delta.keys
        return np.asarray([(keys[i].x, keys[i].y) for i in ids], dtype=np.float64)

    def _coords(self, idx: np.ndarray) -> np.ndarray:
        """``(len(idx), 2)`` coordinates for mixed packed/arena ids."""
        n_packed = len(self._pts)
        packed = idx < n_packed
        if packed.all():
            return self._pts[idx]
        out = np.empty((len(idx), 2), dtype=np.float64)
        out[packed] = self._pts[idx[packed]]
        out[~packed] = self._arena_coords(idx[~packed].tolist())
        return out

    def point_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """``(xs, ys)`` of the packed points as contiguous 1-D arrays."""
        if self._pt_cols is None:
            self._pt_cols = (
                np.ascontiguousarray(self._pts[:, 0]),
                np.ascontiguousarray(self._pts[:, 1]),
            )
        return self._pt_cols

    def entries(self) -> Iterator[Entry]:
        """All live leaf entries, packed (tree) order then arena order."""
        cache = self._materialized()
        return (cache[i] for i in self._delta.live_ids())

    def points(self) -> list[Point]:
        return [e.point for e in self.entries()]

    def height(self) -> int:
        return max(1, len(self._levels))

    def validate(self) -> None:
        """Check packing + delta invariants; raises AssertionError on breach."""
        if not self._levels:
            if len(self._pts) != 0:
                raise AssertionError("points without levels")
        for li, lvl in enumerate(self._levels):
            below_n = len(self._pts) if li == 0 else len(self._levels[li - 1])
            covered = 0
            for j in range(len(lvl)):
                s, c = int(lvl.start[j]), int(lvl.count[j])
                if c < 1 or s < 0 or s + c > below_n:
                    raise AssertionError(f"bad child range at level {li}")
                covered += c
                if li == 0:
                    seg = self._pts[s : s + c]
                    lo = seg.min(axis=0)
                    hi = seg.max(axis=0)
                else:
                    seg = self._levels[li - 1].bounds[s : s + c]
                    lo = seg[:, :2].min(axis=0)
                    hi = seg[:, 2:].max(axis=0)
                if not (
                    np.all(lvl.bounds[j, :2] <= lo) and np.all(lvl.bounds[j, 2:] >= hi)
                ):
                    raise AssertionError(f"child escapes MBR at level {li}")
            if covered != below_n:
                raise AssertionError(f"level {li} does not cover the level below")
        if self._levels and len(self._levels[-1]) != 1:
            raise AssertionError("top level must hold exactly the root")
        if self._delta.n_packed != len(self._pts):
            raise AssertionError("delta layer out of sync with points")
        self._delta.validate()

    # ------------------------------------------------------------------
    # Aggregate (group) nearest neighbor
    # ------------------------------------------------------------------

    def incremental_gnn(
        self, users: Sequence[Point], agg: str = "max"
    ) -> Iterator[tuple[float, Entry]]:
        """Yield ``(aggregate_distance, entry)`` in increasing order."""
        if not users:
            raise ValueError("user group must be non-empty")
        U = np.asarray([[u.x, u.y] for u in users], dtype=np.float64)
        # Member axes fold left to right (kernels.fold), the order the
        # batched kernel sums in; node matrices are (m, k), point
        # matrices (k, m).
        if agg == "max":
            # max is monotone under squaring: search in squared space
            # (one sqrt per yielded result instead of m hypots per item).
            node_bound = lambda b: kernels.fold(
                np.maximum, kernels.min_dists_sq_multi(b, U)
            )
            point_score = lambda p: kernels.fold(
                np.maximum, kernels.point_dists_sq_multi(p, U).T
            )
            finish = math.sqrt
        elif agg == "sum":
            node_bound = lambda b: kernels.fold(np.add, kernels.min_dists_multi(b, U))
            point_score = lambda p: kernels.fold(
                np.add, kernels.point_dists_multi(p, U).T
            )
            finish = lambda s: s
        else:
            raise ValueError(f"unknown aggregate: {agg!r}")
        cache = self._materialized()
        for score, i in kernels.best_first(self, node_bound, point_score):
            yield finish(score), cache[i]

    def gnn(
        self, users: Sequence[Point], k: int = 1, agg: str = "max"
    ) -> list[tuple[float, Entry]]:
        if k <= 0:
            return []
        return list(itertools.islice(self.incremental_gnn(users, agg), k))

    def gnn_many(
        self, groups: Sequence[Sequence[Point]], k: int = 1, agg: str = "max"
    ) -> list[list[tuple[float, Entry]]]:
        """k-GNN for many equal-size groups in one vectorized pass.

        Ragged group sizes (or a declined batch kernel) fall back to
        the per-group search.  Both paths return the same rows bit for
        bit, ties included: equal scores come out by ascending point id.
        """
        if not groups:
            return []
        if agg not in ("max", "sum"):
            raise ValueError(f"unknown aggregate: {agg!r}")
        sizes = {len(g) for g in groups}
        out = None
        if len(sizes) == 1 and 0 not in sizes and k > 0:
            U = np.asarray(
                [[[u.x, u.y] for u in g] for g in groups], dtype=np.float64
            )
            out = kernels.gnn_batch(self, U, k, agg)
        if out is None:
            return [self.gnn(g, k, agg) for g in groups]
        scores, ids = out
        cache = self._materialized()
        return [
            [(s, cache[i]) for s, i in zip(srow, irow)]
            for srow, irow in zip(scores.tolist(), ids.tolist())
        ]

    # ------------------------------------------------------------------
    # Pruned candidate scans (Theorems 3 and 6 primitives)
    # ------------------------------------------------------------------

    def intersect_balls(
        self,
        centers: Sequence[Point],
        radii: Sequence[float],
        exclude: Optional[Point] = None,
        stats=None,
    ) -> list[Point]:
        """Points within ``radii[i]`` of ``centers[i]`` for EVERY i.

        A node survives only if it intersects every ball — the MBR
        pruning rule of Theorem 3 (Fig. 10).
        """
        C = np.asarray([[c.x, c.y] for c in centers], dtype=np.float64)
        r = np.asarray(radii, dtype=np.float64)
        idx = kernels.pruned_scan(
            self,
            lambda b: np.all(kernels.min_dists_multi(b, C) <= r[:, None], axis=0),
            lambda p: np.all(kernels.point_dists_multi(p, C) <= r[None, :], axis=1),
            stats,
        )
        return self._points_excluding(idx, exclude)

    def within_dist_sum(
        self,
        centers: Sequence[Point],
        threshold: float,
        exclude: Optional[Point] = None,
        stats=None,
    ) -> list[Point]:
        """Points whose summed distance to ``centers`` is <= threshold.

        The MBR analogue sums per-user min-distances (Theorem 6).
        """
        C = np.asarray([[c.x, c.y] for c in centers], dtype=np.float64)
        idx = kernels.pruned_scan(
            self,
            lambda b: kernels.min_dists_multi(b, C).sum(axis=0) <= threshold,
            lambda p: kernels.point_dists_multi(p, C).sum(axis=1) <= threshold,
            stats,
        )
        return self._points_excluding(idx, exclude)

    def scan(self, exclude: Optional[Point] = None, stats=None) -> list[Point]:
        """All live points (minus ``exclude``) via a counted traversal."""
        ones = lambda a: np.ones(len(a), dtype=bool)
        idx = kernels.pruned_scan(self, ones, ones, stats)
        return self._points_excluding(idx, exclude)

    def _points_excluding(self, idx: np.ndarray, exclude: Optional[Point]) -> list[Point]:
        if exclude is not None and idx.size:
            rows = self._coords(idx)
            keep = ~((rows[:, 0] == exclude.x) & (rows[:, 1] == exclude.y))
            idx = idx[keep]
        cache = self._materialized()
        return [cache[i].point for i in idx.tolist()]
