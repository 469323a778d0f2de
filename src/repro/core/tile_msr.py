"""Tile-MSR: tile-based safe regions (Section 5, Algorithm 3).

The algorithm seeds each user's region with the maximal square
inscribed in her Circle-MSR disk (side ``d = sqrt(2) * r_max``), then
browses surrounding tiles in undirected or directed order (Fig. 8),
round-robin over users for ``alpha`` rounds, verifying each tile with
Divide-Verify (Algorithm 2) against the candidate points supplied by
index pruning (Theorem 3/6) or the buffering optimization (Alg. 5).

The SUM objective swaps in Theorem 5 for the seed radius,
Sum-GT-Verify (Algorithm 6) for tile verification, and Theorems 6/7 for
candidate pruning/buffering; everything else is shared.

The road network's Tile-MSR runs the same :func:`grow_regions` on edge
intervals (:mod:`repro.network_ext.tile_msr`).
"""

from __future__ import annotations

import time
from typing import Any, Callable, Optional, Sequence

from repro.core.buffering import BufferSlots
from repro.core.circle_msr import circle_msr
from repro.core.divide_verify import divide_verify
from repro.core.gt_verify import MaxVerifier
from repro.core.pruning import max_candidates, sum_candidates
from repro.core.sum_verify import SumVerifier
from repro.core.tiles import TileOrdering
from repro.core.types import (
    CircleResult,
    Ordering,
    SafeRegionStats,
    TileMSRConfig,
    TileMSRResult,
)
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.geometry.region import TileRegion
from repro.geometry.tile import Tile, tile_at
from repro.gnn.aggregate import Aggregate
from repro.index.backend import SpatialIndex

_WHOLE_PLANE = 1.0e18


def _whole_plane_region(anchor: Point) -> TileRegion:
    """Safe region covering effectively all of space (single-POI case)."""
    side = _WHOLE_PLANE
    tile = Tile(Rect.square(anchor, side))
    return TileRegion(anchor, side, [tile])


def tile_msr(
    users: Sequence[Point],
    tree: SpatialIndex,
    config: TileMSRConfig | None = None,
    headings: Optional[Sequence[Optional[float]]] = None,
    thetas: Optional[Sequence[Optional[float]]] = None,
    seed: Optional[CircleResult] = None,
) -> TileMSRResult:
    """Algorithm 3: compute tile-based safe regions for the group.

    ``headings`` supplies each user's predicted travel direction in
    radians (used only by the directed ordering); ``None`` entries fall
    back to undirected browsing for that user.  ``thetas`` optionally
    overrides the config's deviation bound per user (the bound is
    "learned from the user's recent travel directions", Section 5.2).

    ``seed`` optionally supplies a precomputed Circle-MSR result for
    the same ``users``/``objective`` (lines 1-2 of Algorithm 3); the
    batched serving path computes the seeds of many groups with one
    :func:`~repro.core.circle_msr.circle_msr_batch` dispatch and hands
    each one in here.  The tile growth that follows is unchanged.
    """
    if config is None:
        config = TileMSRConfig()
    if headings is not None and len(headings) != len(users):
        raise ValueError("headings must align with users")
    if thetas is not None and len(thetas) != len(users):
        raise ValueError("thetas must align with users")
    stats = SafeRegionStats()
    start = time.perf_counter()

    if seed is None:
        seed = circle_msr(users, tree, config.objective)
    po = seed.po
    rmax = seed.radius

    if rmax == float("inf"):
        regions = [_whole_plane_region(u) for u in users]
        stats.elapsed_seconds = time.perf_counter() - start
        return TileMSRResult(
            po=po,
            po_payload=seed.po_payload,
            po_dist=seed.po_dist,
            radius=rmax,
            tile_side=_WHOLE_PLANE,
            regions=regions,
            objective=config.objective,
            stats=stats,
        )

    side = 2.0**0.5 * rmax
    regions = [
        TileRegion(u, side, [tile_at(u, side, 0, 0)] if side > 0.0 else [])
        for u in users
    ]
    for region, u in zip(regions, users):
        if side <= 0.0:
            # Degenerate: the region is the user's current location.
            region.add(Tile(Rect.from_point(u)))

    if side > 0.0:
        directed = config.ordering is Ordering.DIRECTED and headings is not None
        orderings = [
            TileOrdering(
                u,
                side,
                heading=headings[i] if directed else None,
                theta=thetas[i]
                if directed and thetas is not None and thetas[i] is not None
                else config.theta,
                max_layer=config.max_layer,
            )
            for i, u in enumerate(users)
        ]
        grow_regions(
            regions,
            orderings,
            config.alpha,
            config.split_level,
            _select_candidate_supplier(config, tree, users, regions, po, stats),
            _select_point_verifier(config, po),
            po,
            stats,
        )

    stats.elapsed_seconds = time.perf_counter() - start
    return TileMSRResult(
        po=po,
        po_payload=seed.po_payload,
        po_dist=seed.po_dist,
        radius=rmax,
        tile_side=side,
        regions=regions,
        objective=config.objective,
        stats=stats,
    )


def grow_regions(
    regions: Sequence,
    orderings: Sequence,
    alpha: int,
    split_level: int,
    supplier: Callable[[int, Any], Optional[Sequence]],
    verify: Callable,
    po,
    stats: SafeRegionStats,
) -> None:
    """Rounds 1..alpha of Algorithm 3 (lines 5-10), on any unit type.

    Every round gives each user whose ordering is not exhausted one
    ``turn(try_unit)``; the ordering's own turn rule decides how many
    units that offers.  ``try_unit`` is Divide-Verify (Algorithm 2): a
    unit passes when ``verify`` accepts it against every candidate
    ``supplier(user_idx, unit)`` returns, and fails when the supplier
    returns None (the buffer's precondition, Algorithm 5).
    """

    def turn_of(i: int) -> Callable[[Any], bool]:
        def unit_ok(unit) -> bool:
            cands = supplier(i, unit)
            if cands is None:
                return False
            for p in cands:
                stats.point_checks += 1
                if not verify(regions, i, unit, p, po, stats):
                    return False
            return True

        return lambda unit: divide_verify(
            regions[i], unit, split_level, unit_ok, stats
        )

    for _ in range(alpha):
        for i, ordering in enumerate(orderings):
            if not ordering.exhausted:
                ordering.turn(turn_of(i))
        if all(ordering.exhausted for ordering in orderings):
            break


def _select_point_verifier(config: TileMSRConfig, po: Point) -> Callable:
    """Pick the Tile-Verify implementation (Section 5.3 / Algorithm 6)."""
    if config.objective is Aggregate.SUM:
        return SumVerifier(po).verify
    return MaxVerifier(po, config.verifier.value).verify


def _select_candidate_supplier(
    config: TileMSRConfig,
    tree: SpatialIndex,
    users: Sequence[Point],
    regions: list[TileRegion],
    po: Point,
    stats: SafeRegionStats,
) -> Callable[[int, Tile], Optional[list[Point]]]:
    """Candidate points per (user, tile): pruned index scan or buffer."""
    if config.buffer_b is not None:
        slots = BufferSlots(tree, users, config.objective, config.buffer_b, stats)
        return lambda user_idx, s: slots.candidates(regions, user_idx, s)
    prune = max_candidates if config.objective is Aggregate.MAX else sum_candidates
    return lambda user_idx, s: prune(tree, users, regions, user_idx, s, po, stats)
