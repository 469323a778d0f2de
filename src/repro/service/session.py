"""Per-session server-side state and Lemma-1 invalidation tests.

:meth:`ServiceSession.region_valid_against` is the exact test;
:func:`lemma1_suspects` is the conservative broadcast filter the churn
sweep runs in front of it.  Its per-session half is cached in
``ServiceSession.lemma1_bound``, which depends only on ``po``,
``regions`` and ``policy.objective``.  Those are written in exactly
three places — ``MPNService._apply_result``, ``_decode_snapshot`` (a
fresh session object) and ``update_policy`` — and each leaves the field
``None`` for the next sweep to refill; a region is never mutated once
its strategy has returned it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from repro.core.verify import verify_regions
from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.geometry.region import PointRegion, Region, TileRegion
from repro.gnn.aggregate import Aggregate
from repro.service.messages import MemberState
from repro.service.strategies import SafeRegionStrategy
from repro.simulation.metrics import SimulationMetrics
from repro.simulation.policies import Policy

# Supplies a member's fresh state during the probe round (step 2 of
# Fig. 3).  ``None`` falls back to the member's last reported state.
Prober = Callable[[int], MemberState]


def sum_verify_regions(regions: Sequence[Region], po: Point, p: Point) -> bool:
    """Lemma 1's SUM analogue: conservative validity of ``po`` vs ``p``.

    ``sum_i min_dist(p, Ri) >= sum_i max_dist(po, Ri)`` guarantees
    ``||p, L||_sum >= ||po, L||_sum`` for every instance ``L``.
    """
    gap = sum(r.min_dist(p) for r in regions) - sum(r.max_dist(po) for r in regions)
    return gap >= 0.0


# Relative padding of the filter's threshold.  It absorbs the few ulps
# by which np.hypot, NumPy's summation order and a tile region's rounded
# bounding circle differ from the exact test's arithmetic: ~10^6 ulps
# of the session's coordinate scale, far below any deciding distance.
LEMMA1_FILTER_SLACK = 1e-9

# Cells (members x adds) broadcast at a time: a bulk load against a
# large fleet stays within a few MiB of temporaries.
_FILTER_BLOCK_CELLS = 1 << 20


class Lemma1Bound(NamedTuple):
    """The ``p``-independent half of one session's Lemma-1 test."""

    circles: tuple[float, ...]  # (cx, cy, rho) per member, flat; () = no bound
    limit: float  # the hoisted threshold, slack included
    is_sum: bool


_NO_BOUND = Lemma1Bound((), math.inf, False)


def _bounding_circle(region: Region) -> Optional[tuple[float, float, float]]:
    """A circle containing ``region``; ``None`` without a Euclidean one."""
    if isinstance(region, Circle):
        return region.as_values()
    if isinstance(region, PointRegion):
        return (region.location.x, region.location.y, 0.0)
    if isinstance(region, TileRegion):
        rect = region.bounding_rect()
        center = rect.center
        return (center.x, center.y, math.hypot(rect.width, rect.height) / 2.0)
    return None


@dataclass
class ServiceSession:
    """Server-side state for one monitored group.

    ``space`` is the metric space the session lives in
    (:class:`repro.space.base.Space`); positions, regions and the
    meeting point ``po`` are in that space's types.  ``None`` means the
    service's default space (filled in by ``open_session``).
    """

    session_id: int
    policy: Policy
    strategy: SafeRegionStrategy
    members: list[MemberState]
    prober: Optional[Prober] = None
    space: Optional[object] = None
    po: Optional[Point] = None
    regions: list[Region] = field(default_factory=list)
    metrics: SimulationMetrics = field(default_factory=SimulationMetrics)
    # Churn-sweep cache; every writer of po / regions / policy resets it.
    lemma1_bound: Optional[Lemma1Bound] = None

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def positions(self) -> list[Point]:
        return [m.point for m in self.members]

    @property
    def group_id(self) -> int:
        """Backwards-compatible alias used by the MultiGroupServer shim."""
        return self.session_id

    def region_valid_against(self, p: Point) -> bool:
        """Can the candidate POI ``p`` ever beat the cached result?

        The conservative test of Lemma 1 (MAX) or its SUM analogue over
        the session's current safe regions; ``True`` means the cached
        meeting point provably survives the insertion of ``p``.
        """
        if self.po is None or p == self.po:
            return True
        if self.policy.objective is Aggregate.SUM:
            return sum_verify_regions(self.regions, self.po, p)
        return verify_regions(self.regions, self.po, p)

    def compute_lemma1_bound(self) -> Lemma1Bound:
        """Bounding circles plus the threshold ``region_valid_against``
        re-derives per call; ``_NO_BOUND`` when a region has no Euclidean
        bound (network balls) or there is no result yet."""
        circles: list[float] = []
        for region in self.regions:
            circle = _bounding_circle(region)
            if circle is None:
                return _NO_BOUND
            circles.extend(circle)
        if self.po is None or not circles:
            return _NO_BOUND
        is_sum = self.policy.objective is Aggregate.SUM
        # The exact tests' own expressions (dominant_max is this max).
        thr = (sum if is_sum else max)(r.max_dist(self.po) for r in self.regions)
        scale = thr + sum(map(abs, circles))
        return Lemma1Bound(
            tuple(circles), thr + LEMMA1_FILTER_SLACK * scale, is_sum
        )


def lemma1_suspects(
    sessions: Sequence[ServiceSession], points: Sequence[Point]
) -> list[Sequence[int]]:
    """Per session, the indices of ``points`` the exact test must see.

    The exact test fails ``p`` only when every member's ``min_dist(p)``
    is below ``thr = dominant_max(po, R)`` (MAX), or their sum is below
    ``thr = sum_i max_dist(po, Ri)`` (SUM).  A circle ``(c, rho)``
    containing a region gives ``||p, c|| - rho <= min_dist(p)``, so
    every such ``p`` also has ``||p, c|| - rho <= thr`` for every member
    (MAX) / ``sum_i max(||p, c|| - rho, 0) <= thr`` (SUM).  That weaker
    condition, with ``thr`` padded by :data:`LEMMA1_FILTER_SLACK`, is
    evaluated here in one NumPy broadcast of members x points: it may
    keep a harmless pair but never drops one the exact test would fail.
    A session without a bound keeps every index; a bounded one keeps
    its survivors in ascending order.  Stale bounds are refilled here.
    """
    if not points:  # a removes-only batch: leave stale bounds stale
        return [()] * len(sessions)
    out: list[Sequence[int]] = []
    bounded: list[int] = []  # positions in ``out`` of the rows below
    flat: list[float] = []
    starts: list[int] = []
    limits: list[float] = []
    sums: list[bool] = []
    for session in sessions:
        bound = session.lemma1_bound
        if bound is None:
            bound = session.lemma1_bound = session.compute_lemma1_bound()
        if not bound.circles:
            out.append(range(len(points)))
            continue
        bounded.append(len(out))
        out.append([])
        starts.append(len(flat) // 3)
        flat.extend(bound.circles)
        limits.append(bound.limit)
        sums.append(bound.is_sum)
    if not bounded:
        return out
    cx, cy, rho = np.array(flat).reshape(-1, 3).T[:, :, None]
    px, py = np.array([(p.x, p.y) for p in points]).T
    limit = np.array(limits)[:, None]
    is_sum = np.array(sums)[:, None]
    step = max(1, _FILTER_BLOCK_CELLS // len(rho))
    for lo in range(0, len(points), step):
        lower = np.hypot(px[lo : lo + step] - cx, py[lo : lo + step] - cy) - rho
        worst = np.maximum.reduceat(lower, starts, axis=0)
        if is_sum.any():
            total = np.add.reduceat(np.maximum(lower, 0.0), starts, axis=0)
            worst = np.where(is_sum, total, worst)
        # "not >" rather than "<=": a NaN distance stays a suspect.
        rows, cols = np.nonzero(~(worst > limit))
        for row, col in zip(rows.tolist(), cols.tolist()):
            out[bounded[row]].append(lo + col)
    return out
