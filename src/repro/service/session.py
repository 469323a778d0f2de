"""Per-session server-side state and Lemma-1 invalidation tests.

:meth:`ServiceSession.region_valid_against` is the exact test;
:func:`lemma1_suspects` is the conservative broadcast filter the churn
sweep runs in front of it, in the plane and on road networks alike.  Its
per-session half is cached in ``ServiceSession.lemma1_bound``, which
depends only on ``po``, ``regions`` and ``policy.objective``.  Those are
written in exactly three places — ``MPNService._apply_result``,
``_decode_snapshot`` (a fresh session object) and ``update_policy`` —
and each leaves the field ``None`` for the next sweep to refill; a
region is never mutated once its strategy has returned it.

Road-network regions are reached by duck typing only
(``region.enclosing_ball()``): this module imports nothing from
:mod:`repro.network_ext`, which loads only when a network strategy is
first resolved (:mod:`repro.service.strategies`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate, chain
from typing import Iterator, NamedTuple, Optional, Sequence

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


def sum_verify_regions(regions: Sequence[Region], po: Point, p: Point) -> bool:
    """Lemma 1's SUM analogue: conservative validity of ``po`` vs ``p``.

    ``sum_i min_dist(p, Ri) >= sum_i max_dist(po, Ri)`` guarantees
    ``||p, L||_sum >= ||po, L||_sum`` for every instance ``L``.
    """
    gap = sum(r.min_dist(p) for r in regions) - sum(r.max_dist(po) for r in regions)
    return gap >= 0.0


# Relative padding of the filter's threshold.  It absorbs the few ulps
# by which np.hypot, NumPy's summation order, a tile region's rounded
# bounding circle and the two directions of one shortest path (summed
# from either end) differ from the exact test's arithmetic: ~10^6 ulps
# of the session's coordinate scale, far below any deciding distance.
LEMMA1_FILTER_SLACK = 1e-9

# Cells (members x adds) broadcast at a time: a bulk load against a
# large fleet stays within a few MiB of temporaries.
_FILTER_BLOCK_CELLS = 1 << 20


class Lemma1Bound(NamedTuple):
    """The ``p``-independent half of one session's Lemma-1 test: one
    enclosing ball per member and the threshold they are held against.

    In the plane the balls are ``circles``.  On a road network they are
    network balls measured along ``oracle``'s distance rows: member
    ``i`` is within ``rhos[i]`` of a position ``offsets[k]`` away from
    node ``anchors[k]``, over its ``spans[i]`` consecutive anchors ``k``.
    Neither kind filled in means no bound.
    """

    circles: tuple[float, ...]  # (cx, cy, rho) per member, flat
    limit: float  # the hoisted threshold, slack included
    is_sum: bool
    oracle: Optional[object] = None  # the network's DistanceOracle
    anchors: tuple[int, ...] = ()
    offsets: tuple[float, ...] = ()
    spans: tuple[int, ...] = ()
    rhos: tuple[float, ...] = ()


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
        """Enclosing balls plus the threshold ``region_valid_against``
        re-derives per call.

        Euclidean regions are bounded by circles; a region that is not
        one hands the session to :func:`_network_lemma1_bound`.
        ``_NO_BOUND`` when a region has neither kind of enclosure
        (custom / opaque regions, or a mix) or there is no result yet.
        """
        circles: list[float] = []
        for region in self.regions:
            circle = _bounding_circle(region)
            if circle is None:
                return _network_lemma1_bound(self)
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


def _network_lemma1_bound(session: ServiceSession) -> Lemma1Bound:
    """:meth:`ServiceSession.compute_lemma1_bound` for road-network
    regions, which say so themselves: ``region.enclosing_ball()`` is
    ``(oracle, [(anchor node id, offset), ...], rho)``, or ``None`` when
    the region has no enclosure to offer.  ``_NO_BOUND`` when a region
    lacks the accessor or declines, has no anchor, the oracles differ,
    or ``po`` is not a node of the oracle's graph.
    """
    oracle = None
    anchors: list[int] = []
    offsets: list[float] = []
    spans: list[int] = []
    rhos: list[float] = []
    for region in session.regions:
        enclosing = getattr(region, "enclosing_ball", None)
        ball = None if enclosing is None else enclosing()
        if not (ball and ball[1]) or (oracle is not None and ball[0] is not oracle):
            return _NO_BOUND
        oracle, ball_anchors, rho = ball
        for node_id, d0 in ball_anchors:
            anchors.append(node_id)
            offsets.append(d0)
        spans.append(len(ball_anchors))
        rhos.append(rho)
    po = session.po
    if po not in oracle.node_id:
        return _NO_BOUND
    is_sum = session.policy.objective is Aggregate.SUM
    # As above: the exact tests' own expressions, hoisted.
    thr = (sum if is_sum else max)(r.max_dist(po) for r in session.regions)
    scale = thr + sum(offsets) + sum(rhos)
    return Lemma1Bound(
        (),
        thr + LEMMA1_FILTER_SLACK * scale,
        is_sum,
        oracle,
        tuple(anchors),
        tuple(offsets),
        tuple(spans),
        tuple(rhos),
    )


def _euclidean_lower(
    bounds: Sequence[Lemma1Bound], points: Sequence[Point]
) -> Iterator[tuple[int, np.ndarray]]:
    """``(lo, lower)`` blocks of ``lower[m, j] = ||p_{lo+j}, c_m|| - rho_m``."""
    flat = np.fromiter(chain.from_iterable(b.circles for b in bounds), float)
    cx, cy, rho = flat.reshape(-1, 3).T[:, :, None]
    px, py = np.array([(p.x, p.y) for p in points]).T
    step = max(1, _FILTER_BLOCK_CELLS // len(rho))
    for lo in range(0, len(points), step):
        yield lo, np.hypot(px[lo : lo + step] - cx, py[lo : lo + step] - cy) - rho


def _network_lower(
    bounds: Sequence[Lemma1Bound], points: Sequence[Point]
) -> Iterator[tuple[int, np.ndarray]]:
    """``(lo, lower)`` blocks of ``lower[m, j] = min_k(d0_k + d(p_{lo+j},
    anchor_k)) - rho_m`` over member ``m``'s anchors ``k``.

    The distances come from the add nodes' own rows — one
    :meth:`DistanceOracle.rows` gather per block, one block unless
    ``adds x max(members, graph nodes)`` passes the cell budget — never
    from a per-session lookup.  A point that is not a graph node gets a
    NaN column, which the caller keeps as a suspect for every session.
    """
    oracle = bounds[0].oracle
    anchors = np.fromiter(chain.from_iterable(b.anchors for b in bounds), np.intp)
    d0 = np.fromiter(chain.from_iterable(b.offsets for b in bounds), float)
    rho = np.fromiter(chain.from_iterable(b.rhos for b in bounds), float)
    spans = chain.from_iterable(b.spans for b in bounds)
    firsts = list(accumulate(spans, initial=0))[:-1]
    ids = [oracle.node_id.get(p) for p in points]
    step = max(1, _FILTER_BLOCK_CELLS // max(len(rho), oracle.node_count()))
    for lo in range(0, len(points), step):
        block = ids[lo : lo + step]
        rows = oracle.rows([i for i in block if i is not None])
        to_anchor = np.array(
            [
                np.full(len(anchors), np.nan) if i is None else rows[i][anchors]
                for i in block
            ]
        )
        nearest = np.minimum.reduceat(to_anchor + d0, firsts, axis=1)
        yield lo, (nearest - rho).T


def lemma1_suspects(
    sessions: Sequence[ServiceSession], points: Sequence[Point]
) -> list[Sequence[int]]:
    """Per session, the indices of ``points`` the exact test must see.

    The exact test fails ``p`` only when every member's ``min_dist(p)``
    is below ``thr = dominant_max(po, R)`` (MAX), or their sum is below
    ``thr = sum_i max_dist(po, Ri)`` (SUM).  A ball ``(c, rho)``
    containing a region gives ``||p, c|| - rho <= min_dist(p)`` in any
    metric, so every such ``p`` also has ``||p, c|| - rho <= thr`` for
    every member (MAX) / ``sum_i max(||p, c|| - rho, 0) <= thr`` (SUM).
    That weaker condition, with ``thr`` padded by
    :data:`LEMMA1_FILTER_SLACK`, is evaluated here in one NumPy
    broadcast of members x points per metric — ``np.hypot`` in the
    plane, the add nodes' oracle rows gathered at the members' anchors
    on a road network: it may keep a harmless pair but never drops one
    the exact test would fail.  A session without a bound keeps every
    index; a bounded one keeps its survivors in ascending order.  Stale
    bounds are refilled here, which is also where a session's kind is
    decided.
    """
    if not points:  # a removes-only batch: leave stale bounds stale
        return [()] * len(sessions)
    out: list[Sequence[int]] = []
    # Bounded sessions as (positions in ``out``, bounds): those in the
    # plane, and those on a road network by the oracle that measures it.
    plane: tuple[list[int], list[Lemma1Bound]] = ([], [])
    roads: dict[object, tuple[list[int], list[Lemma1Bound]]] = {}
    for session in sessions:
        bound = session.lemma1_bound
        if bound is None:
            bound = session.lemma1_bound = session.compute_lemma1_bound()
        if bound.circles:
            slots, bounds = plane
        elif bound.rhos:
            slots, bounds = roads.get(bound.oracle) or roads.setdefault(
                bound.oracle, ([], [])
            )
        else:
            out.append(range(len(points)))
            continue
        slots.append(len(out))
        bounds.append(bound)
        out.append([])
    slots, bounds = plane
    if bounds:
        sizes = [len(b.circles) // 3 for b in bounds]
        _sift(out, slots, bounds, sizes, _euclidean_lower(bounds, points))
    for slots, bounds in roads.values():
        sizes = [len(b.rhos) for b in bounds]
        _sift(out, slots, bounds, sizes, _network_lower(bounds, points))
    return out


def _sift(
    out: list[Sequence[int]],
    slots: Sequence[int],
    bounds: Sequence[Lemma1Bound],
    sizes: Sequence[int],
    blocks: Iterator[tuple[int, np.ndarray]],
) -> None:
    """Append to ``out[slots[s]]`` the columns of ``blocks`` that session
    ``s`` cannot clear: its ``sizes[s]`` member rows of each ``lower``
    block reduced by the MAX / SUM rule and held against its limit."""
    starts = list(accumulate(sizes[:-1], initial=0))
    limit = np.array([b.limit for b in bounds])[:, None]
    is_sum = np.array([b.is_sum for b in bounds])[:, None]
    any_sum = is_sum.any()
    for lo, lower in blocks:
        worst = np.maximum.reduceat(lower, starts, axis=0)
        if any_sum:
            total = np.add.reduceat(np.maximum(lower, 0.0), starts, axis=0)
            worst = np.where(is_sum, total, worst)
        # "not >" rather than "<=": a NaN distance stays a suspect.
        rows, cols = np.nonzero(~(worst > limit))
        for row, col in zip(rows.tolist(), cols.tolist()):
            out[slots[row]].append(lo + col)
