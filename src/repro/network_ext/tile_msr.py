"""Tile-MSR on road networks: recursive partitions of road segments.

Section 8: "For Tile, we may replace recursive tiles by recursive
partitions of the road network."  Algorithm 3 is core's
(:func:`repro.core.tile_msr.grow_regions`: the driver, Divide-Verify,
the candidate loop and the counters); this module supplies the road
side.  The unit is an edge *interval*, halved when it fails, whose
``(||po, unit||_max, ||p, unit||_min)`` pairs feed the exact
verification (Lemma 1 holds in any metric) and whose distance-difference
minima feed Sum-GT-Verify.  The region is a set of disjoint intervals
per edge, seeded with the network ball of the Circle-MSR radius (the
metric Theorem 1); the ordering is the distance-ordered edge frontier.

Still unlike the Euclidean Tile-MSR: turns are sequential (a user
examines up to ``alpha`` edges before the next starts), there is no
Tile-D-b buffer, and every competitor POI is verified (no Theorem 3/6
pruning).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Hashable, Sequence

from repro.core.gt_verify import MaxVerifier
from repro.core.sum_verify import SumVerifier
from repro.core.tile_msr import grow_regions
from repro.core.types import SafeRegionStats
from repro.gnn.aggregate import Aggregate
from repro.index.oracle import oracle_for
from repro.network_ext.circle_msr import network_circle_msr
from repro.network_ext.space import NetworkPosition, NetworkSpace

# An interval no longer than this is never verified: Divide-Verify's
# split leaves such halves out, and the frontier such gaps.
_DEGENERATE = 1e-9


def _canonical(u: Hashable, v: Hashable) -> tuple[Hashable, Hashable, bool]:
    """Stable edge orientation: (a, b, flipped) with a <= b by repr."""
    if repr(u) <= repr(v):
        return u, v, False
    return v, u, True


@dataclass
class EdgeInterval:
    """A closed interval ``[lo, hi]`` along canonical edge ``(u, v)``."""

    u: Hashable
    v: Hashable
    lo: float
    hi: float

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError("empty interval")

    @property
    def length(self) -> float:
        return self.hi - self.lo

    def halves(self) -> tuple["EdgeInterval", "EdgeInterval"]:
        mid = (self.lo + self.hi) / 2.0
        return (
            EdgeInterval(self.u, self.v, self.lo, mid),
            EdgeInterval(self.u, self.v, mid, self.hi),
        )

    def split(self) -> list["EdgeInterval"]:
        """Divide-Verify's split: the halves long enough to verify."""
        return [half for half in self.halves() if half.length > _DEGENERATE]


class NetworkTileRegion:
    """A safe region as disjoint covered intervals over road edges."""

    def __init__(self, space: NetworkSpace, anchor: NetworkPosition):
        self.space = space
        self.anchor = anchor
        self._intervals: dict[tuple[Hashable, Hashable], list[tuple[float, float]]] = {}
        self._anchor_maps = [
            (d0, space.node_distances(node)) for node, d0 in space.anchors(anchor)
        ]
        self.r_up = 0.0
        # Bumped by every :meth:`add`; the verifiers' per-competitor
        # memos are valid for one version.
        self.version = 0

    def intervals(self) -> list[EdgeInterval]:
        out = []
        for (u, v), spans in self._intervals.items():
            out.extend(EdgeInterval(u, v, lo, hi) for lo, hi in spans)
        return out

    def covered_length(self) -> float:
        return sum(hi - lo for spans in self._intervals.values() for lo, hi in spans)

    def _anchor_dist_to_node(self, node: Hashable) -> float:
        return min(d0 + m.get(node, float("inf")) for d0, m in self._anchor_maps)

    def uncovered(self, u: Hashable, v: Hashable) -> list[tuple[float, float]]:
        """The gaps of canonical edge ``(u, v)`` wider than 1e-12."""
        length = self.space.edge_length(u, v)
        gaps = []
        cursor = 0.0
        for lo, hi in self._intervals.get((u, v), []):
            if lo > cursor + 1e-12:
                gaps.append((cursor, lo))
            cursor = max(cursor, hi)
        if cursor < length - 1e-12:
            gaps.append((cursor, length))
        return gaps

    def dist_pair_to_node(
        self, node: Hashable, node_dist_map: dict
    ) -> tuple[float, float]:
        """(min_dist, max_dist) from ``node`` to the whole region."""
        if not self._intervals:
            d = self._anchor_dist_to_node(node)
            return d, d
        pairs = [_row_extremes(self.space, node_dist_map, iv) for iv in self.intervals()]
        return min(low for low, _ in pairs), max(0.0, *(high for _, high in pairs))

    def add(self, interval: EdgeInterval) -> None:
        u, v, flipped = _canonical(interval.u, interval.v)
        length = self.space.edge_length(u, v)
        lo, hi = interval.lo, interval.hi
        if flipped:
            lo, hi = length - interval.hi, length - interval.lo
        spans = self._intervals.setdefault((u, v), [])
        spans.append((lo, hi))
        spans.sort()
        # Merge overlapping/adjacent spans.
        merged: list[tuple[float, float]] = []
        for s_lo, s_hi in spans:
            if merged and s_lo <= merged[-1][1] + 1e-12:
                merged[-1] = (merged[-1][0], max(merged[-1][1], s_hi))
            else:
                merged.append((s_lo, s_hi))
        self._intervals[(u, v)] = merged
        self.version += 1
        # Maintain r_up: the anchor's max distance into the region.
        du = self._anchor_dist_to_node(u)
        dv = self._anchor_dist_to_node(v)
        _, high = _extremes(du, dv, length, EdgeInterval(u, v, lo, hi))
        self.r_up = max(self.r_up, high)

    def enclosing_ball(self) -> tuple[object, list[tuple[int, float]], float]:
        """``(oracle, [(anchor node id, offset), ...], r_up)``: the
        network ball of radius ``r_up`` around ``anchor`` contains the
        region, which is what the churn sweep's Lemma-1 filter
        (:func:`repro.service.session.lemma1_suspects`) needs.

        :meth:`add` raises ``r_up`` to the largest endpoint-routed
        distance ``min(d(anchor, u) + x, d(anchor, v) + L - x)`` over
        every interval it takes; the true distance is never above that
        (an anchor on the interval's own edge also has the direct path,
        which only shortens it), so every covered point is within
        ``r_up``.  An empty region measures from the anchor itself
        (:meth:`dist_pair_to_node`) — the ball of radius 0.  Both cases
        are therefore bounded, not declined.
        """
        oracle = oracle_for(self.space)
        anchors = [
            (oracle.node_id[node], d0) for node, d0 in self.space.anchors(self.anchor)
        ]
        return oracle, anchors, self.r_up

    def min_dist(self, target) -> float:
        """``||target, R||_min`` for a node target (Region protocol)."""
        return self._bounds_to_node(target)[0]

    def max_dist(self, target) -> float:
        """``||target, R||_max`` for a node target (Region protocol)."""
        return self._bounds_to_node(target)[1]

    def _bounds_to_node(self, target) -> tuple[float, float]:
        if isinstance(target, NetworkPosition):
            if target.node is None:
                raise ValueError("tile-region distance bounds need a node target")
            target = target.node
        return self.dist_pair_to_node(target, self.space.node_distances(target))

    def contains_point(self, pos: NetworkPosition, eps: float = 0.0) -> bool:
        """Region-protocol alias for :meth:`contains`."""
        return self.contains(pos, eps)

    def contains(self, pos: NetworkPosition, eps: float = 1e-9) -> bool:
        if pos.node is not None:
            for (u, v), spans in self._intervals.items():
                length = self.space.edge_length(u, v)
                for lo, hi in spans:
                    if pos.node == u and lo <= eps:
                        return True
                    if pos.node == v and hi >= length - eps:
                        return True
            return False
        u, v, flipped = _canonical(*pos.edge)
        spans = self._intervals.get((u, v), [])
        length = self.space.edge_length(u, v)
        off = pos.offset if not flipped else length - pos.offset
        return any(lo - eps <= off <= hi + eps for lo, hi in spans)

    def sample(self, rng) -> NetworkPosition:
        intervals = self.intervals()
        if not intervals:
            return self.anchor
        weights = [max(iv.length, 1e-12) for iv in intervals]
        total = sum(weights)
        pick = rng.uniform(0.0, total)
        acc = 0.0
        for iv, w in zip(intervals, weights):
            acc += w
            if pick <= acc:
                return NetworkPosition.on_edge(
                    iv.u, iv.v, rng.uniform(iv.lo, iv.hi)
                )
        iv = intervals[-1]
        return NetworkPosition.on_edge(iv.u, iv.v, rng.uniform(iv.lo, iv.hi))

    def wire_values(self) -> int:
        """Wire size: one packed edge id + two endpoints per interval."""
        return 3 * sum(len(s) for s in self._intervals.values()) + 1


@dataclass
class NetworkTileConfig:
    """Growth parameters (the network analogue of TileMSRConfig)."""

    alpha: int = 20  # frontier edges examined per user
    split_level: int = 2  # recursive halvings of a failing interval
    max_radius_factor: float = 8.0  # growth cap, in units of the seed radius

    def __post_init__(self) -> None:
        if self.alpha < 1:
            raise ValueError("alpha must be >= 1")
        if self.split_level < 0:
            raise ValueError("split_level must be >= 0")


@dataclass
class NetworkTileResult:
    po: Hashable
    po_dist: float
    radius: float
    regions: list[NetworkTileRegion]
    objective: Aggregate
    stats: SafeRegionStats = field(default_factory=SafeRegionStats)




def _extremes(
    dist_u: float, dist_v: float, length: float, interval: EdgeInterval
) -> tuple[float, float]:
    """(min, max) of ``x -> min(dist_u + x, dist_v + length - x)`` over
    the interval, where ``length`` is the full edge length."""

    def value(x: float) -> float:
        return min(dist_u + x, dist_v + (length - x))

    lo_val = value(interval.lo)
    hi_val = value(interval.hi)
    low = min(lo_val, hi_val)
    high = max(lo_val, hi_val)
    # The two lines cross at the apex — a local maximum.
    apex = (dist_v + length - dist_u) / 2.0
    if interval.lo < apex < interval.hi:
        high = max(high, (dist_u + dist_v + length) / 2.0)
    return low, high


def _row_extremes(
    space: NetworkSpace, row, interval: EdgeInterval
) -> tuple[float, float]:
    """(min, max) distance from a distance row's source to the interval."""
    inf = float("inf")
    return _extremes(
        row.get(interval.u, inf),
        row.get(interval.v, inf),
        space.edge_length(interval.u, interval.v),
        interval,
    )


def _interval_min_dist_diff(
    space: NetworkSpace, p_row, po_row, interval: EdgeInterval
) -> float:
    """Min of ``d(p', x) - d(po, x)`` over an edge interval.

    With ``a`` the distance row of ``p'`` and ``b`` that of ``po``,
    both terms are min-of-two-lines in the offset ``x``; their
    difference is piecewise linear with breakpoints at the two apexes,
    so the minimum over ``[lo, hi]`` is attained at an interval
    endpoint or a clamped apex (the network analogue of the Euclidean
    hyperbola analysis of Section 6.3.1).
    """
    inf = float("inf")
    a_u, a_v = p_row.get(interval.u, inf), p_row.get(interval.v, inf)
    b_u, b_v = po_row.get(interval.u, inf), po_row.get(interval.v, inf)
    length = space.edge_length(interval.u, interval.v)

    def f(x: float) -> float:
        return min(a_u + x, a_v + (length - x)) - min(b_u + x, b_v + (length - x))

    candidates = [interval.lo, interval.hi]
    for apex in ((a_v + length - a_u) / 2.0, (b_v + length - b_u) / 2.0):
        if interval.lo < apex < interval.hi:
            candidates.append(apex)
    return min(f(x) for x in candidates)


class _IntervalMaxVerifier(MaxVerifier):
    """Core's exact MAX verification, with edge intervals as units.

    A user's pairs against one competitor are memoized per region
    version: merged spans are not append-only, so core's watermark memo
    cannot apply, but a region is unchanged while the other users grow.
    """

    def __init__(self, space: NetworkSpace, rows: dict, po: Hashable):
        super().__init__(po, "exact")
        self.space, self.rows = space, rows
        # (user_idx, p) -> (region version, pairs)
        self._version_memo: dict[tuple[int, Hashable], tuple[int, list[tuple[float, float]]]] = {}

    def _unit_pair(self, s: EdgeInterval, p: Hashable) -> tuple[float, float]:
        return (
            _row_extremes(self.space, self.rows[self.po], s)[1],
            _row_extremes(self.space, self.rows[p], s)[0],
        )

    def _pairs(
        self, region: NetworkTileRegion, user_idx: int, p: Hashable
    ) -> list[tuple[float, float]]:
        version, pairs = self._version_memo.get((user_idx, p), (-1, []))
        if version != region.version:
            intervals = region.intervals()
            if intervals:
                pairs = [self._unit_pair(iv, p) for iv in intervals]
            else:
                anchor_dist = region._anchor_dist_to_node
                pairs = [(anchor_dist(self.po), anchor_dist(p))]
            self._version_memo[(user_idx, p)] = (region.version, pairs)
        return pairs


class _IntervalSumVerifier(SumVerifier):
    """Core's Sum-GT-Verify, with edge intervals as units; a user's
    minimum against one competitor is memoized per region version, as
    in :class:`_IntervalMaxVerifier`."""

    def __init__(self, space: NetworkSpace, rows: dict, po: Hashable):
        super().__init__(po)
        self.space, self.rows = space, rows
        # (user_idx, p) -> (region version, min F)
        self._version_memo: dict[tuple[int, Hashable], tuple[int, float]] = {}

    def _unit_min_f(self, s: EdgeInterval, p: Hashable) -> float:
        return _interval_min_dist_diff(self.space, self.rows[p], self.rows[self.po], s)

    def _user_min_f(
        self, region: NetworkTileRegion, user_idx: int, p: Hashable
    ) -> float:
        version, value = self._version_memo.get((user_idx, p), (-1, 0.0))
        if version != region.version:
            intervals = region.intervals()
            if intervals:
                value = min(self._unit_min_f(iv, p) for iv in intervals)
            else:
                anchor_dist = region._anchor_dist_to_node
                value = anchor_dist(p) - anchor_dist(self.po)
            self._version_memo[(user_idx, p)] = (region.version, value)
        return value


class EdgeFrontier:
    """The road network's ordering: the edges within ``max_reach`` of
    the region's anchor, nearest first.

    Its turn rule is sequential: one :meth:`turn` examines up to
    ``alpha`` edges that still have a gap, offering every gap longer
    than the degenerate bound to ``try_unit`` (an edge whose gaps are
    all that short still counts as examined), and then the ordering is
    exhausted, so each user grows fully before the next one starts.
    """

    def __init__(self, region: NetworkTileRegion, alpha: int, max_reach: float):
        self._region = region
        self._alpha = alpha
        self.exhausted = False
        self._heap: list[tuple[float, int, Hashable, Hashable]] = []
        for u, v in region.space.graph.edges:
            cu, cv, _ = _canonical(u, v)
            d = min(region._anchor_dist_to_node(cu), region._anchor_dist_to_node(cv))
            if d <= max_reach:
                heapq.heappush(self._heap, (d, len(self._heap), cu, cv))

    def turn(self, try_unit: Callable[[EdgeInterval], bool]) -> None:
        examined = 0
        while self._heap and examined < self._alpha:
            _, _, u, v = heapq.heappop(self._heap)
            gaps = self._region.uncovered(u, v)
            if gaps:
                examined += 1
                for lo, hi in gaps:
                    if hi - lo > _DEGENERATE:
                        try_unit(EdgeInterval(u, v, lo, hi))
        self.exhausted = True


def network_tile_msr(
    space: NetworkSpace,
    pois: Sequence[Hashable],
    users: Sequence[NetworkPosition],
    config: NetworkTileConfig | None = None,
    objective: Aggregate = Aggregate.MAX,
    index=None,
) -> NetworkTileResult:
    """Recursive-partition safe regions on the road network.

    Supports both objectives: MAX via the metric form of the exact
    tile verification, SUM via the Algorithm 6 decomposition with
    per-interval minima of the piecewise-linear distance difference.
    ``index`` (a :class:`~repro.index.network.NetworkIndex`) answers
    the Circle-MSR seed's two-best GNN through the CSR distance
    kernels instead of the brute-force scan; the verification itself
    reads the same oracle-row distance maps either way.
    """
    if config is None:
        config = NetworkTileConfig()
    stats = SafeRegionStats()

    seed = network_circle_msr(space, pois, users, objective, index=index)
    po = seed.po
    radius = seed.radius
    regions = [NetworkTileRegion(space, u) for u in users]

    if radius == float("inf"):
        # Single POI: the whole network is safe.
        for region in regions:
            for u, v in space.graph.edges:
                region.add(EdgeInterval(u, v, 0.0, space.edge_length(u, v)))
        return NetworkTileResult(po, seed.po_dist, radius, regions, objective, stats)

    # Seed each region with its ball's covered intervals (Theorem 1).
    for region, ball, user in zip(regions, seed.balls, users):
        for u, v, cover_u, cover_v in ball.covered_segments():
            length = space.edge_length(u, v)
            if cover_u + cover_v >= length - 1e-12:
                region.add(EdgeInterval(u, v, 0.0, length))
            else:
                if cover_u > 0.0:
                    region.add(EdgeInterval(u, v, 0.0, cover_u))
                if cover_v > 0.0:
                    region.add(EdgeInterval(u, v, length - cover_v, length))
        if user.edge is not None:
            # Direct coverage along the user's own edge: the endpoint
            # coverage above misses it when the radius is smaller than
            # the distance to both endpoints.
            u, v = user.edge
            length = space.edge_length(u, v)
            lo = max(0.0, user.offset - radius)
            hi = min(length, user.offset + radius)
            region.add(EdgeInterval(u, v, lo, hi))

    competitors = [q for q in pois if q != po]
    rows = {q: space.node_distances(q) for q in [*competitors, po]}
    if objective is Aggregate.MAX:
        verifier = _IntervalMaxVerifier(space, rows, po)
    else:
        verifier = _IntervalSumVerifier(space, rows, po)
    max_reach = radius * config.max_radius_factor
    grow_regions(
        regions,
        [EdgeFrontier(region, config.alpha, max_reach) for region in regions],
        config.alpha,
        config.split_level,
        lambda user_idx, unit: competitors,
        verifier.verify,
        po,
        stats,
    )
    return NetworkTileResult(po, seed.po_dist, radius, regions, objective, stats)
