"""Tile-MSR on road networks: recursive partitions of road segments.

Section 8: "For Tile, we may replace recursive tiles by recursive
partitions of the road network."  The Euclidean machinery transfers
almost unchanged because the core results are metric-agnostic:

* Lemma 1 (conservative verification) holds in any metric;
* the exact tile-verification procedure of
  :mod:`repro.core.gt_verify` consumes only per-unit
  ``(||po, unit||_max, ||p, unit||_min)`` pairs — here the units are
  edge *intervals* instead of square tiles
  (:func:`repro.core.gt_verify._exact_from_pairs` is reused verbatim);
* Theorem 3's candidate pruning only needs the triangle inequality.

The region model: per-user sets of disjoint intervals on edges.  The
seed region is the network ball of the network Circle-MSR radius
(valid by the metric version of Theorem 1); growth proceeds in
breadth-first order over frontier edges, and an interval failing
verification is halved recursively up to ``split_level`` times — the
"recursive partition" of the paper's sketch.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Hashable, Sequence

from repro.core.gt_verify import _exact_from_pairs
from repro.core.types import SafeRegionStats
from repro.gnn.aggregate import Aggregate
from repro.index.oracle import oracle_for
from repro.network_ext.circle_msr import network_circle_msr
from repro.network_ext.space import NetworkPosition, NetworkSpace


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

    def intervals(self) -> list[EdgeInterval]:
        out = []
        for (u, v), spans in self._intervals.items():
            out.extend(EdgeInterval(u, v, lo, hi) for lo, hi in spans)
        return out

    def covered_length(self) -> float:
        return sum(hi - lo for spans in self._intervals.values() for lo, hi in spans)

    def _anchor_dist_to_node(self, node: Hashable) -> float:
        return min(d0 + m.get(node, float("inf")) for d0, m in self._anchor_maps)

    def _interval_extremes(
        self, dist_u: float, dist_v: float, interval: EdgeInterval
    ) -> tuple[float, float]:
        """(min, max) of ``x -> min(dist_u + x, dist_v + L - x)`` over
        the interval, where ``L`` is the full edge length."""
        length = self.space.edge_length(interval.u, interval.v)

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

    def dist_pair_to_node(
        self, node: Hashable, node_dist_map: dict
    ) -> tuple[float, float]:
        """(min_dist, max_dist) from ``node`` to the whole region."""
        if not self._intervals:
            d = self._anchor_dist_to_node(node)
            return d, d
        low = float("inf")
        high = 0.0
        for (u, v), spans in self._intervals.items():
            du = node_dist_map.get(u, float("inf"))
            dv = node_dist_map.get(v, float("inf"))
            for lo, hi in spans:
                l, h = self._interval_extremes(du, dv, EdgeInterval(u, v, lo, hi))
                low = min(low, l)
                high = max(high, h)
        return low, high

    def interval_pairs_to_node(self, node_dist_map: dict) -> list[tuple[float, float]]:
        """Per-interval (min, max) distances — the units for verification."""
        out = []
        for (u, v), spans in self._intervals.items():
            du = node_dist_map.get(u, float("inf"))
            dv = node_dist_map.get(v, float("inf"))
            for lo, hi in spans:
                out.append(
                    self._interval_extremes(du, dv, EdgeInterval(u, v, lo, hi))
                )
        return out

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
        # Maintain r_up: the anchor's max distance into the region.
        du = self._anchor_dist_to_node(u)
        dv = self._anchor_dist_to_node(v)
        _, high = self._interval_extremes(du, dv, EdgeInterval(u, v, lo, hi))
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


def _interval_min_dist_diff(
    a_u: float,
    a_v: float,
    b_u: float,
    b_v: float,
    interval: EdgeInterval,
    length: float,
) -> float:
    """Min of ``d(p', x) - d(po, x)`` over an edge interval.

    With ``a`` the distance map of ``p'`` and ``b`` that of ``po``,
    both terms are min-of-two-lines in the offset ``x``; their
    difference is piecewise linear with breakpoints at the two apexes,
    so the minimum over ``[lo, hi]`` is attained at an interval
    endpoint or a clamped apex (the network analogue of the Euclidean
    hyperbola analysis of Section 6.3.1).
    """

    def f(x: float) -> float:
        return min(a_u + x, a_v + (length - x)) - min(b_u + x, b_v + (length - x))

    candidates = [interval.lo, interval.hi]
    for apex in ((a_v + length - a_u) / 2.0, (b_v + length - b_u) / 2.0):
        if interval.lo < apex < interval.hi:
            candidates.append(apex)
    return min(f(x) for x in candidates)


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
    poi_maps = {q: space.node_distances(q) for q in competitors}
    po_map = space.node_distances(po)

    def verify_interval(user_idx: int, interval: EdgeInterval) -> bool:
        """The metric Lemma 1 / exact verification for one interval."""
        du_po = po_map.get(interval.u, float("inf"))
        dv_po = po_map.get(interval.v, float("inf"))
        _, a = regions[user_idx]._interval_extremes(du_po, dv_po, interval)
        # Theorem 3 pruning, metric form: p is a candidate only if its
        # lower bound can undercut the group's po upper bound.
        top = a
        for j, region in enumerate(regions):
            if j == user_idx:
                continue
            _, high = region.dist_pair_to_node(po, po_map)
            top = max(top, high)
        for q in competitors:
            q_map = poi_maps[q]
            du_q = q_map.get(interval.u, float("inf"))
            dv_q = q_map.get(interval.v, float("inf"))
            b, _ = regions[user_idx]._interval_extremes(du_q, dv_q, interval)
            stats.point_checks += 1
            per_user = []
            for j, region in enumerate(regions):
                if j == user_idx:
                    continue
                pairs = [
                    (pa, pb)
                    for (_, pa), (pb, _) in zip(
                        region.interval_pairs_to_node(po_map),
                        region.interval_pairs_to_node(q_map),
                    )
                ]
                if not pairs:
                    d_po = region._anchor_dist_to_node(po)
                    d_q = region._anchor_dist_to_node(q)
                    pairs = [(d_po, d_q)]
                per_user.append(pairs)
            stats.tile_verifications += 1
            if not _exact_from_pairs(per_user, a, b):
                return False
        return True

    def region_min_dist_diff(
        region: NetworkTileRegion, q: Hashable, q_map: dict
    ) -> float:
        """Min of ``d(q, l) - d(po, l)`` over a whole region (Alg. 6)."""
        intervals = region.intervals()
        if not intervals:
            return region._anchor_dist_to_node(q) - region._anchor_dist_to_node(po)
        best = float("inf")
        for iv in intervals:
            length = space.edge_length(iv.u, iv.v)
            best = min(
                best,
                _interval_min_dist_diff(
                    q_map.get(iv.u, float("inf")),
                    q_map.get(iv.v, float("inf")),
                    po_map.get(iv.u, float("inf")),
                    po_map.get(iv.v, float("inf")),
                    iv,
                    length,
                ),
            )
        return best

    def sum_verify_interval(user_idx: int, interval: EdgeInterval) -> bool:
        """The SUM objective: sum of per-user minima must stay >= 0."""
        length = space.edge_length(interval.u, interval.v)
        others = [j for j in range(len(regions)) if j != user_idx]
        for q in competitors:
            q_map = poi_maps[q]
            stats.point_checks += 1
            stats.tile_verifications += 1
            total = _interval_min_dist_diff(
                q_map.get(interval.u, float("inf")),
                q_map.get(interval.v, float("inf")),
                po_map.get(interval.u, float("inf")),
                po_map.get(interval.v, float("inf")),
                interval,
                length,
            )
            for j in others:
                total += region_min_dist_diff(regions[j], q, q_map)
            if total < 0.0:
                return False
        return True

    def divide_verify(user_idx: int, interval: EdgeInterval, level: int) -> bool:
        if interval.length <= 1e-9:
            return False
        check = (
            verify_interval if objective is Aggregate.MAX else sum_verify_interval
        )
        if check(user_idx, interval):
            regions[user_idx].add(interval)
            stats.tiles_added += 1
            return True
        if level > 0:
            left, right = interval.halves()
            added_left = divide_verify(user_idx, left, level - 1)
            added_right = divide_verify(user_idx, right, level - 1)
            return added_left or added_right
        stats.tiles_rejected += 1
        return False

    # Frontier growth in increasing network distance from each user.
    max_reach = radius * config.max_radius_factor
    for i, user in enumerate(users):
        frontier: list[tuple[float, int, Hashable, Hashable]] = []
        counter = 0
        seen: set[tuple[Hashable, Hashable]] = set()
        dist_maps = [(d0, space.node_distances(n)) for n, d0 in space.anchors(user)]

        def user_dist(node: Hashable) -> float:
            return min(d0 + m.get(node, float("inf")) for d0, m in dist_maps)

        for u, v in space.graph.edges:
            cu, cv, _ = _canonical(u, v)
            d = min(user_dist(cu), user_dist(cv))
            if d <= max_reach:
                heapq.heappush(frontier, (d, counter, cu, cv))
                counter += 1
        examined = 0
        while frontier and examined < config.alpha:
            _, _, u, v = heapq.heappop(frontier)
            if (u, v) in seen:
                continue
            seen.add((u, v))
            length = space.edge_length(u, v)
            covered = regions[i]._intervals.get((u, v), [])
            # Uncovered gaps on this edge are the candidate units.
            gaps = []
            cursor = 0.0
            for lo, hi in covered:
                if lo > cursor + 1e-12:
                    gaps.append((cursor, lo))
                cursor = max(cursor, hi)
            if cursor < length - 1e-12:
                gaps.append((cursor, length))
            if not gaps:
                continue
            examined += 1
            for lo, hi in gaps:
                divide_verify(i, EdgeInterval(u, v, lo, hi), config.split_level)

    return NetworkTileResult(po, seed.po_dist, radius, regions, objective, stats)
