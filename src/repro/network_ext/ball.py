"""Network balls: range-search regions over road segments.

The network analogue of the circular safe region: all positions within
network distance ``r`` of a center.  Read as per-edge coverage: for
edge ``(u, v)`` of length ``L``, the covered set is the union of a
prefix ``[0, cover_u]`` (reached via ``u``) and a suffix
``[L - cover_v, L]`` (reached via ``v``), where ``cover_u = max(0,
r - d(c, u))``.  This is exactly the "range search region over road
segments" the paper's conclusion sketches.

Cost model: construction is a few array passes over the anchor rows of
the space's shared :class:`~repro.index.oracle.DistanceOracle` (bounded
rows at city scale); coverage, the wire size and containment then walk
only the covered nodes' incident edges in the oracle's edge table —
O(covered), whatever the size of the graph.
"""

from __future__ import annotations

from typing import Hashable, Optional

import numpy as np

from repro.index.oracle import oracle_for, padded_cutoff
from repro.network_ext.space import NetworkPosition, NetworkSpace

_INF = float("inf")


class NetworkBall:
    """The set of network positions within distance ``r`` of ``center``,
    held as ``{node id: exact distance}`` for the nodes within the
    radius only."""

    def __init__(
        self,
        space: NetworkSpace,
        center: NetworkPosition,
        radius: float,
        row: Optional[np.ndarray] = None,
    ):
        """``row``, when the caller already holds it, is the center's
        exact anchor-combined distance row
        (:meth:`repro.index.network.NetworkIndex.user_node_distances`)
        — the very array the loop below would build from full rows, so
        it is used as is.  With bounded rows engaged it is ignored and
        the ball settles its own radius, as without it."""
        if radius < 0.0:
            raise ValueError("negative radius")
        self.space = space
        self.center = center
        self.radius = radius
        oracle = self._oracle = oracle_for(space)
        self._anchors = [
            (oracle.node_id[node], d0) for node, d0 in space.anchors(center)
        ]
        # min over anchors of ``d0 + row``.  A bounded row (early-exit
        # Dijkstra, cutoff padded so rounded boundary sums never fall
        # out) holds every target whose anchor total stays within the
        # radius, so either kind of row makes each value <= radius the
        # exact min over all anchors — and only those are kept.
        bounded = oracle.bounded_active
        dist = None if bounded else row
        if dist is None:
            for anchor, d0 in self._anchors:
                if bounded:
                    full = oracle.bounded_row(anchor, padded_cutoff(radius, d0))
                else:
                    full = oracle.row(anchor)
                total = d0 + full
                dist = total if dist is None else np.minimum(dist, total)
        inside = np.nonzero(dist <= radius)[0]
        self._dist: dict[int, float] = dict(
            zip(inside.tolist(), dist[inside].tolist())
        )

    def node_distance(self, node: Hashable) -> float:
        """Exact center-to-node distance.

        Nodes beyond the radius are not materialized: they are resolved
        from the oracle's full anchor rows on demand and memoized next
        to the rest (coverage ignores anything beyond the radius, so
        the extra entries change no other answer).
        """
        i = self._oracle.node_id.get(node)
        if i is None:
            return _INF
        d = self._dist.get(i)
        if d is None:
            d = self._dist[i] = min(
                d0 + float(self._oracle.row(anchor)[i])
                for anchor, d0 in self._anchors
            )
        return d

    def enclosing_ball(self) -> tuple[object, list[tuple[int, float]], float]:
        """``(oracle, [(anchor node id, offset), ...], radius)``: a ball
        is its own enclosure.  Read by the churn sweep's Lemma-1 filter
        (:func:`repro.service.session.lemma1_suspects`), which bounds
        ``min_dist`` from the *add's* distance row instead of asking
        every ball for :meth:`node_distance`."""
        return self._oracle, self._anchors, self.radius

    def _cover(self, node: Hashable) -> float:
        """``radius - distance`` as far as materialized: anything beyond
        the radius (or absent) covers zero length either way, so
        coverage never pays the exact fallback."""
        return self.radius - self._dist.get(self._oracle.node_id.get(node), _INF)

    def edge_coverage(self, u: Hashable, v: Hashable) -> tuple[float, float]:
        """(cover_u, cover_v): covered prefix/suffix lengths of (u, v)."""
        length = self.space.edge_length(u, v)
        cover_u = max(0.0, min(length, self._cover(u)))
        cover_v = max(0.0, min(length, self._cover(v)))
        return cover_u, cover_v

    def _target_distance(self, target) -> float:
        """Center-to-target distance; ``target`` is a node or position."""
        if isinstance(target, NetworkPosition):
            return self.space.distance(self.center, target)
        return self.node_distance(target)

    def min_dist(self, target) -> float:
        """``||target, R||_min``, exact: the nearest ball position lies
        on the shortest target-center path, ``radius`` short of it."""
        return max(0.0, self._target_distance(target) - self.radius)

    def max_dist(self, target) -> float:
        """``||target, R||_max`` upper bound (triangle inequality).

        An overestimate is conservative for Lemma 1: it can only make
        the verification fail more often, never accept a stale result.
        """
        return self._target_distance(target) + self.radius

    def contains_point(self, pos: NetworkPosition, eps: float = 0.0) -> bool:
        """Region-protocol alias for :meth:`contains`."""
        return self.contains(pos, eps)

    def contains(self, pos: NetworkPosition, eps: float = 1e-9) -> bool:
        """Is ``pos`` within network distance ``radius`` of the center?

        Decided from the materialized coverage (plus the same-edge
        shortcut when ``pos`` shares the center's edge), not by a fresh
        shortest-path query.
        """
        if pos.node is not None:
            return self.node_distance(pos.node) <= self.radius + eps
        u, v = pos.edge
        length = self.space.edge_length(u, v)
        cover_u, cover_v = self.edge_coverage(u, v)
        if pos.offset <= cover_u + eps or (length - pos.offset) <= cover_v + eps:
            return True
        if self.center.edge is not None:
            ce = self.center.edge
            if ce == pos.edge or ce == (v, u):
                off = pos.offset if ce == pos.edge else length - pos.offset
                if abs(off - self.center.offset) <= self.radius + eps:
                    return True
        return False

    def _covered_edges(self) -> list[int]:
        """Edge-table indices, ascending, of the edges with an endpoint
        strictly inside the radius: those nodes' incident edges."""
        incident = self._oracle.incident_edges
        touched: set[int] = set()
        for i, d in self._dist.items():
            if d < self.radius:
                touched.update(incident(i))
        return sorted(touched)

    def covered_segments(self) -> list[tuple[Hashable, Hashable, float, float]]:
        """Every edge covered from an endpoint, as (u, v, cover_u, cover_v)
        in the graph's edge order.

        This is the wire representation: the server would ship these
        interval endpoints to the client (2 values per touched edge
        plus edge ids), replacing the 3-value circle of the Euclidean
        setting.  An edge whose interior holds the center while both
        endpoints lie beyond the radius has no endpoint coverage and is
        not listed; :meth:`contains` answers it through the same-edge
        shortcut.
        """
        oracle = self._oracle
        out = []
        for e in self._covered_edges():
            u = oracle.nodes[oracle.edge_u[e]]
            v = oracle.nodes[oracle.edge_v[e]]
            out.append((u, v, *self.edge_coverage(u, v)))
        return out

    def wire_values(self) -> int:
        """Payload size in doubles for the packet model of Section 7.1."""
        # Edge id pair packed into one value + two interval endpoints.
        return 3 * len(self._covered_edges()) + 1  # +1 for the radius
