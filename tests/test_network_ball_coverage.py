"""The array-backed NetworkBall against the whole-graph reference loop.

``NetworkBall`` cuts its node distances out of the shared oracle's
rows and reads coverage off the incident edges of the covered nodes
only.  The implementation it replaced merged per-anchor ``{node:
distance}`` dicts and then tested *every* edge of the graph; that loop
survives here, over a bare :class:`NetworkSpace` (networkx Dijkstra,
no oracle), as the reference the new ball must equal exactly — same
segments in the same order, same floats — in full-row, bounded and
SciPy-less modes.
"""

import random

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.index.oracle import OracleConfig, oracle_for
from repro.network_ext.ball import NetworkBall
from repro.network_ext.space import NetworkPosition, NetworkSpace
from repro.service import MPNService
from repro.simulation import net_circle_policy
from repro.space.network import NetworkPOISpace
from repro.workloads.citygraph import city_graph

INF = float("inf")

SLOW = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def reference_ball(space, center, radius):
    """``(node_dist, segments)`` the way the pre-array ball built them:
    a per-target dict merge over the anchors' full distance maps, then
    one pass over every edge of the graph."""
    node_dist = {}
    for node, d0 in space.anchors(center):
        for target, d in space.node_distances(node).items():
            total = d0 + d
            old = node_dist.get(target)
            if old is None or total < old:
                node_dist[target] = total
    segments = []
    for u, v in space.graph.edges:
        length = space.edge_length(u, v)
        cover_u = max(0.0, min(length, radius - node_dist.get(u, INF)))
        cover_v = max(0.0, min(length, radius - node_dist.get(v, INF)))
        if cover_u > 0.0 or cover_v > 0.0:
            segments.append((u, v, cover_u, cover_v))
    return node_dist, segments


def oracle_space(graph, bounded, scipy):
    """A space whose oracle runs the given mode and kernels."""
    space = NetworkSpace(graph)
    config = OracleConfig(
        alt_mode="off", bounded_mode="on" if bounded else "off"
    )
    hook = None if scipy else (lambda: (None, None))
    oracle_for(space, config, hook)
    assert space.bounded_distances_active == bounded
    return space


def make_graph(kind, size, seed):
    if kind == "grid":
        return NetworkSpace.from_grid(grid_size=size, seed=seed).graph
    return city_graph(grid_size=size + 3, seed=seed)


def centers(space, rng):
    """A node center, an edge-interior center and an edge-end center."""
    nodes = list(space.graph.nodes)
    u, v = rng.choice(list(space.graph.edges))
    return [
        NetworkPosition.at_node(rng.choice(nodes)),
        space.random_position(rng),
        NetworkPosition.on_edge(u, v, space.edge_length(u, v)),
    ]


def radii(space, node_dist, rng):
    """Zero, tiny, ON a node distance, mid-range and the whole network."""
    known = sorted(node_dist.values())
    return [
        0.0,
        min(space.edge_length(u, v) for u, v in space.graph.edges) / 3.0,
        known[len(known) // 3],
        rng.uniform(0.2, 0.7) * known[-1],
        space.total_edge_length(),
    ]


case = st.tuples(
    st.sampled_from(["grid", "city"]),
    st.integers(3, 7),
    st.integers(0, 10**6),
)


class TestAgainstWholeGraphLoop:
    @SLOW
    @given(case, st.booleans(), st.booleans())
    def test_segments_wire_size_and_coverage(self, params, bounded, scipy):
        kind, size, seed = params
        graph = make_graph(kind, size, seed)
        bare = NetworkSpace(graph)
        space = oracle_space(graph, bounded, scipy)
        rng = random.Random(seed ^ 0xBA11)
        for center in centers(bare, rng):
            full_map, _ = reference_ball(bare, center, 0.0)
            for radius in radii(bare, full_map, rng):
                node_dist, want = reference_ball(bare, center, radius)
                ball = NetworkBall(space, center, radius)
                got = ball.covered_segments()
                assert got == want  # order included
                assert ball.wire_values() == 3 * len(want) + 1
                listed = {(u, v): (cu, cv) for u, v, cu, cv in want}
                for u, v in graph.edges:
                    assert ball.edge_coverage(u, v) == listed.get(
                        (u, v), (0.0, 0.0)
                    )
                for node, d in node_dist.items():
                    assert ball.node_distance(node) == d
                    pos = NetworkPosition.at_node(node)
                    assert ball.contains(pos) == (d <= radius + 1e-9)
        # Answering the balls above took no pass over the space's
        # dict maps: everything came from the oracle's rows.
        assert space._sssp_cache == {}

    def test_unknown_node_is_infinitely_far(self):
        space = NetworkSpace.from_grid(grid_size=4, seed=2)
        node = next(iter(space.graph.nodes))
        ball = NetworkBall(space, NetworkPosition.at_node(node), 50.0)
        assert ball.node_distance("nowhere") == INF
        assert not ball.contains(NetworkPosition.at_node("nowhere"))


class TestCenterInteriorEdge:
    """The one quirk of endpoint coverage: a ball that stays strictly
    inside its center's edge covers no endpoint, so it lists no segment
    (``net_tile`` patches the direct interval in itself) — yet it still
    contains the positions around its center."""

    @pytest.mark.parametrize("bounded", [False, True])
    def test_not_listed_but_contained(self, bounded):
        graph = nx.path_graph(4)
        for a, b in graph.edges:
            graph.edges[a, b]["length"] = 10.0
        space = oracle_space(graph, bounded, scipy=True)
        ball = NetworkBall(space, NetworkPosition.on_edge(1, 2, 5.0), 2.0)
        assert ball.covered_segments() == []
        assert ball.wire_values() == 1
        assert ball.edge_coverage(1, 2) == (0.0, 0.0)
        assert ball.contains(NetworkPosition.on_edge(1, 2, 6.5))
        assert ball.contains(NetworkPosition.on_edge(2, 1, 3.5))  # flipped
        assert not ball.contains(NetworkPosition.on_edge(1, 2, 7.5))
        assert not ball.contains(NetworkPosition.at_node(1))


class TestServingPathLeavesNoDictMaps:
    def test_net_circle_recomputes_do_not_fill_sssp_cache(self):
        net_space = NetworkSpace.from_grid(grid_size=6, seed=5)
        rng = random.Random(8)
        pois = rng.sample(list(net_space.graph.nodes), 10)
        service = MPNService(NetworkPOISpace(net_space, pois))
        handle = service.open_session(
            [net_space.random_position(rng) for _ in range(3)],
            net_circle_policy(),
        )
        recomputes = 0
        while recomputes < 500:
            note = service.report(
                handle.session_id, rng.randrange(3), net_space.random_position(rng)
            )
            recomputes += note is not None
        # POI churn sweeps every live ball through min_dist / max_dist.
        service.update_pois(adds=[(rng.choice(list(net_space.graph.nodes)), "x")])
        assert net_space._sssp_cache == {}
