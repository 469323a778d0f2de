"""The array-backed NetworkBall against the whole-graph reference loop.

``NetworkBall`` cuts its node distances out of the shared oracle's
rows and reads coverage off the incident edges of the covered nodes
only.  The implementation it replaced merged per-anchor ``{node:
distance}`` dicts and then tested *every* edge of the graph; that loop
survives here, over networkx's own Dijkstra maps (no oracle), as the
reference the new ball must equal exactly — same segments in the same
order, same floats — in full-row and bounded modes.
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
        reference = nx.single_source_dijkstra_path_length(
            space.graph, node, weight="length"
        )
        for target, d in reference.items():
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


def oracle_space(graph, bounded):
    """A space whose oracle runs the given mode."""
    space = NetworkSpace(graph)
    config = OracleConfig(
        alt_mode="off", bounded_mode="on" if bounded else "off"
    )
    assert oracle_for(space, config).bounded_active == bounded
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
    @given(case, st.booleans())
    def test_segments_wire_size_and_coverage(self, params, bounded):
        kind, size, seed = params
        graph = make_graph(kind, size, seed)
        bare = NetworkSpace(graph)
        space = oracle_space(graph, bounded)
        rng = random.Random(seed ^ 0xBA11)
        anchors = set()
        for center in centers(bare, rng):
            anchors.update(node for node, _ in bare.anchors(center))
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
        # The referee never touched an oracle, and the balls paid at
        # most one exact row per distinct anchor: the oracle's row
        # cache is the only distance cache they read.
        assert bare._distance_oracle is None
        oracle = oracle_for(space)
        assert oracle.rows_computed == oracle.misses <= len(anchors)

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
        space = oracle_space(graph, bounded)
        ball = NetworkBall(space, NetworkPosition.on_edge(1, 2, 5.0), 2.0)
        assert ball.covered_segments() == []
        assert ball.wire_values() == 1
        assert ball.edge_coverage(1, 2) == (0.0, 0.0)
        assert ball.contains(NetworkPosition.on_edge(1, 2, 6.5))
        assert ball.contains(NetworkPosition.on_edge(2, 1, 3.5))  # flipped
        assert not ball.contains(NetworkPosition.on_edge(1, 2, 7.5))
        assert not ball.contains(NetworkPosition.at_node(1))


class TestServingPathLeavesNoDictMaps:
    def test_net_circle_recomputes_stay_in_the_row_budget(self):
        net_space = NetworkSpace.from_grid(grid_size=6, seed=5)
        rng = random.Random(8)
        pois = rng.sample(list(net_space.graph.nodes), 10)
        budget = OracleConfig(
            row_cache_bytes=2 * net_space.graph.number_of_nodes() * 8
        )
        service = MPNService(
            NetworkPOISpace(net_space, pois, oracle_config=budget)
        )
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
        # Every row the serving path read went through the oracle's LRU,
        # and two rows stayed resident however many it computed.
        oracle = oracle_for(net_space)
        assert oracle.rows_computed == oracle.misses > 2
        assert oracle.resident_rows <= 2 and oracle.evictions > 0
