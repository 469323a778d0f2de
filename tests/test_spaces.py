"""Tests for the Space abstraction (repro.space)."""

import random

import networkx as nx
import pytest

from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.gnn.aggregate import Aggregate, aggregate_dist, find_gnn
from repro.network_ext.ball import NetworkBall
from repro.network_ext.space import NetworkSpace
from repro.space import EuclideanSpace, Space, as_space
from repro.space.network import NetworkPOISpace
from tests.conftest import SMALL_WORLD, random_users


@pytest.fixture(scope="module")
def net_space():
    return NetworkSpace.from_grid(grid_size=5, seed=17)


@pytest.fixture(scope="module")
def net_pois(net_space):
    return random.Random(2).sample(list(net_space.graph.nodes), 7)


@pytest.fixture(scope="module")
def poi_space(net_space, net_pois):
    return NetworkPOISpace(net_space, net_pois)


class TestProtocol:
    def test_euclidean_space_satisfies_protocol(self, tree_200):
        assert isinstance(EuclideanSpace(tree_200), Space)

    def test_network_space_satisfies_protocol(self, poi_space):
        assert isinstance(poi_space, Space)

    def test_bare_tree_is_not_a_space(self, tree_200):
        assert not isinstance(tree_200, Space)

    def test_as_space_wraps_and_passes_through(self, tree_200):
        wrapped = as_space(tree_200)
        assert isinstance(wrapped, EuclideanSpace)
        assert wrapped.index is tree_200
        assert as_space(wrapped) is wrapped


class TestEuclideanSpace:
    def test_metric_and_aggregate(self, tree_200, rng):
        space = EuclideanSpace(tree_200)
        a, b = SMALL_WORLD.sample(rng), SMALL_WORLD.sample(rng)
        assert space.distance(a, b) == a.dist(b)
        users = random_users(rng, 3)
        for objective in Aggregate:
            assert space.aggregate_dist(a, users, objective) == aggregate_dist(
                a, users, objective
            )

    def test_gnn_matches_find_gnn(self, tree_200, rng):
        space = EuclideanSpace(tree_200)
        users = random_users(rng, 3)
        expected = [
            (d, e.point) for d, e in find_gnn(tree_200, users, 3, Aggregate.SUM)
        ]
        assert space.gnn(users, 3, Aggregate.SUM) == expected

    def test_ball_is_a_circle(self, tree_200):
        ball = EuclideanSpace(tree_200).ball(Point(1.0, 2.0), 5.0)
        assert isinstance(ball, Circle)
        assert ball.contains_point(Point(4.0, 2.0))

    def test_bulk_update_and_poi_count(self, rng):
        from repro.workloads.poi import build_poi_tree, uniform_pois

        pois = uniform_pois(20, SMALL_WORLD, seed=3)
        space = EuclideanSpace(build_poi_tree(pois))
        assert space.poi_count() == 20
        space.bulk_update(adds=[(Point(1.0, 1.0), None)], removes=[(pois[0], None)])
        assert space.poi_count() == 20
        assert Point(1.0, 1.0) in [e.point for e in space.index.entries()]


class TestNetworkPOISpace:
    def test_kind_and_index(self, poi_space, net_pois):
        assert poi_space.kind == "network"
        assert poi_space.index.poi_nodes() == list(net_pois)
        assert poi_space.poi_count() == len(net_pois)

    def test_distance_accepts_nodes_and_positions(self, poi_space, net_space):
        a, b = list(net_space.graph.nodes)[:2]
        from repro.network_ext.space import NetworkPosition

        expected = net_space.distance(
            NetworkPosition.at_node(a), NetworkPosition.at_node(b)
        )
        assert poi_space.distance(a, b) == expected
        assert poi_space.distance(NetworkPosition.at_node(a), b) == expected

    def test_aggregate_dist(self, poi_space, net_space, net_pois):
        rng = random.Random(8)
        users = [net_space.random_position(rng) for _ in range(3)]
        target = net_pois[0]
        dists = [poi_space.distance(u, target) for u in users]
        assert poi_space.aggregate_dist(target, users, Aggregate.MAX) == max(dists)
        assert poi_space.aggregate_dist(target, users, Aggregate.SUM) == sum(dists)

    def test_ball_and_infinite_radius(self, poi_space, net_space):
        rng = random.Random(4)
        center = net_space.random_position(rng)
        ball = poi_space.ball(center, 50.0)
        assert isinstance(ball, NetworkBall)
        assert ball.radius == 50.0
        whole = poi_space.ball(center, float("inf"))
        assert whole.radius == net_space.total_edge_length()
        for _ in range(10):
            assert whole.contains(net_space.random_position(rng))

    def test_ball_region_protocol_bounds(self, poi_space, net_space):
        """NetworkBall answers Lemma-1 bounds for nodes and positions."""
        from repro.network_ext.space import NetworkPosition

        rng = random.Random(21)
        center = net_space.random_position(rng)
        ball = poi_space.ball(center, 40.0)
        node = next(iter(net_space.graph.nodes))
        d = net_space.distance(center, NetworkPosition.at_node(node))
        assert ball.min_dist(node) == max(0.0, d - 40.0)
        assert ball.max_dist(node) == d + 40.0
        # Same answers for an explicit position target.
        assert ball.min_dist(NetworkPosition.at_node(node)) == ball.min_dist(node)
        # And sampled region positions respect the bounds.
        low, high = ball.min_dist(node), ball.max_dist(node)
        target = NetworkPosition.at_node(node)
        for u, v, cu, cv in ball.covered_segments()[:5]:
            pos = NetworkPosition.on_edge(u, v, min(cu, net_space.edge_length(u, v)))
            if ball.contains(pos):
                assert low - 1e-9 <= net_space.distance(pos, target) <= high + 1e-9

    def test_tile_region_bounds_need_node_targets(self, net_space):
        from repro.network_ext.space import NetworkPosition
        from repro.network_ext.tile_msr import EdgeInterval, NetworkTileRegion

        u, v = next(iter(net_space.graph.edges))
        region = NetworkTileRegion(net_space, NetworkPosition.at_node(u))
        region.add(EdgeInterval(u, v, 0.0, net_space.edge_length(u, v)))
        assert region.min_dist(u) == 0.0
        assert region.min_dist(NetworkPosition.at_node(u)) == 0.0
        assert region.max_dist(u) >= net_space.edge_length(u, v) - 1e-9
        with pytest.raises(ValueError):
            region.min_dist(NetworkPosition.on_edge(u, v, 1.0))

    @pytest.mark.parametrize("served", [False, True])
    def test_node_distances_equal_networkx(self, served):
        """The metric's SSSP maps are views over the shared oracle's
        rows, on a bare space and under a NetworkPOISpace alike; they
        must equal networkx's Dijkstra maps exactly."""
        space = NetworkSpace.from_grid(grid_size=4, seed=7)
        if served:
            NetworkPOISpace(space, list(space.graph.nodes)[:3])
        for node in list(space.graph.nodes)[:4]:
            expected = nx.single_source_dijkstra_path_length(
                space.graph, node, weight="length"
            )
            got = space.node_distances(node)
            assert dict(got.items()) == expected
            assert all(got.get(n) == d for n, d in expected.items())

    def test_from_grid_convenience(self):
        space = NetworkPOISpace.from_grid(grid_size=4, seed=5)
        assert space.poi_count() == 0
        nodes = list(space.graph.nodes)[:3]
        space.bulk_update(adds=[(n, None) for n in nodes])
        assert space.poi_count() == 3
