"""Tests for the road-network extension (the paper's future work)."""

import random

import networkx as nx
import pytest

from repro.geometry.rect import Rect
from repro.gnn.aggregate import Aggregate
from repro.mobility.network import NetworkParams, build_road_network
from repro.network_ext.ball import NetworkBall
from repro.network_ext.circle_msr import network_circle_msr
from repro.network_ext.gnn import network_gnn
from repro.network_ext.monitor import network_trajectory
from repro.network_ext.space import NetworkPosition, NetworkSpace
from repro.simulation import net_circle_policy, run_service
from repro.space.network import NetworkPOISpace

WORLD = Rect(0, 0, 1000, 1000)


@pytest.fixture(scope="module")
def space():
    graph = build_road_network(WORLD, NetworkParams(grid_size=6), seed=5)
    return NetworkSpace(graph)


@pytest.fixture(scope="module")
def pois(space):
    rng = random.Random(2)
    nodes = list(space.graph.nodes)
    return rng.sample(nodes, 12)


class TestNetworkPosition:
    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkPosition()
        with pytest.raises(ValueError):
            NetworkPosition(node="a", edge=("a", "b"))
        with pytest.raises(ValueError):
            NetworkPosition(edge=("a", "b"), offset=-1.0)


class TestNetworkSpace:
    def test_rejects_disconnected(self):
        g = nx.Graph()
        g.add_edge(1, 2, length=1.0)
        g.add_edge(3, 4, length=1.0)
        with pytest.raises(ValueError):
            NetworkSpace(g)

    def test_rejects_missing_lengths(self):
        g = nx.Graph()
        g.add_edge(1, 2)
        with pytest.raises(ValueError):
            NetworkSpace(g)

    def test_node_distance_zero_to_self(self, space):
        node = next(iter(space.graph.nodes))
        pos = NetworkPosition.at_node(node)
        assert space.distance(pos, pos) == 0.0

    def test_symmetry(self, space):
        rng = random.Random(1)
        for _ in range(20):
            a = space.random_position(rng)
            b = space.random_position(rng)
            assert space.distance(a, b) == pytest.approx(space.distance(b, a))

    def test_triangle_inequality(self, space):
        rng = random.Random(3)
        for _ in range(20):
            a, b, c = (space.random_position(rng) for _ in range(3))
            assert space.distance(a, c) <= (
                space.distance(a, b) + space.distance(b, c) + 1e-6
            )

    def test_same_edge_distance(self, space):
        u, v = next(iter(space.graph.edges))
        length = space.edge_length(u, v)
        a = NetworkPosition.on_edge(u, v, 0.25 * length)
        b = NetworkPosition.on_edge(u, v, 0.75 * length)
        assert space.distance(a, b) <= 0.5 * length + 1e-9

    def test_matches_networkx_on_nodes(self, space):
        nodes = list(space.graph.nodes)[:5]
        for a in nodes:
            want = nx.single_source_dijkstra_path_length(
                space.graph, a, weight="length"
            )
            for b in nodes:
                got = space.distance(
                    NetworkPosition.at_node(a), NetworkPosition.at_node(b)
                )
                assert got == pytest.approx(want[b])

    def test_edge_position_offset_bounds(self, space):
        u, v = next(iter(space.graph.edges))
        bad = NetworkPosition.on_edge(u, v, space.edge_length(u, v) * 2)
        with pytest.raises(ValueError):
            space.distance(bad, NetworkPosition.at_node(u))


class TestNetworkBall:
    def test_negative_radius_raises(self, space):
        node = next(iter(space.graph.nodes))
        with pytest.raises(ValueError):
            NetworkBall(space, NetworkPosition.at_node(node), -1.0)

    def test_contains_iff_distance_le_radius(self, space):
        rng = random.Random(7)
        for _ in range(10):
            center = space.random_position(rng)
            radius = rng.uniform(10, 400)
            ball = NetworkBall(space, center, radius)
            for _ in range(30):
                pos = space.random_position(rng)
                expect = space.distance(center, pos) <= radius + 1e-9
                assert ball.contains(pos) == expect

    def test_center_always_inside(self, space):
        rng = random.Random(9)
        for _ in range(10):
            center = space.random_position(rng)
            ball = NetworkBall(space, center, 0.0)
            assert ball.contains(center)

    def test_covered_segments_consistent(self, space):
        rng = random.Random(11)
        center = space.random_position(rng)
        ball = NetworkBall(space, center, 200.0)
        segments = ball.covered_segments()
        assert segments
        for u, v, cover_u, cover_v in segments:
            length = space.edge_length(u, v)
            assert 0.0 <= cover_u <= length
            assert 0.0 <= cover_v <= length

    def test_wire_values_positive(self, space):
        rng = random.Random(13)
        ball = NetworkBall(space, space.random_position(rng), 150.0)
        assert ball.wire_values() >= 1


class TestNetworkGnn:
    def test_validation(self, space, pois):
        rng = random.Random(1)
        with pytest.raises(ValueError):
            network_gnn(space, pois, [])
        with pytest.raises(ValueError):
            network_gnn(space, [], [space.random_position(rng)])

    def test_matches_direct_distance_computation(self, space, pois):
        rng = random.Random(17)
        users = [space.random_position(rng) for _ in range(3)]
        for agg in (Aggregate.MAX, Aggregate.SUM):
            got = network_gnn(space, pois, users, len(pois), agg)
            for dist, poi in got:
                target = NetworkPosition.at_node(poi)
                dists = [space.distance(u, target) for u in users]
                want = max(dists) if agg is Aggregate.MAX else sum(dists)
                assert dist == pytest.approx(want)
            assert [d for d, _ in got] == sorted(d for d, _ in got)


class TestNetworkCircleMSR:
    def test_radius_formula(self, space, pois):
        rng = random.Random(19)
        users = [space.random_position(rng) for _ in range(3)]
        result = network_circle_msr(space, pois, users)
        assert result.radius == pytest.approx(
            (result.second_dist - result.po_dist) / 2.0
        )

    def test_soundness_in_network_metric(self, space, pois):
        """Theorem 1 under shortest-path distance: po stays optimal for
        any sampled positions inside the balls."""
        rng = random.Random(23)
        for trial in range(5):
            users = [space.random_position(rng) for _ in range(3)]
            result = network_circle_msr(space, pois, users)
            for _ in range(40):
                locs = []
                for ball in result.balls:
                    # Rejection-sample a position inside the ball.
                    for _ in range(200):
                        cand = space.random_position(rng)
                        if ball.contains(cand):
                            locs.append(cand)
                            break
                    else:
                        locs.append(ball.center)
                best_dist, best_poi = network_gnn(
                    space, pois, locs, 1, Aggregate.MAX
                )[0]
                po_target = NetworkPosition.at_node(result.po)
                po_dist = max(space.distance(l, po_target) for l in locs)
                assert po_dist <= best_dist + 1e-6

    def test_sum_objective_soundness(self, space, pois):
        rng = random.Random(29)
        users = [space.random_position(rng) for _ in range(2)]
        result = network_circle_msr(space, pois, users, Aggregate.SUM)
        po_target = NetworkPosition.at_node(result.po)
        for _ in range(40):
            locs = []
            for ball in result.balls:
                for _ in range(200):
                    cand = space.random_position(rng)
                    if ball.contains(cand):
                        locs.append(cand)
                        break
                else:
                    locs.append(ball.center)
            best_dist, _ = network_gnn(space, pois, locs, 1, Aggregate.SUM)[0]
            po_dist = sum(space.distance(l, po_target) for l in locs)
            assert po_dist <= best_dist + 1e-6

    def test_single_poi(self, space):
        rng = random.Random(31)
        users = [space.random_position(rng)]
        only = [next(iter(space.graph.nodes))]
        result = network_circle_msr(space, only, users)
        assert result.radius == float("inf")
        assert result.balls[0].contains(space.random_position(rng))


class TestNetworkSimulation:
    def test_trajectory_positions_move_continuously(self, space):
        rng = random.Random(37)
        traj = network_trajectory(space, 150, speed=20.0, rng=rng)
        assert len(traj) == 150
        for a, b in zip(traj, traj[1:]):
            assert space.distance(a, b) <= 20.0 + 1e-6

    def test_simulation_runs_and_checks(self, space, pois):
        rng = random.Random(41)
        trajectories = [
            network_trajectory(space, 120, speed=15.0, rng=rng) for _ in range(3)
        ]
        result = run_service(
            [trajectories],
            net_circle_policy(),
            NetworkPOISpace(space, pois),
            check_every=10,
        )
        metrics = result.session_metrics[0]
        assert metrics.update_events >= 1
        assert metrics.packets_total > 0

    def test_empty_group_raises(self, space, pois):
        with pytest.raises(ValueError, match="need at least one trajectory"):
            run_service([[]], net_circle_policy(), NetworkPOISpace(space, pois))
