"""Tests for the GeoLife- and Brinkhoff-substitute generators."""

import hashlib
import math
import random

import networkx as nx
import pytest

from repro.geometry.rect import Rect
from repro.mobility.network import (
    NetworkParams,
    brinkhoff_like,
    build_road_network,
    generate_network_trajectory,
)
from repro.mobility.random_waypoint import (
    WaypointParams,
    generate_waypoint_trajectory,
    geolife_like,
)

WORLD = Rect(0, 0, 1000, 1000)


class TestWaypointGenerator:
    def test_shape(self):
        trajs = geolife_like(5, 300, WORLD, seed=1)
        assert len(trajs) == 5
        assert all(len(t) == 300 for t in trajs)

    def test_stays_in_world(self):
        for t in geolife_like(3, 500, WORLD, seed=2):
            for p in t:
                assert WORLD.contains_point(p, eps=1e-9)

    def test_deterministic_per_seed(self):
        a = geolife_like(2, 100, WORLD, seed=3)
        b = geolife_like(2, 100, WORLD, seed=3)
        assert all(x.points == y.points for x, y in zip(a, b))

    def test_different_seeds_differ(self):
        a = geolife_like(1, 100, WORLD, seed=4)[0]
        b = geolife_like(1, 100, WORLD, seed=5)[0]
        assert a.points != b.points

    def test_speed_parameter_respected(self):
        params = WaypointParams(speed=5.0, speed_jitter=0.0, pause_probability=0.0)
        t = generate_waypoint_trajectory(WORLD, 400, params, random.Random(0))
        steps = [
            t[i].dist(t[i + 1]) for i in range(len(t) - 1) if t[i] != t[i + 1]
        ]
        # Steps are at most the nominal speed (shorter on arrivals).
        assert max(steps) <= 5.0 + 1e-6
        assert sum(steps) / len(steps) > 2.0

    def test_heading_persistence(self):
        """Consecutive headings should mostly agree (taxi-like motion)."""
        params = WaypointParams(speed=10.0, heading_jitter=0.01)
        t = generate_waypoint_trajectory(WORLD, 500, params, random.Random(1))
        agreements = 0
        comparisons = 0
        for i in range(2, len(t)):
            h1 = t.heading_at(i - 1)
            h2 = t.heading_at(i)
            if h1 is None or h2 is None:
                continue
            comparisons += 1
            diff = abs(math.atan2(math.sin(h1 - h2), math.cos(h1 - h2)))
            if diff < 0.5:
                agreements += 1
        assert agreements / comparisons > 0.7

    def test_single_timestamp(self):
        t = generate_waypoint_trajectory(
            WORLD, 1, WaypointParams(), random.Random(0)
        )
        assert len(t) == 1


class TestRoadNetwork:
    def test_connected(self):
        g = build_road_network(WORLD, NetworkParams(grid_size=8), seed=1)
        assert nx.is_connected(g)

    def test_positions_inside_world(self):
        g = build_road_network(WORLD, seed=2)
        for node in g.nodes:
            assert WORLD.contains_point(g.nodes[node]["pos"], eps=1e-9)

    def test_edges_have_lengths(self):
        g = build_road_network(WORLD, seed=3)
        for a, b in g.edges:
            assert g.edges[a, b]["length"] > 0.0

    def test_drop_fraction_removes_edges(self):
        full = build_road_network(
            WORLD, NetworkParams(grid_size=10, drop_fraction=0.0), seed=4
        )
        dropped = build_road_network(
            WORLD, NetworkParams(grid_size=10, drop_fraction=0.2), seed=4
        )
        assert dropped.number_of_edges() < full.number_of_edges()

    def test_grid_size_validation(self):
        with pytest.raises(ValueError):
            build_road_network(WORLD, NetworkParams(grid_size=1))


class TestNetworkTrajectories:
    def test_shape(self):
        trajs = brinkhoff_like(4, 300, WORLD, seed=1)
        assert len(trajs) == 4
        assert all(len(t) == 300 for t in trajs)

    def test_motion_constrained_to_network(self):
        """Every step either idles at a node or moves along some edge
        direction — verified loosely by bounded step length."""
        params = NetworkParams(speed_classes=(5.0,))
        g = build_road_network(WORLD, params, seed=7)
        t = generate_network_trajectory(g, 400, 5.0, random.Random(0))
        for i in range(len(t) - 1):
            assert t[i].dist(t[i + 1]) <= 5.0 + 1e-6

    def test_speed_classes_cycle(self):
        params = NetworkParams(speed_classes=(1.0, 50.0))
        trajs = brinkhoff_like(2, 400, WORLD, params, seed=9)
        slow = trajs[0].total_length()
        fast = trajs[1].total_length()
        assert fast > slow * 2

    def test_deterministic(self):
        a = brinkhoff_like(2, 150, WORLD, seed=11)
        b = brinkhoff_like(2, 150, WORLD, seed=11)
        assert all(x.points == y.points for x, y in zip(a, b))


def trajectory_digest(trajectories) -> str:
    """sha256 over every coordinate's exact float bits, in order."""
    h = hashlib.sha256()
    for trajectory in trajectories:
        for p in trajectory:
            h.update(f"{float(p.x).hex()},{float(p.y).hex()};".encode())
        h.update(b"|")
    return h.hexdigest()


class TestBrinkhoffDigests:
    """The Oldenburg stand-in's trajectories, pinned bit for bit.

    Recorded while trips were still planned by networkx's Dijkstra,
    before they moved to the graph's distance oracle: any change to the
    road graph, the trip planner or the walk fails here (the Section 7
    referee pins only Geolife rows).
    """

    @pytest.mark.parametrize(
        "seed, digest",
        [
            (11, "2697113e5f45f4ba2173a9d5dd74a2840105d2d11488ae85179de67b013a94f1"),
            (29, "65bcd4fcc2bf5b4f4b5d2dab9be6c8c3b90ccebeb57564d7bf372aebfc3d5a09"),
        ],
    )
    def test_brinkhoff_like(self, seed, digest):
        assert trajectory_digest(brinkhoff_like(6, 400, WORLD, seed=seed)) == digest
