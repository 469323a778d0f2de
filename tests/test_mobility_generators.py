"""Tests for the GeoLife- and Brinkhoff-substitute generators."""

import hashlib
import math
import random

import networkx as nx
import pytest

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.mobility.converge import ConvergeParams, generate_converge_trajectory
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


def _on_world_edge(p, world) -> bool:
    return p.x in (world.x_lo, world.x_hi) or p.y in (world.y_lo, world.y_hi)


class TestGeneratorDigests:
    """The Euclidean scenario generators, pinned bit for bit.

    Recorded while each moving step still built an unclamped ``Point``
    and then a clamped one: a rewrite of the step arithmetic that moves
    any float bit fails here.  Each case also asserts the branch it was
    chosen to cover, so a re-pin cannot silently drop one.
    """

    DELIVERY = WaypointParams(
        speed=40.0, speed_jitter=0.2, pause_probability=0.05, pause_max_steps=3
    )

    @pytest.mark.parametrize(
        "case, digest",
        [
            ("default", "c98a88e5622bdc4a4fc1eb6744448ef6940d4b913eb3370478c85111697198e7"),
            ("delivery", "21ad8dc7e1f0eb367b4231c7ad22ce46f126efb42926682d4021151902a60bab"),
            ("edge_start", "944151152a9807271e7e3a097e679860a795d77d81eda1f9ab3d77d8ec45a1f6"),
        ],
    )
    def test_waypoint(self, case, digest):
        if case == "default":
            traj = generate_waypoint_trajectory(
                WORLD, 400, WaypointParams(), random.Random(41)
            )
        elif case == "delivery":
            traj = generate_waypoint_trajectory(
                WORLD, 400, self.DELIVERY, random.Random(42)
            )
            # Pauses fire: a paused step repeats the previous point.
            assert sum(a == b for a, b in zip(traj, traj.points[1:])) >= 10
        else:
            traj = generate_waypoint_trajectory(
                WORLD,
                300,
                WaypointParams(speed=20.0, heading_jitter=0.6),
                random.Random(43),
                start=Point(WORLD.x_lo, 500.0),
            )
            # The clamp fires: a later step lands exactly on a wall.
            assert any(_on_world_edge(p, WORLD) for p in traj.points[1:])
        assert trajectory_digest([traj]) == digest

    def test_converge(self):
        # Approach from a far corner, arrive, then mill around a venue
        # 10 units from the east wall: the pull-back branch fires on
        # strays beyond the 30-unit radius and the clamp on the wall.
        venue = Point(990.0, 500.0)
        params = ConvergeParams(speed=30.0, mill_radius=30.0, mill_step=8.0)
        traj = generate_converge_trajectory(
            WORLD, 200, venue, params, random.Random(44),
            start=Point(100.0, 100.0),
        )
        assert traj[0].dist(venue) > 800.0
        tail = traj.points[-150:]
        assert all(p.dist(venue) <= 2 * params.mill_radius for p in tail)
        assert any(_on_world_edge(p, WORLD) for p in traj.points[1:])
        assert trajectory_digest([traj]) == (
            "b9fe664ba10c2a733a54538631963dadf8b160c27f9a5302e26754858e3796e9"
        )
