"""Road-network groups through ``run_service`` (both region methods)."""

import random

import pytest

from repro.geometry.rect import Rect
from repro.mobility.network import NetworkParams, build_road_network
from repro.network_ext import NetworkSpace, network_trajectory
from repro.simulation import (
    circle_policy,
    net_circle_policy,
    net_tile_policy,
    run_service,
)
from repro.space.network import NetworkPOISpace

WORLD = Rect(0, 0, 2000, 2000)


@pytest.fixture(scope="module")
def setup():
    graph = build_road_network(WORLD, NetworkParams(grid_size=5), seed=21)
    space = NetworkSpace(graph)
    rng = random.Random(6)
    pois = rng.sample(list(graph.nodes), 8)
    trajectories = [
        network_trajectory(space, 120, speed=25.0, rng=rng) for _ in range(3)
    ]
    return space, pois, trajectories


def run_network_group(setup, policy, check_every=0):
    space, pois, trajectories = setup
    result = run_service(
        [trajectories],
        policy,
        NetworkPOISpace(space, pois),
        check_every=check_every,
    )
    return result.session_metrics[0]


class TestNetworkMonitor:
    def test_euclidean_strategy_rejected(self, setup):
        with pytest.raises(ValueError, match="serves euclidean spaces"):
            run_network_group(setup, circle_policy())

    def test_circle_method_with_checks(self, setup):
        metrics = run_network_group(setup, net_circle_policy(), check_every=10)
        assert metrics.update_events >= 1
        assert metrics.messages_up >= len(setup[2])

    def test_tile_method_with_checks(self, setup):
        metrics = run_network_group(setup, net_tile_policy(), check_every=10)
        assert metrics.update_events >= 1

    def test_tile_updates_not_worse_than_circle(self, setup):
        """Recursive partitions extend balls, so they cannot trigger
        more updates on the same trajectories."""
        circle = run_network_group(setup, net_circle_policy())
        tile = run_network_group(setup, net_tile_policy())
        assert tile.update_events <= circle.update_events

    def test_region_values_accounted(self, setup):
        metrics = run_network_group(setup, net_circle_policy())
        assert metrics.region_values_sent > 0
        assert metrics.packets_down >= metrics.update_events * len(setup[2])
