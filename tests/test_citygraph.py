"""The seeded city-scale road-graph generator (repro.workloads.citygraph)."""

import math

import networkx as nx
import pytest

from repro.workloads.citygraph import (
    city_graph,
    city_network_space,
    city_poi_nodes,
    city_user_group,
)
from repro.index.oracle import OracleConfig, oracle_for


def small_city(**kwargs):
    kwargs.setdefault("grid_size", 24)
    return city_graph(**kwargs)


def test_validation():
    with pytest.raises(ValueError):
        city_graph(grid_size=1)
    with pytest.raises(ValueError):
        city_graph(block_fraction=-0.1)
    with pytest.raises(ValueError):
        city_graph(block_fraction=1.0)
    with pytest.raises(ValueError):
        city_graph(arterial_every=0)
    with pytest.raises(ValueError):
        city_graph(arterial_speed=0.0)
    with pytest.raises(ValueError):
        city_graph(perturbation=-0.5)


def test_deterministic_per_seed():
    a, b = small_city(seed=5), small_city(seed=5)
    assert sorted(a.nodes) == sorted(b.nodes)
    assert sorted(a.edges) == sorted(b.edges)
    for u, v in a.edges:
        assert a[u][v]["length"] == b[u][v]["length"]
        assert a.nodes[u]["pos"] == b.nodes[u]["pos"]
    c = small_city(seed=6)
    assert sorted(a.edges) != sorted(c.edges)


def test_connected_with_holes():
    graph = small_city(seed=2)
    assert nx.is_connected(graph)
    # Block deletion actually removed intersections from the 24x24 grid.
    assert graph.number_of_nodes() < 24 * 24
    assert graph.number_of_nodes() > 0.5 * 24 * 24


def test_edge_lengths_reflect_geometry_and_arterials():
    graph = small_city(seed=4)
    arterial_seen = False
    for u, v, data in graph.edges(data=True):
        dist = math.dist(graph.nodes[u]["pos"], graph.nodes[v]["pos"])
        assert data["length"] > 0
        if data["arterial"]:
            arterial_seen = True
            assert data["length"] == pytest.approx(dist / 2.5)
        else:
            assert data["length"] == pytest.approx(dist)
    assert arterial_seen
    # Arterials are strictly faster, so they attract shortest paths.
    assert any(d["arterial"] for _, _, d in graph.edges(data=True))


def test_poi_nodes_and_user_groups_are_seeded():
    graph = small_city(seed=8)
    pois = city_poi_nodes(graph, 30, seed=1)
    assert len(pois) == 30 and len(set(pois)) == 30
    assert all(node in graph for node in pois)
    assert pois == city_poi_nodes(graph, 30, seed=1)
    assert pois != city_poi_nodes(graph, 30, seed=2)

    group = city_user_group(graph, 5, seed=3)
    assert len(group) == 5
    nodes = [p.node for p in group]
    assert all(node in graph for node in nodes)
    # Clustered: the whole group fits a small window of the grid.
    xs = [n[0] for n in nodes]
    ys = [n[1] for n in nodes]
    assert max(xs) - min(xs) <= 12 and max(ys) - min(ys) <= 12
    assert group == city_user_group(graph, 5, seed=3)


def test_city_network_space_installs_oracle_config():
    config = OracleConfig(landmarks=4, alt_mode="on", bounded_mode="on")
    space = city_network_space(grid_size=12, seed=7, oracle_config=config)
    oracle = oracle_for(space)
    assert oracle.config is config
    assert oracle.alt_active and oracle.bounded_active
    assert space.graph.number_of_nodes() == len(oracle.nodes)
