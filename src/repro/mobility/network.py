"""Brinkhoff-substitute generator: network-constrained motion.

Brinkhoff's generator (the paper's Oldenburg workload, ref. [27])
produces objects that travel the road network of Oldenburg along
shortest paths with class-dependent speeds.  We reproduce exactly that
behaviour on a synthetic road network: a perturbed grid graph with a
fraction of edges removed (keeping it connected), which yields the
irregular block structure of a real city map.  Trips are planned by the
graph's :class:`~repro.index.oracle.DistanceOracle` (SciPy's Dijkstra
over CSR arrays), the engine every road-network walk and distance in
the package goes through.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import networkx as nx

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.mobility.trajectory import Trajectory


@dataclass(frozen=True)
class NetworkParams:
    """Tuning of the road network and the object classes."""

    grid_size: int = 12  # grid_size x grid_size intersections
    perturbation: float = 0.25  # relative node displacement
    drop_fraction: float = 0.15  # fraction of edges removed
    speed_classes: tuple[float, ...] = (2.5, 5.0, 10.0)  # slow/medium/fast


def build_road_network(
    world: Rect, params: NetworkParams | None = None, seed: int = 11
) -> nx.Graph:
    """A connected planar-ish road graph with ``pos`` node attributes."""
    if params is None:
        params = NetworkParams()
    rng = random.Random(seed)
    n = params.grid_size
    if n < 2:
        raise ValueError("grid_size must be >= 2")
    graph = nx.grid_2d_graph(n, n)
    dx = world.width / (n - 1)
    dy = world.height / (n - 1)
    for (i, j) in graph.nodes:
        px = world.x_lo + i * dx + rng.uniform(-1, 1) * params.perturbation * dx
        py = world.y_lo + j * dy + rng.uniform(-1, 1) * params.perturbation * dy
        px = min(max(px, world.x_lo), world.x_hi)
        py = min(max(py, world.y_lo), world.y_hi)
        graph.nodes[(i, j)]["pos"] = Point(px, py)
    # Remove a fraction of edges without disconnecting the graph.
    edges = list(graph.edges)
    rng.shuffle(edges)
    to_drop = int(len(edges) * params.drop_fraction)
    for edge in edges:
        if to_drop == 0:
            break
        graph.remove_edge(*edge)
        if nx.is_connected(graph):
            to_drop -= 1
        else:
            graph.add_edge(*edge)
    for a, b in graph.edges:
        graph.edges[a, b]["length"] = graph.nodes[a]["pos"].dist(
            graph.nodes[b]["pos"]
        )
    return graph


def _walk_path(
    graph: nx.Graph, path: list, speed: float, emit, budget: list
) -> object:
    """Walk a node path at ``speed`` per timestamp, emitting locations.

    Returns the final position.  ``budget[0]`` holds the number of
    locations still needed; ``emit`` appends to the trajectory.
    """
    pos = graph.nodes[path[0]]["pos"]
    for nxt in path[1:]:
        target = graph.nodes[nxt]["pos"]
        while budget[0] > 0:
            gap = pos.dist(target)
            if gap <= speed:
                pos = target
                break
            angle = math.atan2(target.y - pos.y, target.x - pos.x)
            pos = Point(pos.x + speed * math.cos(angle), pos.y + speed * math.sin(angle))
            emit(pos)
            budget[0] -= 1
        if budget[0] <= 0:
            break
        emit(pos)
        budget[0] -= 1
        if budget[0] <= 0:
            break
    return pos


def generate_network_trajectory(
    graph: nx.Graph,
    n_timestamps: int,
    speed: float,
    rng: random.Random,
) -> Trajectory:
    """One object: repeated shortest-path trips between random nodes."""
    return _trips(graph, _planner(graph), n_timestamps, speed, rng)


def _planner(graph: nx.Graph):
    """The graph's distance oracle, which plans its trips.  It packs the
    whole graph, so build one per graph, not one per trajectory."""
    from repro.index.oracle import oracle_for
    from repro.network_ext.space import NetworkSpace

    return oracle_for(NetworkSpace(graph))


def _trips(
    graph: nx.Graph, planner, n_timestamps: int, speed: float, rng: random.Random
) -> Trajectory:
    nodes = list(graph.nodes)
    current = rng.choice(nodes)
    points = [graph.nodes[current]["pos"]]
    budget = [n_timestamps - 1]
    while budget[0] > 0:
        dest = rng.choice(nodes)
        if dest == current:
            continue
        path = planner.path(current, dest)
        _walk_path(graph, path, speed, points.append, budget)
        current = dest
    return Trajectory(tuple(points[:n_timestamps]))


def brinkhoff_like(
    n_trajectories: int,
    n_timestamps: int,
    world: Rect,
    params: NetworkParams | None = None,
    seed: int = 11,
) -> list[Trajectory]:
    """A trajectory set mirroring the paper's Oldenburg workload shape."""
    if params is None:
        params = NetworkParams()
    graph = build_road_network(world, params, seed)
    planner = _planner(graph)
    rng = random.Random(seed + 1)
    out = []
    for k in range(n_trajectories):
        speed = params.speed_classes[k % len(params.speed_classes)]
        out.append(_trips(graph, planner, n_timestamps, speed, rng))
    return out
