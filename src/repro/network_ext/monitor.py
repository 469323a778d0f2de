"""Network trajectories: road-graph motion for network sessions.

Road-network groups are first-class sessions of
:class:`repro.service.MPNService` (strategies ``net_circle`` /
``net_tile`` over a :class:`repro.space.network.NetworkPOISpace`), and
fleets of them run through :func:`repro.simulation.run_service`
alongside Euclidean groups.  This module supplies what those fleets
replay: :class:`NetworkTrajectory`, one network position per
timestamp, :func:`network_trajectory`, shortest-path motion at a fixed
speed, and :func:`walk_path`, the fixed-speed walk along one node path
that it and the scenario compiler share.  Paths come from
:meth:`~repro.index.oracle.DistanceOracle.path` on the space's oracle,
the one shortest-path engine of a road graph; planning a path leaves
the oracle's row cache and counters alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.index.oracle import oracle_for
from repro.network_ext.space import NetworkPosition, NetworkSpace


@dataclass(frozen=True)
class NetworkTrajectory:
    """One network position per timestamp (the road-graph Trajectory)."""

    positions: tuple[NetworkPosition, ...]

    def __post_init__(self) -> None:
        if not self.positions:
            raise ValueError("trajectory must contain at least one position")

    def __len__(self) -> int:
        return len(self.positions)

    def __getitem__(self, t: int) -> NetworkPosition:
        return self.positions[t]

    def __iter__(self) -> Iterator[NetworkPosition]:
        return iter(self.positions)

    def at(self, t: int) -> NetworkPosition:
        """Position at timestamp ``t``; clamps past the end."""
        if t < 0:
            raise IndexError("negative timestamp")
        if t >= len(self.positions):
            return self.positions[-1]
        return self.positions[t]


def network_trajectory(
    space: NetworkSpace,
    n_timestamps: int,
    speed: float,
    rng: random.Random,
) -> NetworkTrajectory:
    """Shortest-path motion emitting one NetworkPosition per timestamp:
    trips between random nodes, each planned by the space's
    :class:`~repro.index.oracle.DistanceOracle`."""
    planner = oracle_for(space)
    nodes = list(space.graph.nodes)
    current = rng.choice(nodes)
    out: list[NetworkPosition] = [NetworkPosition.at_node(current)]
    while len(out) < n_timestamps:
        dest = rng.choice(nodes)
        if dest == current:
            continue
        path = planner.path(current, dest)
        walk_path(space, path, speed, out, n_timestamps)
        current = dest
    return NetworkTrajectory(tuple(out[:n_timestamps]))


def walk_path(
    space: NetworkSpace,
    path: Sequence,
    speed: float,
    out: list[NetworkPosition],
    n: int,
) -> None:
    """Extend ``out`` (which ends at ``path[0]``) by walking the node
    ``path`` at ``speed`` per timestamp, stopping once it holds ``n``.

    Each edge yields its interior positions one ``speed`` step apart,
    then its end node; an edge shorter than a step yields the end node
    alone.
    """
    for a, b in zip(path, path[1:]):
        length = space.edge_length(a, b)
        offset = 0.0
        while offset + speed < length and len(out) < n:
            offset += speed
            out.append(NetworkPosition.on_edge(a, b, offset))
        if len(out) >= n:
            return
        out.append(NetworkPosition.at_node(b))
