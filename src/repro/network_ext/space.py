"""Positions and shortest-path distances on a road network.

A :class:`NetworkPosition` is either a graph node or a point along an
edge (``offset`` meters from the edge's ``u`` endpoint).  Distances are
exact shortest-path lengths, all read off the graph's one shared
:class:`~repro.index.oracle.DistanceOracle`: a single-source map
(:meth:`NetworkSpace.node_distances`) is a read-only view over one of
its rows, and a position-to-position distance reads single row
entries.  Nothing here caches a distance of its own — the oracle's
byte budget bounds them all.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Hashable, Iterator, Optional

import networkx as nx
import numpy as np

from repro.index.oracle import oracle_for


@dataclass(frozen=True)
class NetworkPosition:
    """A location on the road network.

    Node positions set ``edge=None``.  Edge positions carry the edge as
    an ordered pair ``(u, v)`` and the offset from ``u`` in length
    units; an offset of 0 (or the full edge length) degenerates to the
    endpoint node.
    """

    node: Hashable = None
    edge: Optional[tuple[Hashable, Hashable]] = None
    offset: float = 0.0

    def __post_init__(self) -> None:
        if (self.node is None) == (self.edge is None):
            raise ValueError("exactly one of node/edge must be set")
        if self.edge is not None and self.offset < 0.0:
            raise ValueError("negative edge offset")

    @classmethod
    def at_node(cls, node: Hashable) -> "NetworkPosition":
        return cls(node=node)

    @classmethod
    def on_edge(cls, u: Hashable, v: Hashable, offset: float) -> "NetworkPosition":
        return cls(edge=(u, v), offset=offset)


class DistanceRow(Mapping):
    """A read-only ``{node: distance}`` view over one oracle row.

    It holds the row array itself, so it stays valid after the oracle's
    LRU evicts the row, and copies nothing: lookups index the array and
    hand back Python floats.
    """

    __slots__ = ("_row", "_node_id", "_nodes")

    def __init__(self, row: np.ndarray, node_id: dict, nodes: list):
        self._row = row
        self._node_id = node_id
        self._nodes = nodes

    def __getitem__(self, node: Hashable) -> float:
        return self._row.item(self._node_id[node])

    def get(self, node: Hashable, default=None):
        # The hot lookup of net_tile verification and the brute-force
        # GNN: one dict probe, not Mapping's __getitem__ + try/except.
        i = self._node_id.get(node)
        return default if i is None else self._row.item(i)

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)


class NetworkSpace:
    """A road graph with exact network distances.

    The graph must be connected, undirected, and carry a positive
    ``length`` attribute on every edge (as produced by
    :func:`repro.mobility.network.build_road_network`).
    """

    def __init__(self, graph: nx.Graph):
        total = 0
        for a, b, data in graph.edges(data=True):
            length = data.get("length", 0.0)
            if length <= 0.0:
                raise ValueError(f"edge {(a, b)} lacks a positive length")
            total += length
        if graph.number_of_nodes() == 0:
            raise ValueError("empty road network")
        if not nx.is_connected(graph):
            raise ValueError("road network must be connected")
        self.graph = graph
        # The graph is immutable from here on: the raw adjacency dict
        # answers edge lengths without a networkx view per call, and
        # the total length (summed in ``graph.edges`` order) is fixed.
        self._adj = graph._adj
        self._total_edge_length = total
        self._edge_list: Optional[list[tuple[Hashable, Hashable]]] = None
        # The shared DistanceOracle, installed lazily by
        # repro.index.oracle.oracle_for (one per graph, shared by every
        # POI replica and cluster epoch over this space).
        self._distance_oracle = None

    @classmethod
    def from_grid(
        cls,
        world=None,
        grid_size: int = 8,
        perturbation: float = 0.25,
        drop_fraction: float = 0.15,
        seed: int = 11,
    ) -> "NetworkSpace":
        """A quick-setup space over a synthetic city grid.

        Builds the connected perturbed-grid road graph of
        :func:`repro.mobility.network.build_road_network` (the
        Brinkhoff-substitute layout) and wraps it; ``world`` defaults
        to a 1000x1000 block.
        """
        from repro.geometry.rect import Rect
        from repro.mobility.network import NetworkParams, build_road_network

        if world is None:
            world = Rect(0.0, 0.0, 1000.0, 1000.0)
        params = NetworkParams(
            grid_size=grid_size,
            perturbation=perturbation,
            drop_fraction=drop_fraction,
        )
        return cls(build_road_network(world, params, seed=seed))

    def edge_length(self, u: Hashable, v: Hashable) -> float:
        return self._adj[u][v]["length"]

    def total_edge_length(self) -> float:
        """Total road length — a radius covering the whole network."""
        return self._total_edge_length

    def node_distances(self, source: Hashable) -> DistanceRow:
        """All-nodes shortest-path distances from ``source``: a view over
        the shared oracle's row, no copy."""
        oracle = oracle_for(self)
        return DistanceRow(
            oracle.row(oracle.node_id[source]), oracle.node_id, oracle.nodes
        )

    def anchors(self, pos: NetworkPosition) -> list[tuple[Hashable, float]]:
        """(node, distance-to-node) pairs anchoring a position."""
        if pos.node is not None:
            return [(pos.node, 0.0)]
        u, v = pos.edge
        length = self.edge_length(u, v)
        if not 0.0 <= pos.offset <= length + 1e-9:
            raise ValueError(f"offset {pos.offset} outside edge of length {length}")
        return [(u, pos.offset), (v, length - pos.offset)]

    def distance(self, a: NetworkPosition, b: NetworkPosition) -> float:
        """Exact shortest-path distance between two positions."""
        # Same-edge shortcut: the direct along-edge path is a candidate
        # (possibly beaten by a detour, covered by the anchor paths).
        best = float("inf")
        if a.edge is not None and b.edge is not None:
            if a.edge == b.edge or a.edge == (b.edge[1], b.edge[0]):
                u, v = a.edge
                length = self.edge_length(u, v)
                b_off = b.offset if a.edge == b.edge else length - b.offset
                best = abs(a.offset - b_off)
        for node_a, d_a in self.anchors(a):
            for node_b, d_b in self.anchors(b):
                via = d_a + self._pair_distance(node_a, node_b) + d_b
                best = min(best, via)
        return best

    def _pair_distance(self, node_a: Hashable, node_b: Hashable) -> float:
        """Exact ``node_a -> node_b`` distance: one entry of the shared
        oracle's row from ``node_a``.  Runs on every client's escape
        test, so the installed oracle is read straight off the space."""
        oracle = self._distance_oracle
        if oracle is None:
            oracle = oracle_for(self)
        node_id = oracle.node_id
        return oracle.row(node_id[node_a]).item(node_id[node_b])

    def random_position(self, rng) -> NetworkPosition:
        """A uniformly random position along a random edge."""
        if self._edge_list is None:
            self._edge_list = list(self.graph.edges)
        edges = self._edge_list
        u, v = edges[rng.randrange(len(edges))]
        return NetworkPosition.on_edge(u, v, rng.uniform(0.0, self.edge_length(u, v)))
