"""Positions and shortest-path distances on a road network.

A :class:`NetworkPosition` is either a graph node or a point along an
edge (``offset`` meters from the edge's ``u`` endpoint).  Distances are
exact shortest-path lengths; single-source distance maps are computed
with Dijkstra and cached per source node, so repeated queries (the
brute-force GNN, tile verification) stay cheap.  Network balls do not
use them: they read the shared oracle's array rows
(:mod:`repro.network_ext.ball`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Optional

import networkx as nx


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


class NetworkSpace:
    """A road graph with exact network distances and Dijkstra caching.

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
        self._sssp_cache: dict[Hashable, dict[Hashable, float]] = {}
        self._distance_provider = None
        self._pair_provider = None
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

    def set_distance_provider(self, provider) -> None:
        """Install a faster exact SSSP backend for :meth:`node_distances`.

        ``provider(source) -> {node: distance}`` must return the exact
        shortest-path map the default networkx Dijkstra would.  The CSR
        index installs its bulk distance rows here
        (:meth:`repro.index.network.NetworkIndex.distance_map`), so
        ball construction and tile verification stop paying a second
        per-anchor Dijkstra next to the GNN kernel's.  Already-cached
        maps are kept either way.
        """
        self._distance_provider = provider

    def set_pair_distance_provider(self, provider) -> None:
        """Install an exact node-pair distance backend for :meth:`distance`.

        ``provider(node_a, node_b) -> distance`` must return the exact
        shortest-path length.  The CSR index installs its LRU-row
        lookup here
        (:meth:`repro.index.network.NetworkIndex.node_pair_distance`),
        so position-to-position queries stop materializing a full
        ``{node: distance}`` dict per anchor — at 100k+ nodes those
        dicts are the memory hog, not the Dijkstra itself.
        """
        self._pair_provider = provider

    @property
    def bounded_distances_active(self) -> bool:
        """Do regions over this space settle radius-bounded rows?  True
        once the shared oracle is installed with bounded mode engaged
        (:attr:`repro.index.oracle.DistanceOracle.bounded_active`)."""
        oracle = self._distance_oracle
        return oracle is not None and oracle.bounded_active

    def node_distances(self, source: Hashable) -> dict[Hashable, float]:
        """All-nodes shortest-path distances from ``source`` (cached)."""
        cached = self._sssp_cache.get(source)
        if cached is None:
            if self._distance_provider is not None:
                cached = self._distance_provider(source)
            else:
                cached = nx.single_source_dijkstra_path_length(
                    self.graph, source, weight="length"
                )
            self._sssp_cache[source] = cached
        return cached

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
        """Exact ``node_a -> node_b`` distance, dict-free when possible.

        An already-cached full map answers from its dict; otherwise a
        pair provider (one LRU row lookup) beats materializing a
        ``{node: distance}`` dict that :meth:`node_distances` would
        cache forever.  Identical values either way — both read the
        same Dijkstra result.
        """
        cached = self._sssp_cache.get(node_a)
        if cached is not None:
            return cached.get(node_b, float("inf"))
        if self._pair_provider is not None:
            return self._pair_provider(node_a, node_b)
        return self.node_distances(node_a).get(node_b, float("inf"))

    def random_position(self, rng) -> NetworkPosition:
        """A uniformly random position along a random edge."""
        if self._edge_list is None:
            self._edge_list = list(self.graph.edges)
        edges = self._edge_list
        u, v = edges[rng.randrange(len(edges))]
        return NetworkPosition.on_edge(u, v, rng.uniform(0.0, self.edge_length(u, v)))
