"""Tests for the CSR-packed network POI index (repro.index.network)."""

import random

import networkx as nx
import pytest

from repro.gnn.aggregate import Aggregate
from repro.index.network import NetworkIndex
from repro.network_ext.gnn import network_gnn
from repro.network_ext.space import NetworkSpace


@pytest.fixture(scope="module")
def space():
    return NetworkSpace.from_grid(grid_size=6, seed=31)


@pytest.fixture(scope="module")
def pois(space):
    return random.Random(9).sample(list(space.graph.nodes), 10)


@pytest.fixture(scope="module")
def index(space, pois):
    return NetworkIndex(space, pois)


class TestCSRPacking:
    def test_adjacency_round_trip(self, space, index):
        """Every graph edge appears in both CSR directions with its length."""
        oracle = index.oracle
        seen = 0
        for u, v, data in space.graph.edges(data=True):
            for a, b in ((u, v), (v, u)):
                ia = index._node_id[a]
                ib = index._node_id[b]
                lo, hi = oracle.indptr[ia], oracle.indptr[ia + 1]
                neighbors = oracle.indices[lo:hi].tolist()
                assert ib in neighbors
                k = lo + neighbors.index(ib)
                assert oracle.weights[k] == data["length"]
                seen += 1
        assert seen == 2 * index.edge_count()

    def test_distance_rows_match_networkx(self, space, index):
        for node in list(space.graph.nodes)[:6]:
            row = index.oracle.row(index._node_id[node])
            reference = nx.single_source_dijkstra_path_length(
                space.graph, node, weight="length"
            )
            for other, expected in reference.items():
                assert row[index._node_id[other]] == expected

    def test_rows_are_cached(self, index, space):
        node_id = index._node_id[next(iter(space.graph.nodes))]
        assert index.oracle.row(node_id) is index.oracle.row(node_id)


class TestGNNKernel:
    @pytest.mark.parametrize("agg", [Aggregate.MAX, Aggregate.SUM])
    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_bit_identical_to_brute_force(self, space, pois, index, agg, k):
        rng = random.Random(100 * k + (agg is Aggregate.SUM))
        for m in (1, 2, 4):
            users = [space.random_position(rng) for _ in range(m)]
            assert index.gnn(users, k, agg) == network_gnn(
                space, pois, users, k, agg
            )

    def test_node_positions_as_users(self, space, pois, index):
        from repro.network_ext.space import NetworkPosition

        users = [NetworkPosition.at_node(n) for n in list(space.graph.nodes)[:3]]
        assert index.gnn(users, 2) == network_gnn(space, pois, users, 2)

    def test_validation_parity_with_brute_force(self, space, pois, index):
        rng = random.Random(3)
        users = [space.random_position(rng)]
        assert index.gnn(users, 0) == []
        with pytest.raises(ValueError):
            index.gnn([], 1)
        empty = NetworkIndex(space, [])
        with pytest.raises(ValueError):
            empty.gnn(users, 1)
        with pytest.raises(ValueError):
            index.gnn(users, 1, agg="median")

    def test_k_larger_than_poi_set(self, space, pois, index):
        rng = random.Random(5)
        users = [space.random_position(rng) for _ in range(2)]
        assert index.gnn(users, 99) == network_gnn(space, pois, users, 99)


class TestPOIBookkeeping:
    def test_poi_nodes_preserve_order_and_duplicates(self, space):
        nodes = list(space.graph.nodes)[:3]
        index = NetworkIndex(space, [nodes[0], nodes[1], nodes[0]])
        assert index.poi_nodes() == [nodes[0], nodes[1], nodes[0]]
        assert len(index) == 3

    def test_off_graph_poi_rejected(self, space):
        with pytest.raises(ValueError):
            NetworkIndex(space, ["not-a-node"])
        with pytest.raises(ValueError):
            NetworkIndex(space, [], payloads=[1])

    def test_bulk_update_all_or_nothing(self, space):
        nodes = list(space.graph.nodes)
        index = NetworkIndex(space, nodes[:3])
        with pytest.raises(KeyError):
            index.bulk_update(adds=[(nodes[5], None)], removes=[(nodes[9], None)])
        assert index.poi_nodes() == nodes[:3]  # untouched on failure
        index.bulk_update(adds=[(nodes[5], "cafe")], removes=[(nodes[0], None)])
        assert index.poi_nodes() == [nodes[1], nodes[2], nodes[5]]
        assert index.pois_at(nodes[5]) == ["cafe"]

    def test_payload_specific_removal(self, space):
        node = next(iter(space.graph.nodes))
        index = NetworkIndex(space, [node, node], payloads=["a", "b"])
        index.bulk_update(removes=[(node, "a")])
        assert index.pois_at(node) == ["b"]

    def test_insert_delete_single(self, space):
        nodes = list(space.graph.nodes)
        index = NetworkIndex(space, nodes[:2])
        index.insert(nodes[4])
        assert len(index) == 3
        assert index.delete(nodes[4])
        assert not index.delete(nodes[4])  # already gone
        assert len(index) == 2

    def test_gnn_tracks_churn(self, space, pois):
        rng = random.Random(11)
        index = NetworkIndex(space, pois)
        users = [space.random_position(rng) for _ in range(2)]
        # Drop the current best; the kernel must agree with brute force
        # over the shrunken POI set.
        _, best = index.gnn(users, 1)[0]
        index.bulk_update(removes=[(best, None)])
        remaining = index.poi_nodes()
        assert best not in remaining
        assert index.gnn(users, 2) == network_gnn(space, remaining, users, 2)
