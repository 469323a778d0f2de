"""The distance oracle: LRU row cache, landmarks, bounded Dijkstra,
and the one-cache-per-graph sharing contract (repro.index.oracle)."""

import random
from types import SimpleNamespace

import networkx as nx
import numpy as np
import pytest

from repro.geometry.rect import Rect
from repro.index.oracle import (
    DistanceOracle,
    OracleConfig,
    oracle_for,
    padded_cutoff,
)
from repro.mobility.network import NetworkParams, build_road_network
from repro.network_ext.space import NetworkPosition, NetworkSpace
from repro.service import MPNService
from repro.space.network import NetworkPOISpace
from repro.workloads.citygraph import city_graph


@pytest.fixture()
def space():
    # Function-scoped on purpose: every test gets a fresh oracle.
    return NetworkSpace.from_grid(grid_size=6, seed=31)


def row_budget(space, rows):
    """A config byte budget holding exactly ``rows`` full rows."""
    return rows * space.graph.number_of_nodes() * 8


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            OracleConfig(row_cache_bytes=-1)
        with pytest.raises(ValueError):
            OracleConfig(landmarks=0)
        with pytest.raises(ValueError):
            OracleConfig(alt_mode="sometimes")
        with pytest.raises(ValueError):
            OracleConfig(bounded_mode="maybe")
        with pytest.raises(ValueError):
            OracleConfig(auto_threshold_nodes=-5)

    def test_auto_mode_tracks_node_count(self, space):
        small = DistanceOracle(space, OracleConfig(auto_threshold_nodes=10**6))
        assert not small.alt_active and not small.bounded_active
        big = DistanceOracle(space, OracleConfig(auto_threshold_nodes=1))
        assert big.alt_active and big.bounded_active

    def test_forced_modes(self, space):
        on = DistanceOracle(
            space, OracleConfig(alt_mode="on", bounded_mode="off")
        )
        assert on.alt_active and not on.bounded_active
        off = DistanceOracle(
            space,
            OracleConfig(alt_mode="off", bounded_mode="on",
                         auto_threshold_nodes=1),
        )
        assert not off.alt_active and off.bounded_active


class TestRowCache:
    def test_rows_exact_and_cached(self, space):
        oracle = DistanceOracle(space)
        nodes = list(space.graph.nodes)
        for node in nodes[:4]:
            row = oracle.row(oracle.node_id[node])
            reference = nx.single_source_dijkstra_path_length(
                space.graph, node, weight="length"
            )
            for other, expected in reference.items():
                assert row[oracle.node_id[other]] == expected
        assert oracle.misses == 4 and oracle.rows_computed == 4
        first = oracle.row(oracle.node_id[nodes[0]])
        assert first is oracle.row(oracle.node_id[nodes[0]])
        assert oracle.hits >= 2

    def test_budget_evicts_lru(self, space):
        oracle = DistanceOracle(
            space, OracleConfig(row_cache_bytes=row_budget(space, 2))
        )
        oracle.row(0)
        oracle.row(1)
        oracle.row(0)  # freshen 0; 1 becomes LRU
        oracle.row(2)  # evicts 1
        assert oracle.resident_rows == 2
        assert oracle.resident_bytes <= oracle.config.row_cache_bytes
        assert oracle.evictions == 1
        assert oracle.has_row(0) and oracle.has_row(2)
        assert not oracle.has_row(1)

    def test_zero_budget_never_caches_but_stays_exact(self, space):
        oracle = DistanceOracle(space, OracleConfig(row_cache_bytes=0))
        baseline = DistanceOracle(space)
        assert (oracle.row(3) == baseline.row(3)).all()
        assert oracle.resident_rows == 0 and oracle.resident_bytes == 0

    def test_multi_row_request_survives_eviction(self, space):
        oracle = DistanceOracle(
            space, OracleConfig(row_cache_bytes=row_budget(space, 1))
        )
        wanted = [0, 1, 2, 3]
        rows = oracle.rows(wanted)
        assert set(rows) == set(wanted)
        baseline = DistanceOracle(space)
        for node_id in wanted:
            assert (rows[node_id] == baseline.row(node_id)).all()
        assert oracle.resident_rows == 1  # budget still enforced

    def test_stats_shape_json_safe(self, space):
        import json

        oracle = DistanceOracle(space)
        oracle.row(0)
        oracle.bounded_row(0, 10.0)
        oracle.landmark_matrix()
        oracle.note_alt(candidates=10, survivors=3)
        stats = oracle.stats()
        json.dumps(stats)  # wire-safe
        assert stats["row_cache_misses"] == 1
        assert stats["bounded_queries"] == 1
        assert stats["landmarks"] == stats["landmark_bytes"] // stats["row_bytes"]
        assert stats["alt_prune_rate"] == pytest.approx(0.7)
        assert stats["resident_bytes"] <= stats["row_cache_bytes"]


class TestBoundedRows:
    def test_bounded_matches_masked_full_row(self, space):
        oracle = DistanceOracle(space, OracleConfig(row_cache_bytes=0))
        full = DistanceOracle(space)
        rng = random.Random(7)
        finite = full.row(0)
        for _ in range(10):
            cutoff = rng.uniform(0.0, float(finite.max()) * 1.2)
            bounded = oracle.bounded_row(0, cutoff)
            expected = full.row(0).copy()
            expected[expected > cutoff] = np.inf
            assert (bounded == expected).all()

    def test_boundary_distance_is_included(self, space):
        """cutoff exactly equal to a node's distance keeps that node."""
        full = DistanceOracle(space)
        row = full.row(0)
        boundary = float(np.sort(row)[len(row) // 2])
        bounded = full.bounded_row(0, boundary)
        assert bounded[row == boundary].min() == boundary

    def test_negative_cutoff_is_empty(self, space):
        oracle = DistanceOracle(space)
        assert not np.isfinite(oracle.bounded_row(0, -1.0)).any()

    def test_padded_cutoff_covers_rounded_sums(self):
        rng = random.Random(3)
        for _ in range(200):
            limit = rng.uniform(0.1, 1e4)
            offset = rng.uniform(0.0, limit)
            d = limit - offset  # rounded subtraction, the worst case
            assert offset + d <= limit or d <= padded_cutoff(limit, offset)
            assert d <= padded_cutoff(limit, offset)
        assert padded_cutoff(float("inf"), 1.0) == float("inf")


class TestLandmarks:
    def test_farthest_point_selection(self, space):
        oracle = DistanceOracle(space, OracleConfig(landmarks=4))
        matrix = oracle.landmark_matrix()
        ids = oracle.landmark_ids()
        assert matrix.shape == (4, len(oracle.nodes))
        assert len(set(ids.tolist())) == 4
        # Pinned outside the LRU budget.
        assert oracle.resident_rows == 0
        assert oracle.landmark_bytes == matrix.nbytes
        # Rows are the landmarks' exact distance rows.
        full = DistanceOracle(space)
        for lm, row in zip(ids.tolist(), matrix):
            assert (row == full.row(lm)).all()

    def test_triangle_bounds_are_valid(self, space):
        oracle = DistanceOracle(space, OracleConfig(landmarks=6))
        matrix = oracle.landmark_matrix()
        full = DistanceOracle(space)
        rng = random.Random(11)
        n = len(oracle.nodes)
        for _ in range(25):
            s, t = rng.randrange(n), rng.randrange(n)
            d = full.row(s)[t]
            lb = np.abs(matrix[:, s] - matrix[:, t]).max()
            ub = (matrix[:, s] + matrix[:, t]).min()
            assert lb <= d + 1e-12
            assert ub >= d - 1e-12

    def test_more_landmarks_than_nodes_is_capped(self):
        tiny = NetworkSpace.from_grid(grid_size=2, seed=1)
        oracle = DistanceOracle(tiny, OracleConfig(landmarks=64))
        assert oracle.landmark_matrix().shape[0] <= len(oracle.nodes)


class TestOnlyDistanceCache:
    """The oracle's byte budget bounds every road-network distance the
    stack holds: a NetworkSpace keeps no distance map of its own."""

    def test_node_distances_reread_the_oracle(self, space):
        oracle = oracle_for(space, OracleConfig(row_cache_bytes=0))
        node = next(iter(space.graph.nodes))
        first = space.node_distances(node)
        assert oracle.rows_computed == 1
        # No budget, no resident row: the second map is computed again.
        assert space.node_distances(node) == first
        assert oracle.rows_computed == 2
        assert oracle.resident_rows == 0

    def test_net_tile_fleet_stays_in_a_two_row_budget(self, space):
        from repro.simulation import net_tile_policy

        rng = random.Random(6)
        nodes = list(space.graph.nodes)
        poi_space = NetworkPOISpace(
            space,
            rng.sample(nodes, 8),
            oracle_config=OracleConfig(row_cache_bytes=row_budget(space, 2)),
        )
        service = MPNService(poi_space)
        policy = net_tile_policy(alpha=5, split_level=1)
        handles = [
            service.open_session(
                [space.random_position(rng) for _ in range(3)], policy
            )
            for _ in range(3)
        ]
        for _ in range(20):
            handle = rng.choice(handles)
            service.report(
                handle.session_id,
                rng.randrange(3),
                space.random_position(rng),
            )
        oracle = poi_space.index.oracle
        assert oracle.rows_computed > 2
        assert oracle.resident_rows <= 2

    def test_distance_row_is_a_read_only_view(self, space):
        nodes = list(space.graph.nodes)
        got = space.node_distances(nodes[0])
        assert len(got) == len(nodes) and list(got) == nodes
        assert got[nodes[0]] == 0.0
        assert all(type(got.get(n)) is float for n in nodes)
        assert got.get("no such node") is None
        assert got.get("no such node", -1.0) == -1.0
        with pytest.raises(KeyError):
            got["no such node"]
        with pytest.raises(TypeError):
            got[nodes[1]] = 0.0
        assert dict(got) == dict(space.node_distances(nodes[0]))

    def test_distance_row_outlives_its_eviction(self, space):
        oracle = oracle_for(
            space, OracleConfig(row_cache_bytes=row_budget(space, 1))
        )
        a, b = list(space.graph.nodes)[:2]
        view = space.node_distances(a)
        space.node_distances(b)  # evicts a's row from the one-row budget
        assert oracle.resident_rows == 1 and oracle.rows_computed == 2
        expected = nx.single_source_dijkstra_path_length(
            space.graph, a, weight="length"
        )
        assert dict(view.items()) == expected
        # Reading the evicted view recomputes nothing.
        assert oracle.rows_computed == 2

    def test_first_query_installs_the_default_oracle(self, space):
        a, b = list(space.graph.nodes)[:2]
        space.distance(NetworkPosition.at_node(a), NetworkPosition.at_node(b))
        installed = space._distance_oracle
        assert installed is not None and installed.config == OracleConfig()
        # A custom config now comes too late.
        with pytest.raises(ValueError, match="different"):
            oracle_for(
                space, OracleConfig(row_cache_bytes=row_budget(space, 2))
            )


def seeded_pairs(graph, count, seed):
    rng = random.Random(seed)
    nodes = sorted(graph.nodes)
    return [(rng.choice(nodes), rng.choice(nodes)) for _ in range(count)]


class TestPath:
    """``DistanceOracle.path``, refereed by networkx's Dijkstra: node for
    node where shortest paths are unique, a valid shortest walk where
    they tie, and invisible to the row cache either way."""

    @pytest.mark.parametrize(
        "graph, pairs",
        [
            (lambda: city_graph(grid_size=16, seed=17), 200),
            (lambda: city_graph(grid_size=40, seed=5), 60),
            (
                lambda: build_road_network(
                    Rect(0, 0, 1000, 1000), NetworkParams(grid_size=10), seed=3
                ),
                200,
            ),
        ],
        ids=["city16", "city40", "road_network"],
    )
    def test_unique_paths_equal_networkx(self, graph, pairs):
        graph = graph()
        oracle = DistanceOracle(NetworkSpace(graph))
        for a, b in seeded_pairs(graph, pairs, seed=len(graph)):
            assert oracle.path(a, b) == nx.shortest_path(
                graph, a, b, weight="length"
            )

    def test_tied_paths_are_shortest_walks(self):
        graph = nx.grid_2d_graph(9, 9)
        nx.set_edge_attributes(graph, 1.0, "length")
        oracle = DistanceOracle(NetworkSpace(graph))
        for a, b in seeded_pairs(graph, 100, seed=2):
            path = oracle.path(a, b)
            assert path[0] == a and path[-1] == b
            assert all(graph.has_edge(u, v) for u, v in zip(path, path[1:]))
            length = sum(
                graph.edges[u, v]["length"] for u, v in zip(path, path[1:])
            )
            assert length == nx.shortest_path_length(
                graph, a, b, weight="length"
            )

    def test_edges(self, space):
        oracle = oracle_for(space)
        node = next(iter(space.graph.nodes))
        assert oracle.path(node, node) == [node]
        with pytest.raises(KeyError):
            oracle.path(node, "no such node")
        with pytest.raises(KeyError):
            oracle.path("no such node", node)

    def test_unreachable_target_raises(self):
        graph = nx.Graph()
        graph.add_edge("a", "b", length=1.0)
        graph.add_edge("c", "d", length=1.0)
        oracle = DistanceOracle(SimpleNamespace(graph=graph))
        assert oracle.path("a", "b") == ["a", "b"]
        with pytest.raises(ValueError, match="no path"):
            oracle.path("a", "d")

    def test_paths_leave_cache_and_counters_alone(self, space):
        oracle = oracle_for(
            space, OracleConfig(row_cache_bytes=row_budget(space, 2))
        )
        nodes = list(space.graph.nodes)
        for node in nodes[:3]:
            oracle.row(oracle.node_id[node])  # fills and evicts
        before, resident = oracle.stats(), list(oracle._rows)
        for a, b in seeded_pairs(space.graph, 50, seed=4):
            oracle.path(a, b)
        assert oracle.stats() == before
        assert list(oracle._rows) == resident


class TestSharing:
    def test_oracle_for_returns_one_instance(self, space):
        first = oracle_for(space)
        assert oracle_for(space) is first
        assert oracle_for(space, first.config) is first
        with pytest.raises(ValueError, match="different"):
            oracle_for(space, OracleConfig(row_cache_bytes=123456))

    def test_replicas_share_rows_and_counters(self, space):
        pois = list(space.graph.nodes)[:6]
        original = NetworkPOISpace(space, pois)
        replica = original.replicate()
        assert replica.index.oracle is original.index.oracle
        original.distance(pois[0], pois[1])
        misses = original.index.oracle.misses
        # The replica reads the very same cached row: a hit, no miss.
        replica.distance(pois[0], pois[1])
        oracle = replica.index.oracle
        assert oracle.misses == misses and oracle.hits >= 1

    def test_space_epochs_share_the_oracle(self, space):
        pois = list(space.graph.nodes)[:6]
        shared = NetworkPOISpace(space, pois)
        assert shared.index.oracle is oracle_for(space)
        before = shared.index.oracle.stats()
        epoch = shared.epoch
        shared.bulk_update(adds=[(list(space.graph.nodes)[10], None)])
        assert shared.epoch == epoch + 1
        assert shared.index.oracle is oracle_for(space)
        assert shared.index.oracle.stats() == before

    def test_poi_churn_never_touches_the_cache(self, space):
        """The regression pin for the sharing satellite: the cache is
        keyed on graph structure, and POI churn never mutates it."""
        nodes = list(space.graph.nodes)
        poi_space = NetworkPOISpace(space, nodes[:8])
        index = poi_space.index
        oracle = index.oracle
        rows = [oracle.row(oracle.node_id[n]) for n in nodes[:3]]
        snapshot = oracle.stats()
        indptr, indices, weights = oracle.indptr, oracle.indices, oracle.weights
        for step in range(6):
            index.bulk_update(
                adds=[(nodes[10 + step], f"p{step}")],
                removes=[(nodes[step], None)] if step < 3 else (),
            )
        # Same arrays (identity), same resident rows, untouched counters.
        assert oracle.indptr is indptr
        assert oracle.indices is indices
        assert oracle.weights is weights
        assert oracle.stats() == snapshot
        for node, row in zip(nodes[:3], rows):
            assert oracle.row(oracle.node_id[node]) is row


class TestServiceAndClusterStats:
    def test_service_oracle_stats_per_space(self, space):
        from repro.workloads.poi import build_poi_tree, uniform_pois
        from tests.conftest import SMALL_WORLD

        euclidean = MPNService(
            build_poi_tree(uniform_pois(20, SMALL_WORLD, seed=4))
        )
        assert euclidean.oracle_stats() == {}  # no road networks, no oracle
        net = NetworkPOISpace(space, list(space.graph.nodes)[:6])
        euclidean.add_space("roads", net)
        net.space.node_distances(list(space.graph.nodes)[0])
        stats = euclidean.oracle_stats()
        assert set(stats) == {"roads"}
        assert stats["roads"]["rows_computed"] >= 1

    def test_cluster_holds_one_cache_not_n(self, space):
        from repro.cluster import MPNCluster
        from repro.simulation import net_circle_policy

        pois = random.Random(5).sample(list(space.graph.nodes), 8)
        cluster = MPNCluster(
            num_shards=3,
            space_factory=lambda: NetworkPOISpace(space, pois),
        )
        oracles = {
            id(shard.get_space("default").index.oracle)
            for shard in cluster.shards
        }
        assert len(oracles) == 1  # N shards, one oracle
        rng = random.Random(9)
        handles = [
            cluster.open_session(
                [space.random_position(rng) for _ in range(2)],
                net_circle_policy(),
            )
            for _ in range(6)
        ]
        served_by = {cluster.shard_for(h.session_id) for h in handles}
        assert len(served_by) > 1  # traffic really crossed shards
        for handle in handles:
            cluster.report(
                handle.session_id, 0, space.random_position(rng)
            )
        stats = cluster.oracle_stats()
        assert set(stats) == {"default"}
        assert stats["default"]["rows_computed"] > 0
        # All shards' traffic landed on the one shared cache.
        front = cluster.shards[0].get_space("default").index.oracle
        assert stats["default"] == front.stats()
