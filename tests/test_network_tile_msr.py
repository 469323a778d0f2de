"""Tests for the network Tile-MSR (recursive road partitions)."""

import random

import pytest

from repro.geometry.rect import Rect
from repro.gnn.aggregate import Aggregate
from repro.mobility.network import NetworkParams, build_road_network
from repro.network_ext.gnn import network_gnn
from repro.network_ext.space import NetworkPosition, NetworkSpace
from repro.network_ext.tile_msr import (
    EdgeInterval,
    NetworkTileConfig,
    NetworkTileRegion,
    network_tile_msr,
)

WORLD = Rect(0, 0, 1000, 1000)


@pytest.fixture(scope="module")
def space():
    graph = build_road_network(WORLD, NetworkParams(grid_size=5), seed=15)
    return NetworkSpace(graph)


@pytest.fixture(scope="module")
def pois(space):
    rng = random.Random(4)
    return rng.sample(list(space.graph.nodes), 8)


class TestEdgeInterval:
    def test_validation(self):
        with pytest.raises(ValueError):
            EdgeInterval("a", "b", 2.0, 1.0)

    def test_halves(self):
        left, right = EdgeInterval("a", "b", 0.0, 4.0).halves()
        assert (left.lo, left.hi) == (0.0, 2.0)
        assert (right.lo, right.hi) == (2.0, 4.0)


class TestNetworkTileRegion:
    def test_add_and_contains(self, space):
        u, v = next(iter(space.graph.edges))
        length = space.edge_length(u, v)
        region = NetworkTileRegion(space, NetworkPosition.at_node(u))
        region.add(EdgeInterval(u, v, 0.0, length / 2))
        assert region.contains(NetworkPosition.on_edge(u, v, length / 4))
        assert not region.contains(NetworkPosition.on_edge(u, v, 0.9 * length))
        assert region.contains(NetworkPosition.at_node(u))

    def test_merge_overlapping_spans(self, space):
        u, v = next(iter(space.graph.edges))
        length = space.edge_length(u, v)
        region = NetworkTileRegion(space, NetworkPosition.at_node(u))
        region.add(EdgeInterval(u, v, 0.0, 0.4 * length))
        region.add(EdgeInterval(u, v, 0.3 * length, 0.7 * length))
        assert len(region.intervals()) == 1
        assert region.covered_length() == pytest.approx(0.7 * length)

    def test_flipped_edge_orientation(self, space):
        u, v = next(iter(space.graph.edges))
        length = space.edge_length(u, v)
        region = NetworkTileRegion(space, NetworkPosition.at_node(u))
        # Add via the reversed orientation; containment must agree.
        region.add(EdgeInterval(v, u, 0.0, length / 4))
        assert region.contains(NetworkPosition.on_edge(u, v, 0.9 * length))
        assert region.contains(NetworkPosition.on_edge(v, u, 0.1 * length))

    def test_dist_pair_brackets_sampled_distances(self, space):
        rng = random.Random(6)
        node = next(iter(space.graph.nodes))
        anchor = space.random_position(rng)
        region = NetworkTileRegion(space, anchor)
        for _ in range(4):
            u, v = list(space.graph.edges)[rng.randrange(space.graph.number_of_edges())]
            length = space.edge_length(u, v)
            a = rng.uniform(0, length / 2)
            region.add(EdgeInterval(u, v, a, rng.uniform(a, length)))
        dist_map = space.node_distances(node)
        low, high = region.dist_pair_to_node(node, dist_map)
        target = NetworkPosition.at_node(node)
        for _ in range(60):
            pos = region.sample(rng)
            d = space.distance(pos, target)
            assert low - 1e-6 <= d <= high + 1e-6

    def test_r_up_bounds_anchor_distance(self, space):
        rng = random.Random(8)
        anchor = space.random_position(rng)
        region = NetworkTileRegion(space, anchor)
        u, v = next(iter(space.graph.edges))
        region.add(EdgeInterval(u, v, 0.0, space.edge_length(u, v)))
        for _ in range(40):
            pos = region.sample(rng)
            assert space.distance(anchor, pos) <= region.r_up + 1e-6

    def test_wire_values(self, space):
        region = NetworkTileRegion(space, NetworkPosition.at_node(next(iter(space.graph.nodes))))
        assert region.wire_values() == 1
        u, v = next(iter(space.graph.edges))
        region.add(EdgeInterval(u, v, 0.0, 1.0))
        assert region.wire_values() == 4


class TestNetworkTileMSR:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            NetworkTileConfig(alpha=0)
        with pytest.raises(ValueError):
            NetworkTileConfig(split_level=-1)

    def test_sum_objective_soundness(self, space, pois):
        """Definition 3 under the SUM objective in the network metric."""
        rng = random.Random(1)
        for trial in range(3):
            users = [space.random_position(rng) for _ in range(2)]
            result = network_tile_msr(
                space,
                pois,
                users,
                NetworkTileConfig(alpha=12, split_level=1),
                objective=Aggregate.SUM,
            )
            po_target = NetworkPosition.at_node(result.po)
            for _ in range(40):
                locs = [r.sample(rng) for r in result.regions]
                best_dist, _ = network_gnn(space, pois, locs, 1, Aggregate.SUM)[0]
                po_dist = sum(space.distance(l, po_target) for l in locs)
                assert po_dist <= best_dist + 1e-6

    def test_regions_contain_users(self, space, pois):
        rng = random.Random(3)
        users = [space.random_position(rng) for _ in range(3)]
        result = network_tile_msr(space, pois, users)
        for region, user in zip(result.regions, users):
            assert region.contains(user, eps=1e-6)

    def test_regions_extend_seed_balls(self, space, pois):
        """Recursive partitions should cover more road length than the
        Theorem 1 balls they start from (on typical layouts)."""
        rng = random.Random(5)
        users = [space.random_position(rng) for _ in range(2)]
        result = network_tile_msr(
            space, pois, users, NetworkTileConfig(alpha=25, split_level=2)
        )
        total = sum(r.covered_length() for r in result.regions)
        # The seed balls cover at most 2 * radius * degree per user;
        # just require meaningful, positive coverage beyond tiny balls.
        assert total > 2 * result.radius

    def test_definition3_soundness(self, space, pois):
        """The headline guarantee in the network metric: sampled
        instances inside the regions never change the meeting POI."""
        rng = random.Random(7)
        for trial in range(3):
            users = [space.random_position(rng) for _ in range(3)]
            result = network_tile_msr(
                space, pois, users, NetworkTileConfig(alpha=15, split_level=1)
            )
            po_target = NetworkPosition.at_node(result.po)
            for _ in range(40):
                locs = [r.sample(rng) for r in result.regions]
                best_dist, _ = network_gnn(space, pois, locs, 1, Aggregate.MAX)[0]
                po_dist = max(space.distance(l, po_target) for l in locs)
                assert po_dist <= best_dist + 1e-6, (
                    f"meeting POI changed inside network regions "
                    f"({po_dist} > {best_dist})"
                )

    def test_single_poi_covers_network(self, space):
        rng = random.Random(9)
        users = [space.random_position(rng)]
        only = [next(iter(space.graph.nodes))]
        result = network_tile_msr(space, only, users)
        assert result.radius == float("inf")
        for _ in range(20):
            assert result.regions[0].contains(space.random_position(rng))

    def test_stats_populated(self, space, pois):
        rng = random.Random(11)
        users = [space.random_position(rng) for _ in range(2)]
        result = network_tile_msr(space, pois, users)
        assert result.stats.tiles_added >= 1
        assert result.stats.tile_verifications >= 1

    def test_index_seed_matches_brute_seed(self, space, pois):
        """``index=`` only swaps the seed's GNN retrieval: same po,
        same radius, same grown regions."""
        from repro.index.network import NetworkIndex

        rng = random.Random(13)
        index = NetworkIndex(space, pois)
        for _ in range(3):
            users = [space.random_position(rng) for _ in range(2)]
            brute = network_tile_msr(space, pois, users)
            fast = network_tile_msr(space, pois, users, index=index)
            assert fast.po == brute.po
            assert fast.radius == brute.radius
            assert [
                sorted((str(iv.u), str(iv.v), iv.lo, iv.hi) for iv in r.intervals())
                for r in fast.regions
            ] == [
                sorted((str(iv.u), str(iv.v), iv.lo, iv.hi) for iv in r.intervals())
                for r in brute.regions
            ]


def one_edge_space(length=100.0):
    """The degenerate road network: two nodes joined by one edge."""
    import networkx as nx

    graph = nx.Graph()
    graph.add_edge("a", "b", length=length)
    return NetworkSpace(graph)


class TestDegenerateGraphs:
    def test_one_edge_graph_circle_and_tile(self):
        space = one_edge_space(100.0)
        pois = ["a", "b"]
        users = [NetworkPosition.on_edge("a", "b", 30.0)]
        result = network_tile_msr(space, pois, users)
        # Closest endpoint wins; the region must cover the user and
        # never extend past the midpoint tie with the runner-up.
        assert result.po == "a"
        assert result.regions[0].contains(users[0])
        rng = random.Random(2)
        for _ in range(50):
            pos = result.regions[0].sample(rng)
            best_dist, _ = network_gnn(space, pois, [pos], 1)[0]
            assert space.distance(
                pos, NetworkPosition.at_node("a")
            ) <= best_dist + 1e-9

    def test_one_edge_graph_user_at_node(self):
        space = one_edge_space(60.0)
        result = network_tile_msr(
            space, ["a", "b"], [NetworkPosition.at_node("a")]
        )
        assert result.po == "a"
        assert result.po_dist == 0.0
        assert result.radius == pytest.approx(30.0)

    def test_single_poi_on_one_edge_graph_covers_everything(self):
        space = one_edge_space(42.0)
        result = network_tile_msr(
            space, ["b"], [NetworkPosition.on_edge("a", "b", 1.0)]
        )
        assert result.radius == float("inf")
        assert result.regions[0].contains(NetworkPosition.at_node("a"))
        assert result.regions[0].contains(NetworkPosition.at_node("b"))


class TestPOIAtNode:
    def test_poi_exactly_at_user_node(self, space, pois):
        """Zero-distance optimum: the user stands on a POI node."""
        poi = pois[0]
        users = [NetworkPosition.at_node(poi)]
        result = network_tile_msr(space, pois, users)
        assert result.po == poi
        assert result.po_dist == 0.0
        assert result.regions[0].contains(users[0])
        # Soundness around a zero-distance optimum: sampled positions
        # inside the region never prefer another POI.
        rng = random.Random(3)
        target = NetworkPosition.at_node(poi)
        for _ in range(40):
            pos = result.regions[0].sample(rng)
            best_dist, _ = network_gnn(space, pois, [pos], 1)[0]
            assert space.distance(pos, target) <= best_dist + 1e-9

    def test_all_users_on_distinct_poi_nodes(self, space, pois):
        users = [NetworkPosition.at_node(p) for p in pois[:3]]
        result = network_tile_msr(space, pois, users)
        exact = network_gnn(space, pois, users, 1)[0]
        assert result.po == exact[1]
        for region, user in zip(result.regions, users):
            assert region.contains(user)


class TestBudgetExhaustion:
    def test_alpha_budget_caps_frontier_growth(self, space, pois):
        """alpha=1 examines one frontier edge per user; coverage must
        stay within the seeded ball plus that single edge."""
        rng = random.Random(17)
        users = [space.random_position(rng) for _ in range(2)]
        tight = network_tile_msr(
            space, pois, users, NetworkTileConfig(alpha=1, split_level=0)
        )
        loose = network_tile_msr(
            space, pois, users, NetworkTileConfig(alpha=30, split_level=2)
        )
        assert sum(r.covered_length() for r in tight.regions) <= sum(
            r.covered_length() for r in loose.regions
        )
        for region, user in zip(tight.regions, users):
            assert region.contains(user, eps=1e-6)

    def test_split_level_zero_rejects_unverifiable_intervals(self, space, pois):
        rng = random.Random(19)
        users = [space.random_position(rng) for _ in range(2)]
        result = network_tile_msr(
            space, pois, users, NetworkTileConfig(alpha=25, split_level=0)
        )
        # With no recursive halving, whole-gap rejections must show up
        # in the stats (growth hits competitor territory quickly).
        assert result.stats.tiles_rejected >= 1

    def test_max_radius_factor_caps_reach(self, space, pois):
        """A sub-1 growth cap leaves every region inside a small
        multiple of the seed radius around its anchor."""
        rng = random.Random(23)
        users = [space.random_position(rng) for _ in range(2)]
        result = network_tile_msr(
            space,
            pois,
            users,
            NetworkTileConfig(alpha=50, split_level=1, max_radius_factor=0.5),
        )
        for region in result.regions:
            # r_up tracks the anchor's max distance into the region;
            # seeded ball = radius, frontier capped at half a radius
            # away, plus at most one whole edge beyond the cap.
            longest_edge = max(
                space.edge_length(u, v) for u, v in space.graph.edges
            )
            assert region.r_up <= result.radius + 2 * longest_edge

    def test_exhausted_regions_stay_sound(self, space, pois):
        """Budget exhaustion degrades coverage, never correctness."""
        rng = random.Random(29)
        users = [space.random_position(rng) for _ in range(3)]
        result = network_tile_msr(
            space,
            pois,
            users,
            NetworkTileConfig(alpha=2, split_level=0, max_radius_factor=1.0),
        )
        po_target = NetworkPosition.at_node(result.po)
        for _ in range(40):
            locs = [r.sample(rng) for r in result.regions]
            best_dist, _ = network_gnn(space, pois, locs, 1, Aggregate.MAX)[0]
            po_dist = max(space.distance(l, po_target) for l in locs)
            assert po_dist <= best_dist + 1e-6


class TestDegenerateUnit:
    """An interval no longer than 1e-9 is never verified and charges no
    counter, yet an edge whose only gaps are that short (each wider than
    1e-12) still spends one of the user's ``alpha`` examinations."""

    @staticmethod
    def _case(alpha):
        import networkx as nx

        # The seed ball around ``a`` (radius 2 - 2**-32) reaches edge
        # a-b from ``a`` directly and from ``b`` via ``c``, leaving a gap
        # of 2**-31 (about 4.7e-10) at offset 2.  Edge a-b is the first
        # frontier edge; the pendant a-q, the next one with a gap, is
        # only examined on a second examination.
        graph = nx.Graph()
        graph.add_edge("a", "b", length=3.0)
        graph.add_edge("a", "c", length=0.5)
        graph.add_edge("c", "b", length=0.5)
        graph.add_edge("a", "q", length=4.0 - 2.0**-31)
        space = NetworkSpace(graph)
        return network_tile_msr(
            space,
            ["a", "q"],
            [NetworkPosition.at_node("a")],
            NetworkTileConfig(alpha=alpha, split_level=0),
        )

    def test_degenerate_gap_is_skipped_but_examined(self):
        result = self._case(alpha=1)
        assert result.radius == 2.0 - 2.0**-32
        spans = [
            (iv.lo, iv.hi)
            for iv in result.regions[0].intervals()
            if (iv.u, iv.v) == ("a", "b")
        ]
        assert spans == [(0.0, 2.0 - 2.0**-32), (2.0 + 2.0**-32, 3.0)]
        stats = result.stats
        assert (
            stats.point_checks,
            stats.tile_verifications,
            stats.tiles_added,
            stats.tiles_rejected,
        ) == (0, 0, 0, 0)

    def test_next_edge_needs_a_second_examination(self):
        stats = self._case(alpha=2).stats
        assert (
            stats.point_checks,
            stats.tile_verifications,
            stats.tiles_added,
            stats.tiles_rejected,
        ) == (1, 1, 0, 1)
