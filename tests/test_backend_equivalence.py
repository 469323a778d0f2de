"""Index equivalence: ``FlatRTree`` against an exhaustive reference.

Seeded randomized suites assert that the flat R-tree returns what an
exhaustive scan of the same points returns — modulo ties, which are
compared in distance space — for every query primitive of the
``SpatialIndex`` protocol: knn, window range, circle range, k-GNN (MAX
and SUM, refereed by :mod:`repro.gnn.bruteforce`), the Theorem-3/6
candidate scans, and the batched many-query variants.  The worlds hold
duplicate POIs on purpose, so ties are always in play.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.core.pruning import all_candidates, max_candidates, sum_candidates
from repro.core.types import SafeRegionStats
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.geometry.region import TileRegion
from repro.geometry.tile import tile_at
from repro.gnn.aggregate import Aggregate, find_gnn
from repro.gnn.bruteforce import brute_force_gnn
from repro.index.backend import build_index

WORLD = Rect(0.0, 0.0, 1000.0, 1000.0)


def _pois(rng: random.Random, n: int) -> list[Point]:
    # A few duplicates on purpose: ties must not break the index.
    pts = [WORLD.sample(rng) for _ in range(n)]
    pts.extend(pts[: max(1, n // 50)])
    return pts


def _point_key(p: Point) -> tuple[float, float]:
    return (p.x, p.y)


def _dist_profile(points, score) -> list[float]:
    """Sorted rounded scores — the tie-insensitive result signature."""
    return sorted(round(score(p), 9) for p in points)


def _knn_profile(pois, q: Point, k: int) -> list[float]:
    """The exhaustive k-NN answer's signature."""
    return _dist_profile(pois, q.dist)[:k]


def _window_scan(pois, window: Rect) -> list[tuple[float, float]]:
    return sorted(_point_key(p) for p in pois if window.contains_point(p))


def _gnn_scores(pois, users, k: int, agg: str) -> list[float]:
    return [s for s, _ in brute_force_gnn(pois, users, k, Aggregate(agg))]


def _random_window(rng: random.Random) -> Rect:
    a, b = WORLD.sample(rng), WORLD.sample(rng)
    return Rect(min(a.x, b.x), min(a.y, b.y), max(a.x, b.x), max(a.y, b.y))


@pytest.fixture(scope="module", params=[0, 1, 2])
def seeded_world(request):
    rng = random.Random(1000 + request.param)
    pois = _pois(rng, 400)
    return rng, pois, build_index(pois)


class TestKnnEquivalence:
    def test_knn_distance_profiles_match(self, seeded_world):
        rng, pois, tree = seeded_world
        for _ in range(20):
            q = WORLD.sample(rng)
            k = rng.randint(1, 12)
            got = _dist_profile((e.point for e in tree.knn(q, k)), q.dist)
            assert got == pytest.approx(_knn_profile(pois, q, k))

    def test_incremental_nearest_prefixes_match(self, seeded_world):
        rng, pois, tree = seeded_world
        q = WORLD.sample(rng)
        got = [e.point.dist(q) for e in itertools.islice(tree.incremental_nearest(q), 50)]
        assert got == pytest.approx(sorted(p.dist(q) for p in pois)[:50])

    def test_knn_many_matches_singles(self, seeded_world):
        rng, pois, tree = seeded_world
        queries = [WORLD.sample(rng) for _ in range(15)]
        batched = tree.knn_many(queries, 5)
        for q, batch in zip(queries, batched):
            profile = _dist_profile((e.point for e in batch), q.dist)
            single = _dist_profile((e.point for e in tree.knn(q, 5)), q.dist)
            assert profile == pytest.approx(single)
            assert profile == pytest.approx(_knn_profile(pois, q, 5))


class TestRangeEquivalence:
    def test_window_ranges_match(self, seeded_world):
        rng, pois, tree = seeded_world
        for _ in range(20):
            window = _random_window(rng)
            got = sorted(_point_key(e.point) for e in tree.range_query(window))
            assert got == _window_scan(pois, window)

    def test_circle_ranges_match(self, seeded_world):
        rng, pois, tree = seeded_world
        for _ in range(20):
            center = WORLD.sample(rng)
            radius = rng.uniform(5.0, 300.0)
            got = sorted(
                _point_key(e.point) for e in tree.circle_range_query(center, radius)
            )
            want = sorted(_point_key(p) for p in pois if p.dist(center) <= radius)
            assert got == want

    def test_range_many_matches_singles(self, seeded_world):
        rng, pois, tree = seeded_world
        windows = [_random_window(rng) for _ in range(12)]
        batched = tree.range_many(windows)
        for window, batch in zip(windows, batched):
            got = sorted(_point_key(e.point) for e in batch)
            assert got == sorted(_point_key(e.point) for e in tree.range_query(window))
            assert got == _window_scan(pois, window)


class TestGnnEquivalence:
    @pytest.mark.parametrize("objective", [Aggregate.MAX, Aggregate.SUM])
    def test_find_gnn_scores_match(self, seeded_world, objective):
        rng, pois, tree = seeded_world
        for _ in range(12):
            users = [WORLD.sample(rng) for _ in range(rng.randint(1, 6))]
            k = rng.randint(1, 8)
            got = [round(s, 9) for s, _ in find_gnn(tree, users, k, objective)]
            want = [round(s, 9) for s in _gnn_scores(pois, users, k, objective.value)]
            assert got == pytest.approx(want)

    @pytest.mark.parametrize("agg", ["max", "sum"])
    def test_gnn_many_matches_singles(self, seeded_world, agg):
        rng, pois, tree = seeded_world
        groups = [[WORLD.sample(rng) for _ in range(4)] for _ in range(10)]
        batched = tree.gnn_many(groups, 3, agg)
        for group, batch in zip(groups, batched):
            scores = [s for s, _ in batch]
            assert scores == pytest.approx([s for s, _ in tree.gnn(group, 3, agg)])
            assert scores == pytest.approx(_gnn_scores(pois, group, 3, agg))

    @pytest.mark.parametrize("agg", ["max", "sum"])
    def test_gnn_many_ragged_groups_fall_back(self, seeded_world, agg):
        rng, pois, tree = seeded_world
        groups = [
            [WORLD.sample(rng) for _ in range(rng.randint(1, 5))] for _ in range(6)
        ]
        batched = tree.gnn_many(groups, 2, agg)
        for group, batch in zip(groups, batched):
            scores = [s for s, _ in batch]
            assert scores == pytest.approx([s for s, _ in tree.gnn(group, 2, agg)])
            assert scores == pytest.approx(_gnn_scores(pois, group, 2, agg))


class TestCandidateEquivalence:
    """Theorems 3 and 6: the index must prune to the exhaustive set."""

    def _scenario(self, rng, pois):
        users = [WORLD.sample(rng) for _ in range(rng.randint(1, 5))]
        side = rng.uniform(10.0, 60.0)
        regions = [TileRegion(u, side, [tile_at(u, side, 0, 0)]) for u in users]
        po = pois[brute_force_gnn(pois, users, 1, Aggregate.MAX)[0][1]]
        return users, regions, po

    def test_theorem3_candidate_sets_match(self, seeded_world):
        rng, pois, tree = seeded_world
        for _ in range(10):
            users, regions, po = self._scenario(rng, pois)
            got = sorted(
                _point_key(p) for p in max_candidates(tree, users, regions, 0, None, po)
            )
            # ||p, ui|| <= ||po, R||_top + r_up_i for every user i.
            top = max(region.max_dist(po) for region in regions)
            radii = [top + region.r_up for region in regions]
            want = sorted(
                _point_key(p)
                for p in pois
                if p != po and all(p.dist(u) <= r for u, r in zip(users, radii))
            )
            assert got == want

    def test_theorem6_candidate_sets_match(self, seeded_world):
        rng, pois, tree = seeded_world
        for _ in range(10):
            users, regions, po = self._scenario(rng, pois)
            got = sorted(
                _point_key(p) for p in sum_candidates(tree, users, regions, 0, None, po)
            )
            # ||p, U||_sum <= ||po, U||_sum + 2 * sum_i r_up_i.
            threshold = sum(po.dist(u) for u in users) + 2.0 * sum(
                region.r_up for region in regions
            )
            want = sorted(
                _point_key(p)
                for p in pois
                if p != po and sum(p.dist(u) for u in users) <= threshold
            )
            assert got == want

    def test_all_candidates_match_and_count_real_accesses(self, seeded_world):
        _, pois, tree = seeded_world
        po = pois[0]
        stats = SafeRegionStats()
        got = sorted(_point_key(p) for p in all_candidates(tree, po, stats))
        assert got == sorted(_point_key(p) for p in pois if p != po)
        # A full unpruned scan must visit every node of the tree.
        assert stats.index_node_accesses == sum(len(level) for level in tree._levels)

    def test_intersect_balls_stats_positive(self, seeded_world):
        rng, _, tree = seeded_world
        users = [WORLD.sample(rng) for _ in range(3)]
        radii = [200.0, 250.0, 300.0]
        stats = SafeRegionStats()
        tree.intersect_balls(users, radii, stats=stats)
        assert stats.index_node_accesses >= 1


class TestStructuralParity:
    def test_len_and_points_agree(self, seeded_world):
        _, pois, tree = seeded_world
        assert len(tree) == len(pois)
        assert sorted(_point_key(p) for p in tree.points()) == sorted(
            _point_key(p) for p in pois
        )

    def test_validate_passes(self, seeded_world):
        seeded_world[2].validate()

    def test_insert_delete_roundtrip(self, seeded_world):
        _, _, tree = seeded_world
        extra = Point(-5.0, -5.0)
        n = len(tree)
        tree.insert(extra, "extra")
        assert len(tree) == n + 1
        assert tree.nearest(Point(-6.0, -6.0)).point == extra
        assert tree.delete(extra, "extra")
        assert len(tree) == n
        tree.validate()

    def test_bulk_update_roundtrip(self, seeded_world):
        _, _, tree = seeded_world
        adds = [(Point(-10.0 - i, -10.0), f"bulk{i}") for i in range(5)]
        n = len(tree)
        tree.bulk_update(adds=adds)
        assert len(tree) == n + 5
        assert tree.nearest(Point(-11.0, -10.0)).point == adds[1][0]
        tree.bulk_update(removes=adds)
        assert len(tree) == n
        tree.validate()

    def test_bulk_update_missing_removal_is_atomic(self, seeded_world):
        _, pois, tree = seeded_world
        # A removable entry ahead of the missing one: the batch must
        # fail WITHOUT applying the valid removal.
        n = len(tree)
        with pytest.raises(KeyError):
            tree.bulk_update(removes=[(pois[0], None), (Point(-999.0, -999.0), None)])
        assert len(tree) == n
        assert sorted(_point_key(p) for p in tree.points()) == sorted(
            _point_key(p) for p in pois
        )
