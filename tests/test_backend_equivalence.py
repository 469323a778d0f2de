"""Index equivalence: ``FlatRTree`` against an exhaustive reference.

Seeded randomized suites assert that the flat R-tree returns what an
exhaustive scan of the same points returns — modulo ties, which are
compared in distance space — for every query primitive of the
``SpatialIndex`` protocol: k-GNN (MAX and SUM, refereed by
:mod:`repro.gnn.bruteforce`; plain k-NN is the one-user group), its
batched many-group variant, and the Theorem-3/6 candidate scans.  The
worlds hold duplicate POIs on purpose, so ties are always in play.
"""

from __future__ import annotations

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
from repro.index.flat import FlatRTree

WORLD = Rect(0.0, 0.0, 1000.0, 1000.0)


def _pois(rng: random.Random, n: int) -> list[Point]:
    # A few duplicates on purpose: ties must not break the index.
    pts = [WORLD.sample(rng) for _ in range(n)]
    pts.extend(pts[: max(1, n // 50)])
    return pts


def _point_key(p: Point) -> tuple[float, float]:
    return (p.x, p.y)


def _gnn_scores(pois, users, k: int, agg: str) -> list[float]:
    return [s for s, _ in brute_force_gnn(pois, users, k, Aggregate(agg))]


@pytest.fixture(scope="module", params=[0, 1, 2])
def seeded_world(request):
    rng = random.Random(1000 + request.param)
    pois = _pois(rng, 400)
    return rng, pois, build_index(pois)


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

    @pytest.mark.parametrize("m", [1, 4])
    @pytest.mark.parametrize("agg", ["max", "sum"])
    def test_gnn_many_matches_singles(self, seeded_world, agg, m):
        # Bit for bit: the batched kernel scores one-user groups (plain
        # k-NN) with the same float ops as every other group size.
        rng, pois, tree = seeded_world
        groups = [[WORLD.sample(rng) for _ in range(m)] for _ in range(10)]
        batched = tree.gnn_many(groups, 3, agg)
        key = lambda row: [(s, e.point, e.payload) for s, e in row]
        for group, batch in zip(groups, batched):
            assert key(batch) == key(tree.gnn(group, 3, agg))
            scores = [s for s, _ in batch]
            assert scores == pytest.approx(_gnn_scores(pois, group, 3, agg))

    @pytest.mark.parametrize("agg", ["max", "sum"])
    def test_gnn_many_buffer_depth(self, seeded_world, agg):
        # The Section 5.4 buffer asks for k = b + 1 (here b = 8): deep
        # batched answers must still be the exhaustive scan's prefix.
        rng, pois, tree = seeded_world
        groups = [[WORLD.sample(rng) for _ in range(3)] for _ in range(8)]
        for group, batch in zip(groups, tree.gnn_many(groups, 9, agg)):
            scores = [s for s, _ in batch]
            assert scores == pytest.approx(_gnn_scores(pois, group, 9, agg))

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
        assert tree.gnn([Point(-6.0, -6.0)])[0][1].point == extra
        assert tree.delete(extra, "extra")
        assert len(tree) == n
        tree.validate()

    def test_bulk_update_roundtrip(self, seeded_world):
        _, _, tree = seeded_world
        adds = [(Point(-10.0 - i, -10.0), f"bulk{i}") for i in range(5)]
        n = len(tree)
        tree.bulk_update(adds=adds)
        assert len(tree) == n + 5
        assert tree.gnn([Point(-11.0, -10.0)])[0][1].point == adds[1][0]
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


class TestDeltaEquivalence:
    """Answers read through the delta layer — tombstoned packed slots
    and arena inserts, before any repack — match an exhaustive scan of
    the live point set, and a repack leaves them unchanged."""

    @pytest.fixture
    def churned(self, seeded_world):
        rng, pois, _ = seeded_world
        # A delta fraction this large never repacks on its own.
        tree = FlatRTree.bulk_load(pois, delta_fraction=10.0)
        removed = set(rng.sample(range(len(pois)), 40))
        adds = [(WORLD.sample(rng), f"new{i}") for i in range(30)]
        tree.bulk_update(adds=adds, removes=[(pois[i], i) for i in sorted(removed)])
        live = [p for i, p in enumerate(pois) if i not in removed]
        live.extend(p for p, _ in adds)
        assert tree.delta_debt() == 70
        return rng, live, tree

    def test_gnn_matches_live_points(self, churned):
        rng, live, tree = churned
        for agg in ("max", "sum"):
            for _ in range(6):
                users = [WORLD.sample(rng) for _ in range(rng.randint(1, 5))]
                scores = [s for s, _ in tree.gnn(users, 4, agg)]
                assert scores == pytest.approx(_gnn_scores(live, users, 4, agg))

    def test_gnn_many_matches_live_points(self, churned):
        rng, live, tree = churned
        for agg in ("max", "sum"):
            groups = [[WORLD.sample(rng) for _ in range(3)] for _ in range(8)]
            for group, batch in zip(groups, tree.gnn_many(groups, 4, agg)):
                scores = [s for s, _ in batch]
                assert scores == pytest.approx(_gnn_scores(live, group, 4, agg))

    def test_scans_match_live_points(self, churned):
        rng, live, tree = churned
        users = [WORLD.sample(rng) for _ in range(3)]
        radii = [350.0, 400.0, 450.0]
        got = sorted(_point_key(p) for p in tree.intersect_balls(users, radii))
        want = sorted(
            _point_key(p)
            for p in live
            if all(p.dist(u) <= r for u, r in zip(users, radii))
        )
        assert got == want
        threshold = 1500.0
        got = sorted(_point_key(p) for p in tree.within_dist_sum(users, threshold))
        want = sorted(
            _point_key(p) for p in live if sum(p.dist(u) for u in users) <= threshold
        )
        assert got == want
        assert sorted(_point_key(p) for p in tree.scan()) == sorted(
            _point_key(p) for p in live
        )

    def test_repack_preserves_answers(self, churned):
        rng, live, tree = churned
        groups = [[WORLD.sample(rng) for _ in range(2)] for _ in range(6)]
        key = lambda rows: [[(s, e.point) for s, e in row] for row in rows]
        before = key(tree.gnn_many(groups, 3, "sum"))
        builds = tree.build_count
        tree.repack()
        assert tree.build_count == builds + 1
        assert tree.delta_debt() == 0
        tree.validate()
        # Arena and packed copies of a point score with the same float
        # ops, so the repacked answers are bit-identical.
        assert key(tree.gnn_many(groups, 3, "sum")) == before
        assert sorted(_point_key(p) for p in tree.points()) == sorted(
            _point_key(p) for p in live
        )
