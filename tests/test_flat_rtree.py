"""Unit and property tests for the flat R-tree: construction, insert,
delete, k-NN (the one-user GNN) and the candidate scans against brute
force."""

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.gnn.aggregate import Aggregate
from repro.gnn.bruteforce import brute_force_gnn
from repro.index import kernels
from repro.index.backend import build_index
from repro.index.entries import Entry
from repro.index.flat import FlatRTree

coord = st.floats(-1000.0, 1000.0, allow_nan=False, allow_infinity=False)
point_lists = st.lists(
    st.tuples(coord, coord).map(lambda t: Point(*t)), min_size=0, max_size=120
)
small_coord = st.floats(-500.0, 500.0, allow_nan=False, allow_infinity=False)
nonempty_point_lists = st.lists(
    st.tuples(small_coord, small_coord).map(lambda t: Point(*t)),
    min_size=1,
    max_size=80,
)


def _tree(points, build="packed"):
    """A fan-out-5 tree over ``points``, STR-packed or grown by inserts."""
    if build == "packed":
        return build_index(points, max_entries=5)
    tree = build_index([], max_entries=5)
    for i, p in enumerate(points):
        tree.insert(p, i)
    return tree


@pytest.fixture(params=["packed", "inserted"])
def build(request):
    return request.param


class TestConstruction:
    def test_max_entries_validation(self):
        with pytest.raises(ValueError):
            build_index([], max_entries=3)

    def test_empty_tree(self):
        tree = build_index([])
        assert len(tree) == 0
        assert list(tree.entries()) == []
        tree.validate()

    def test_bulk_load_empty(self):
        tree = build_index([], payloads=[])
        assert len(tree) == 0
        assert tree.scan() == []
        assert tree.gnn([Point(0, 0)], 3) == []
        tree.validate()

    def test_bulk_load_payload_mismatch(self):
        with pytest.raises(ValueError):
            build_index([Point(0, 0)], payloads=[1, 2])

    def test_bulk_load_default_payloads_are_indices(self):
        points = [Point(i, i) for i in range(10)]
        tree = build_index(points)
        payloads = sorted(e.payload for e in tree.entries())
        assert payloads == list(range(10))

    def test_bulk_load_custom_payloads(self):
        points = [Point(0, 0), Point(1, 1)]
        tree = build_index(points, payloads=["a", "b"])
        assert {e.payload for e in tree.entries()} == {"a", "b"}

    def test_bulk_load_preserves_all_points(self):
        rng = random.Random(0)
        points = [Point(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(500)]
        tree = build_index(points, max_entries=8)
        assert len(tree) == 500
        assert sorted(p.as_tuple() for p in tree.points()) == sorted(
            p.as_tuple() for p in points
        )
        tree.validate()

    def test_bulk_load_height_logarithmic(self):
        points = [Point(i % 40, i // 40) for i in range(1600)]
        tree = build_index(points, max_entries=16)
        assert tree.height() <= 4
        tree.validate()


class TestInsertion:
    def test_insert_single(self):
        tree = build_index([])
        tree.insert(Point(1, 2), "x")
        assert len(tree) == 1
        assert list(tree.entries())[0].payload == "x"
        tree.validate()

    def test_insert_many_validates(self):
        rng = random.Random(1)
        tree = build_index([], max_entries=6)
        points = [Point(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(300)]
        for i, p in enumerate(points):
            tree.insert(p, i)
        assert len(tree) == 300
        tree.validate()
        assert sorted(e.payload for e in tree.entries()) == list(range(300))

    def test_insert_duplicate_locations(self):
        tree = build_index([], max_entries=4)
        for i in range(50):
            tree.insert(Point(5, 5), i)
        assert len(tree) == 50
        tree.validate()

    def test_insert_collinear(self):
        tree = build_index([], max_entries=4)
        for i in range(100):
            tree.insert(Point(float(i), 0.0), i)
        assert len(tree) == 100
        tree.validate()

    @settings(max_examples=40, deadline=None)
    @given(point_lists)
    def test_insert_arbitrary_sets(self, points):
        tree = build_index([], max_entries=5)
        for i, p in enumerate(points):
            tree.insert(p, i)
        assert len(tree) == len(points)
        tree.validate()


class TestStructure:
    def test_entry_rect_degenerate(self):
        e = Entry(Point(3, 4), None)
        assert e.rect == Rect(3, 4, 3, 4)

    @settings(max_examples=30, deadline=None)
    @given(point_lists)
    def test_bulk_load_structure(self, points):
        tree = build_index(points, max_entries=4)
        assert len(tree) == len(points)
        tree.validate()

    def test_counted_scan_returns_everything(self):
        rng = random.Random(2)
        points = [Point(rng.uniform(-50, 50), rng.uniform(-50, 50)) for _ in range(200)]
        tree = build_index(points)
        got = sorted(p.as_tuple() for p in tree.scan())
        assert got == sorted(p.as_tuple() for p in points)


class TestDelete:
    def test_delete_missing_returns_false(self):
        tree = build_index([Point(0, 0)])
        assert not tree.delete(Point(5, 5))
        assert len(tree) == 1

    def test_delete_single(self):
        tree = build_index([Point(0, 0), Point(1, 1)])
        assert tree.delete(Point(0, 0))
        assert len(tree) == 1
        assert [e.point for e in tree.entries()] == [Point(1, 1)]
        tree.validate()

    def test_delete_by_payload(self):
        tree = build_index([])
        tree.insert(Point(2, 2), "a")
        tree.insert(Point(2, 2), "b")
        assert tree.delete(Point(2, 2), "b")
        assert [e.payload for e in tree.entries()] == ["a"]

    def test_delete_to_empty(self):
        tree = build_index([Point(i, 0) for i in range(5)], max_entries=4)
        for i in range(5):
            assert tree.delete(Point(i, 0))
        assert len(tree) == 0
        tree.validate()

    def test_delete_half_of_large_tree(self):
        rng = random.Random(5)
        points = [Point(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(400)]
        tree = build_index(points, max_entries=8)
        keep = points[200:]
        for p in points[:200]:
            assert tree.delete(p), f"failed to delete {p}"
            tree.validate()
        assert len(tree) == 200
        assert sorted(p.as_tuple() for p in tree.points()) == sorted(
            p.as_tuple() for p in keep
        )

    def test_queries_correct_after_deletions(self):
        rng = random.Random(9)
        points = [Point(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(150)]
        tree = build_index(points, max_entries=6)
        removed = set()
        for p in rng.sample(points, 70):
            tree.delete(p)
            removed.add(p.as_tuple())
        remaining = [p for p in points if p.as_tuple() not in removed]
        q = Point(50, 50)
        got = [e.point.dist(q) for _, e in tree.gnn([q], 10)]
        want = sorted(p.dist(q) for p in remaining)[:10]
        assert got == pytest.approx(want)

    def test_interleaved_insert_delete(self):
        rng = random.Random(13)
        tree = build_index([], max_entries=5)
        live: list[Point] = []
        for step in range(500):
            if live and rng.random() < 0.45:
                victim = live.pop(rng.randrange(len(live)))
                assert tree.delete(victim)
            else:
                p = Point(rng.uniform(0, 100), rng.uniform(0, 100))
                tree.insert(p)
                live.append(p)
            if step % 50 == 0:
                tree.validate()
        assert len(tree) == len(live)
        tree.validate()

    @settings(max_examples=30, deadline=None)
    @given(nonempty_point_lists, st.integers(0, 2**31))
    def test_delete_random_subset_property(self, points, seed):
        tree = build_index(points, max_entries=4)
        rng = random.Random(seed)
        victims = rng.sample(points, len(points) // 2)
        # Deleting by point removes one matching entry per call.
        for v in victims:
            assert tree.delete(v)
        assert len(tree) == len(points) - len(victims)
        tree.validate()


class TestKnn:
    """k-NN is the one-user GNN: the traversal's edge cases, read
    through ``gnn`` / ``incremental_gnn`` on a single-member group."""

    def test_k_zero(self, tree_200):
        assert tree_200.gnn([Point(0, 0)], 0) == []

    def test_k_exceeds_size(self, build):
        tree = _tree([Point(0, 0), Point(1, 1)], build)
        assert len(tree.gnn([Point(0, 0)], 10)) == 2

    def test_nearest_empty_tree(self, build):
        assert _tree([], build).gnn([Point(0, 0)]) == []

    def test_nearest_trivial(self, build):
        tree = _tree([Point(0, 0), Point(10, 10), Point(5, 5)], build)
        assert tree.gnn([Point(4, 4)])[0][1].point == Point(5, 5)

    def test_incremental_order_is_nondecreasing(self, tree_200, pois_200):
        q = Point(500, 500)
        dists = [e.point.dist(q) for _, e in tree_200.incremental_gnn([q])]
        assert dists == sorted(dists)
        assert len(dists) == len(pois_200)

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(nonempty_point_lists, small_coord, small_coord, st.integers(1, 20))
    def test_matches_brute_force(self, build, points, qx, qy, k):
        tree = _tree(points, build)
        q = Point(qx, qy)
        result = [e.point.dist(q) for _, e in tree.gnn([q], k)]
        expected = sorted(p.dist(q) for p in points)[:k]
        assert result == pytest.approx(expected)


class TestScans:
    """The Theorem-3/6 candidate scans against a direct filter of the
    point list, on both packed and insert-grown trees."""

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        nonempty_point_lists,
        st.lists(st.tuples(small_coord, small_coord), min_size=1, max_size=4),
        st.floats(0.0, 600.0),
    )
    def test_intersect_balls_brute_force(self, build, points, centers, r):
        tree = _tree(points, build)
        cs = [Point(x, y) for x, y in centers]
        radii = [r + 10.0 * i for i in range(len(cs))]
        got = sorted(p.as_tuple() for p in tree.intersect_balls(cs, radii))
        want = sorted(
            p.as_tuple()
            for p in points
            if all(p.dist(c) <= ri for c, ri in zip(cs, radii))
        )
        assert got == want

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        nonempty_point_lists,
        st.lists(st.tuples(small_coord, small_coord), min_size=1, max_size=4),
        st.floats(0.0, 2000.0),
    )
    def test_within_dist_sum_brute_force(self, build, points, centers, threshold):
        tree = _tree(points, build)
        cs = [Point(x, y) for x, y in centers]
        got = sorted(p.as_tuple() for p in tree.within_dist_sum(cs, threshold))
        want = sorted(
            p.as_tuple()
            for p in points
            if sum(p.dist(c) for c in cs) <= threshold
        )
        assert got == want

    def test_scans_on_empty_tree(self, build):
        tree = _tree([], build)
        assert tree.intersect_balls([Point(0, 0)], [100.0]) == []
        assert tree.within_dist_sum([Point(0, 0)], 100.0) == []
        assert tree.scan(exclude=Point(0, 0)) == []

    def test_exclude_drops_every_copy(self):
        points = [Point(1, 1), Point(1, 1), Point(2, 2), Point(3, 3)]
        tree = build_index(points, max_entries=4)
        assert sorted(p.as_tuple() for p in tree.scan(exclude=Point(1, 1))) == [
            (2, 2),
            (3, 3),
        ]
        got = tree.intersect_balls([Point(0, 0)], [10.0], exclude=Point(2, 2))
        assert sorted(p.as_tuple() for p in got) == [(1, 1), (1, 1), (3, 3)]

    def test_zero_radius_ball_keeps_coincident_points(self):
        points = [Point(5, 5), Point(5, 5), Point(5, 6)]
        tree = build_index(points, max_entries=4)
        got = tree.intersect_balls([Point(5, 5)], [0.0])
        assert [p.as_tuple() for p in got] == [(5, 5), (5, 5)]

    def test_disjoint_balls_return_nothing(self, tree_200):
        # Two balls that do not meet: no point lies in both.
        got = tree_200.intersect_balls([Point(0, 0), Point(1000, 1000)], [100.0, 100.0])
        assert got == []


class TestRepackCarriesObjects:
    def test_survivors_keep_their_key_and_entry_objects(self):
        """A repack folds the deltas into a new packing but builds no
        new key or Entry objects: every survivor's are carried over,
        and the answers are a fresh bulk load's."""
        rng = random.Random(21)
        points = [Point(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(300)]
        tree = FlatRTree.bulk_load(points, max_entries=8, delta_fraction=10.0)
        adds = [(Point(rng.uniform(0, 100), rng.uniform(0, 100)), f"a{i}") for i in range(40)]
        adds.append((Point(3, 4), "int-coords"))
        tree.bulk_update(adds=adds[:20], removes=[(p, i) for i, p in enumerate(points[:30])])
        tree.bulk_update(
            adds=adds[20:],
            removes=[(p, i) for i, p in enumerate(points[30:60], 30)] + [adds[0]],
        )
        groups = [[Point(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(3)]
                  for _ in range(6)]
        tree.gnn_many(groups, k=4)  # builds the Entry cache
        delta = tree._delta
        before = {e.payload: e for e in tree.entries()}
        keys = {delta.payloads[i]: delta.keys[i] for i in delta.live_ids()}
        assert tree.delta_debt() > 0

        tree.repack()

        assert tree.delta_debt() == 0
        after = list(tree.entries())
        assert len(after) == len(before) == 300 - 60 + 41 - 1
        for entry in after:
            assert entry is before[entry.payload]
        for i in delta.live_ids():
            assert delta.keys[i] is keys[delta.payloads[i]]
        tree.validate()

        fresh = FlatRTree.bulk_load(
            [e.point for e in before.values()],
            payloads=list(before),
            max_entries=8,
        )

        def answer(pairs):
            return [(d, e.point, e.payload) for d, e in pairs]

        for agg in ("max", "sum"):
            assert [answer(r) for r in tree.gnn_many(groups, 4, agg)] == [
                answer(r) for r in fresh.gnn_many(groups, 4, agg)
            ]
            for group in groups:
                assert answer(tree.gnn(group, 4, agg)) == answer(fresh.gnn(group, 4, agg))


def _referee_tree(fanout, n, state):
    """A tree of ``n`` POIs (about one in ten a duplicate) in one of
    three delta states, with its live ``payload -> point`` map."""
    rng = random.Random(31 * n + fanout)
    pts = []
    for _ in range(n):
        if pts and rng.random() < 0.1:
            pts.append(rng.choice(pts))
        else:
            pts.append(Point(rng.uniform(0, 1000), rng.uniform(0, 1000)))
    # delta_fraction keeps every delta in place (no automatic repack).
    tree = FlatRTree.bulk_load(pts, max_entries=fanout, delta_fraction=10.0)
    live = dict(enumerate(pts))
    if state != "packed":
        gone = rng.sample(range(n), max(1, n // 10))
        adds = []
        if state == "arena":  # new points, and copies of packed ones
            adds = [
                (rng.choice(pts) if j % 3 == 0 else
                 Point(rng.uniform(0, 1000), rng.uniform(0, 1000)), n + j)
                for j in range(max(2, n // 20))
            ]
        tree.bulk_update(adds=adds, removes=[(pts[i], i) for i in gone])
        for i in gone:
            del live[i]
        live.update({payload: p for p, payload in adds})
        alive, buf_pts, _ = tree.delta_view()
        assert alive is not None and (buf_pts is not None) == (state == "arena")
    return rng, tree, live


class TestGnnKernelReferee:
    """The batched k-GNN kernel against the scalar best-first search at
    every tree depth (one leaf to seven levels) and delta state.

    Both paths order by ``(score, id)``, so their rows must agree bit
    for bit, exact ties included: the POI sets hold duplicates, the
    arena holds copies of packed points, and half the groups stand on
    POIs (a one-member group then ties every copy at 0; a two-member
    SUM group ties its two POIs at their distance).  Scores must also
    be the exhaustive scan's.
    """

    @pytest.mark.parametrize("state", ["packed", "tombstoned", "arena"])
    @pytest.mark.parametrize("n", [3, 60, 700, 5000])
    @pytest.mark.parametrize("fanout", [4, 8, 64])
    def test_rows_equal_scalar_search(self, fanout, n, state):
        rng, tree, live = _referee_tree(fanout, n, state)
        locs = list(live.values())
        key = lambda row: [(s, e.point, e.payload) for s, e in row]
        answered = 0
        for agg in (Aggregate.MAX, Aggregate.SUM):
            for m in (1, 2, 3):
                groups = [
                    [rng.choice(locs) for _ in range(m)] if j % 2 else
                    [Point(rng.uniform(-50, 1050), rng.uniform(-50, 1050))
                     for _ in range(m)]
                    for j in range(8)
                ]
                deep = [key(tree.gnn(group, 9, agg.value)) for group in groups]
                U = np.asarray([[[u.x, u.y] for u in g] for g in groups])
                for k in (1, 2, 9):
                    answered += kernels.gnn_batch(tree, U, k, agg.value) is not None
                    rows = tree.gnn_many(groups, k, agg.value)
                    assert [key(r) for r in rows] == [d[:k] for d in deep]
                for group, row in zip(groups, deep):
                    brute = brute_force_gnn(locs, group, 9, agg)
                    assert [s for s, _, _ in row] == pytest.approx(
                        [s for s, _ in brute], rel=1e-12
                    )
        assert answered  # the kernel itself answered, not only the fallback

    @pytest.mark.parametrize("state", ["packed", "arena"])
    @pytest.mark.parametrize("m", [8, 9, 12])
    def test_wide_sum_groups(self, m, state):
        """From eight terms on, NumPy's own short-axis sum is pairwise,
        not left to right.  Every scorer folds left to right, so the
        seed leaf's bound and the frontier's scores of the same point
        agree to the bit; a one-ulp gap would drop a candidate."""
        rng, tree, live = _referee_tree(64, 3000, state)
        groups = [
            [Point(rng.uniform(0, 1000), rng.uniform(0, 1000)) for _ in range(m)]
            for _ in range(40)
        ]
        U = np.asarray([[[u.x, u.y] for u in g] for g in groups])
        assert kernels.gnn_batch(tree, U, 3, "sum") is not None
        key = lambda row: [(s, e.point, e.payload) for s, e in row]
        assert [key(r) for r in tree.gnn_many(groups, 3, "sum")] == [
            key(tree.gnn(g, 3, "sum")) for g in groups
        ]
