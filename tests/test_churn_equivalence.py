"""Delta-state indexes answer exactly like freshly rebuilt ones.

The PR-6 delta layer (tombstone bitmap + buffered-insert arena over
the packed arrays, periodic repack) must be invisible to every
consumer: at ANY point in an add/remove schedule, every query against
the delta-state index — scalar and batched, Euclidean and network —
must return bit-identical answers to an index freshly bulk-loaded
from the same live POI set, and the service's Lemma-1 re-notification
under churn must not depend on the repack policy at all.

Schedules are randomized (seeded) and hypothesis-generated, and the
repack threshold is swept across never / sometimes / every-batch so
checkpoints land in pure-delta states, just-repacked states, and the
repack boundary itself.  Tie hazards are avoided the same way the
replication docs specify: distinct points have distinct distances
almost surely under seeded uniform sampling.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.geometry.point import Point
from repro.index.flat import FlatRTree
from repro.index.network import NetworkIndex
from repro.network_ext.space import NetworkPosition, NetworkSpace
from repro.service import MPNService
from repro.gnn.aggregate import Aggregate
from repro.simulation.policies import circle_policy
from repro.space import as_space
from repro.workloads.poi import uniform_pois
from tests.conftest import SMALL_WORLD, random_users

NEVER = 1e9  # delta_fraction that never repacks: pure delta state
ALWAYS = 0.0  # repack after every batch: the rebuild-per-batch baseline


def fresh_copy(tree: FlatRTree) -> FlatRTree:
    """A from-scratch bulk load of ``tree``'s live entries."""
    entries = list(tree.entries())
    return FlatRTree.bulk_load(
        [e.point for e in entries],
        payloads=[e.payload for e in entries],
        max_entries=tree.max_entries,
    )


def churn_schedule(rng, live, n_batches, adds_per=3, removes_per=2):
    """Yield (adds, removes) batches mutating the ``live`` payload map."""
    next_id = max(live, default=-1) + 1
    for _ in range(n_batches):
        removes = []
        for payload in rng.sample(sorted(live), min(removes_per, len(live))):
            removes.append((live.pop(payload), payload))
        adds = []
        for _ in range(adds_per):
            p = SMALL_WORLD.sample(rng)
            adds.append((p, next_id))
            live[next_id] = p
            next_id += 1
        yield adds, removes


def assert_query_equivalence(rng, tree: FlatRTree, reference: FlatRTree):
    """Every query type, delta-state vs fresh-rebuilt, bit for bit."""
    q = SMALL_WORLD.sample(rng)
    k = rng.randint(1, min(8, len(reference)))
    key = lambda e: (e.point.x, e.point.y, e.payload)

    groups = [random_users(rng, 3) for _ in range(3)]
    for agg in ("max", "sum"):
        assert [
            (s, key(e)) for s, e in tree.gnn(groups[0], k, agg)
        ] == [(s, key(e)) for s, e in reference.gnn(groups[0], k, agg)]
        assert [
            [(s, key(e)) for s, e in row]
            for row in tree.gnn_many(groups, k, agg)
        ] == [
            [(s, key(e)) for s, e in row]
            for row in reference.gnn_many(groups, k, agg)
        ]

    centers = random_users(rng, 2)
    radii = [300.0, 420.0]
    pt = lambda p: (p.x, p.y)
    assert sorted(map(pt, tree.intersect_balls(centers, radii))) == sorted(
        map(pt, reference.intersect_balls(centers, radii))
    )
    assert sorted(map(pt, tree.within_dist_sum(centers, 900.0))) == sorted(
        map(pt, reference.within_dist_sum(centers, 900.0))
    )
    assert sorted(map(pt, tree.scan())) == sorted(map(pt, reference.scan()))

    # Full incremental enumeration: exactly the live points, in
    # distance order, dead slots never surfacing.
    stream = [(s, key(e)) for s, e in tree.incremental_gnn([q])]
    assert stream == [(s, key(e)) for s, e in reference.incremental_gnn([q])]
    assert len(stream) == len(reference)


class TestEuclideanChurnEquivalence:
    @pytest.mark.parametrize(
        "delta_fraction", [NEVER, 0.3, 0.05, ALWAYS], ids=str
    )
    def test_long_schedule(self, delta_fraction):
        rng = random.Random(97)
        pois = uniform_pois(300, SMALL_WORLD, seed=41)
        live = dict(enumerate(pois))
        tree = FlatRTree.bulk_load(
            pois,
            payloads=list(live),
            max_entries=16,
            delta_fraction=delta_fraction,
        )
        for step, (adds, removes) in enumerate(
            churn_schedule(rng, live, n_batches=40)
        ):
            tree.bulk_update(adds, removes)
            if step % 5 == 4:
                tree.validate()
                assert_query_equivalence(rng, tree, fresh_copy(tree))
        assert len(tree) == len(live)
        if delta_fraction == ALWAYS:
            assert tree.delta_debt() == 0
        if delta_fraction == NEVER:
            assert tree.build_count == 1  # never repacked
        if delta_fraction == 0.05:
            assert tree.build_count > 1  # the threshold actually fired

    def test_repack_boundary(self):
        """Checkpoints straddling the exact batch that trips a repack."""
        rng = random.Random(5)
        pois = uniform_pois(100, SMALL_WORLD, seed=9)
        live = dict(enumerate(pois))
        tree = FlatRTree.bulk_load(
            pois, payloads=list(live), max_entries=8, delta_fraction=0.1
        )
        builds = tree.build_count
        for adds, removes in churn_schedule(rng, live, n_batches=30):
            before = tree.build_count
            tree.bulk_update(adds, removes)
            if tree.build_count != before:
                # The repack landed in this batch: the folded index
                # must answer exactly like the pure-delta one would.
                assert tree.delta_debt() == 0
                assert_query_equivalence(rng, tree, fresh_copy(tree))
        assert tree.build_count > builds

    def test_singleton_insert_delete_route_through_deltas(self):
        pois = uniform_pois(50, SMALL_WORLD, seed=2)
        tree = FlatRTree.bulk_load(pois, payloads=list(range(50)))
        builds = tree.build_count
        tree.insert(Point(3.0, 4.0), "new")
        assert tree.delete(Point(3.0, 4.0), "new")
        assert not tree.delete(Point(-1.0, -1.0), "absent")
        assert tree.build_count == builds  # no O(n) rebuild per item
        assert len(tree) == 50

    def test_empty_and_all_tombstoned(self):
        rng = random.Random(3)
        pois = uniform_pois(12, SMALL_WORLD, seed=7)
        tree = FlatRTree.bulk_load(
            pois, payloads=list(range(12)), delta_fraction=NEVER
        )
        tree.bulk_update(removes=[(p, i) for i, p in enumerate(pois)])
        assert len(tree) == 0
        q = SMALL_WORLD.sample(rng)
        assert tree.gnn([q], 3) == []
        assert tree.scan() == []
        assert tree.gnn_many([[q]], k=1) == [[]] or tree.gnn_many([[q]], k=1)
        # Rise from the dead through the arena alone.
        tree.bulk_update(adds=[(Point(1.0, 1.0), "a"), (Point(2.0, 2.0), "b")])
        tree.validate()
        assert_query_equivalence(rng, tree, fresh_copy(tree))
        empty = FlatRTree.bulk_load([], payloads=[])
        empty.insert(Point(5.0, 5.0), "only")
        assert [e.payload for _, e in empty.gnn([Point(0.0, 0.0)], 2)] == ["only"]

    def test_removal_batches_are_all_or_nothing(self):
        pois = uniform_pois(20, SMALL_WORLD, seed=4)
        tree = FlatRTree.bulk_load(
            pois, payloads=list(range(20)), delta_fraction=NEVER
        )
        with pytest.raises(KeyError):
            tree.bulk_update(
                adds=[(Point(1.0, 1.0), "x")],
                removes=[(pois[0], 0), (Point(-5.0, -5.0), None)],
            )
        assert len(tree) == 20
        assert tree.delta_debt() == 0
        assert sorted(e.payload for e in tree.entries()) == list(range(20))


class TestNetworkChurnEquivalence:
    def test_long_schedule(self):
        rng = random.Random(11)
        space = NetworkSpace.from_grid(grid_size=6, seed=21)
        nodes = list(space.graph.nodes)
        live = {i: rng.choice(nodes) for i in range(30)}
        index = NetworkIndex(
            space,
            list(live.values()),
            payloads=list(live),
            delta_fraction=0.3,
        )
        next_id = 30
        for step in range(25):
            removes = [
                (live.pop(pl), pl) for pl in rng.sample(sorted(live), 2)
            ]
            adds = []
            for _ in range(3):
                node = rng.choice(nodes)
                adds.append((node, next_id))
                live[next_id] = node
                next_id += 1
            index.bulk_update(adds, removes)
            if step % 4 == 3:
                reference = NetworkIndex(
                    space,
                    [n for n, _ in index.items()],
                    payloads=[pl for _, pl in index.items()],
                )
                # Live order is preserved across deltas and repacks:
                # items() must equal the fresh rebuild's exactly.
                assert index.items() == reference.items()
                assert index.poi_nodes() == reference.poi_nodes()
                for node in rng.sample(nodes, 5):
                    assert sorted(
                        map(str, index.pois_at(node))
                    ) == sorted(map(str, reference.pois_at(node)))
                users = [
                    NetworkPosition.at_node(rng.choice(nodes))
                    for _ in range(3)
                ]
                for agg in ("max", "sum"):
                    k = rng.randint(1, 5)
                    assert index.gnn(users, k, agg) == reference.gnn(
                        users, k, agg
                    )
        assert len(index) == len(live)

    def test_all_or_nothing_with_bad_add_node(self):
        space = NetworkSpace.from_grid(grid_size=4, seed=8)
        nodes = list(space.graph.nodes)
        index = NetworkIndex(space, nodes[:5], delta_fraction=NEVER)
        with pytest.raises(ValueError, match="not on the road graph"):
            index.bulk_update(
                adds=[("nowhere", None)], removes=[(nodes[0], None)]
            )
        with pytest.raises(KeyError):
            index.bulk_update(
                adds=[(nodes[1], "ok")], removes=[(nodes[-1], None)]
            )
        assert len(index) == 5
        assert index.delta_debt() == 0

    def test_all_tombstoned_then_arena_only(self):
        space = NetworkSpace.from_grid(grid_size=4, seed=8)
        nodes = list(space.graph.nodes)
        index = NetworkIndex(space, nodes[:4], delta_fraction=NEVER)
        index.bulk_update(removes=[(n, None) for n in nodes[:4]])
        assert len(index) == 0
        with pytest.raises(ValueError, match="non-empty"):
            index.gnn([NetworkPosition.at_node(nodes[0])], k=1)
        index.bulk_update(adds=[(nodes[5], "a"), (nodes[6], "b")])
        reference = NetworkIndex(space, [nodes[5], nodes[6]], payloads=["a", "b"])
        assert index.items() == reference.items()
        users = [NetworkPosition.at_node(n) for n in (nodes[0], nodes[2])]
        assert index.gnn(users, k=2) == reference.gnn(users, k=2)


class TestNetworkDeltaInvariants:
    def test_validate_after_every_batch(self):
        """The shared delta invariants hold on the network index through
        tombstones, arena inserts, removals that reach into the arena
        and repacks."""
        rng = random.Random(23)
        space = NetworkSpace.from_grid(grid_size=5, seed=3)
        nodes = list(space.graph.nodes)
        live = {i: rng.choice(nodes) for i in range(20)}
        index = NetworkIndex(
            space, list(live.values()), payloads=list(live), delta_fraction=0.5
        )
        index.validate()
        arena: set[int] = set()  # payloads added since the last repack
        seen = {"tombstone": 0, "arena_hit": 0, "arena_removal": 0, "repack": 0}
        next_id = 20
        for _ in range(30):
            picks = [rng.choice(sorted(arena))] if arena else []
            picks += rng.sample(sorted(set(live) - set(picks)), 2 - len(picks))
            removes = []
            for pl in picks:
                removes.append((live.pop(pl), pl))
                seen["arena_removal" if pl in arena else "tombstone"] += 1
                arena.discard(pl)
            adds = []
            for _ in range(3):
                node = rng.choice(nodes)
                adds.append((node, next_id))
                live[next_id] = node
                arena.add(next_id)
                next_id += 1
            seen["arena_hit"] += len(adds)
            builds = index.build_count
            index.bulk_update(adds, removes)
            if index.build_count != builds:
                seen["repack"] += 1
                arena.clear()
            index.validate()
            assert sorted(pl for _, pl in index.items()) == sorted(live)
            assert len(index) == len(live)
        assert all(seen.values()), seen


@pytest.fixture(params=["flat", "network"])
def delta_index(request):
    """``(make, keys, live)`` for one index kind: ``make(keys, payloads,
    delta_fraction)`` builds it, ``keys`` are eight distinct POI keys and
    ``live(index)`` lists its live ``(key, payload)`` items in live order."""
    if request.param == "flat":
        keys = [Point(float(i), float(3 * i % 8)) for i in range(8)]

        def make(ks, payloads, delta_fraction=NEVER):
            return FlatRTree.bulk_load(
                ks, payloads=payloads, max_entries=4, delta_fraction=delta_fraction
            )

        return make, keys, lambda index: [(e.point, e.payload) for e in index.entries()]
    space = NetworkSpace.from_grid(grid_size=4, seed=8)

    def make(ks, payloads, delta_fraction=NEVER):
        return NetworkIndex(space, ks, payloads=payloads, delta_fraction=delta_fraction)

    return make, list(space.graph.nodes)[:8], lambda index: index.items()


class TestDeltaLayerContract:
    """The shared delta layer's rules, held on both indexes."""

    def test_negative_delta_fraction_is_rejected(self, delta_index):
        make, keys, _ = delta_index
        with pytest.raises(ValueError, match="delta_fraction"):
            make(keys[:2], [0, 1], delta_fraction=-0.1)

    def test_payload_specific_removals_match_before_wildcards(self, delta_index):
        make, keys, live = delta_index
        index = make([keys[1]], ["z"])
        index.bulk_update(adds=[(keys[0], "x"), (keys[0], "y")])
        # Listed first and matched first, the wildcard would take "x" (the
        # first live entry at keys[0]) and starve the specific removal.
        index.bulk_update(removes=[(keys[0], None), (keys[0], "x")])
        assert live(index) == [(keys[1], "z")]

    def test_each_removal_takes_a_distinct_entry(self, delta_index):
        make, keys, live = delta_index
        index = make([keys[1]], ["z"])
        index.bulk_update(adds=[(keys[0], "x"), (keys[0], "y")])
        with pytest.raises(KeyError):
            index.bulk_update(removes=[(keys[0], None)] * 3)
        assert len(index) == 3 and index.delta_debt() == 2
        index.bulk_update(removes=[(keys[0], None)] * 2)
        assert live(index) == [(keys[1], "z")]

    def test_repack_folds_packed_then_arena_live_slots(self, delta_index):
        make, keys, live = delta_index
        index = make(keys[:5], list(range(5)))
        index.bulk_update(adds=[(keys[5], 5), (keys[6], 6), (keys[7], 7)])
        index.bulk_update(removes=[(keys[1], 1), (keys[6], 6)])
        before = live(index)
        payloads = [pl for _, pl in before]
        assert sorted(payloads[:4]) == [0, 2, 3, 4] and payloads[4:] == [5, 7]
        builds = index.build_count
        index.repack()
        index.validate()
        assert index.build_count == builds + 1 and index.delta_debt() == 0
        fresh = make([k for k, _ in before], payloads)
        assert live(index) == live(fresh)

    def test_key_map_is_built_on_the_first_removal(self, delta_index):
        """A POI set that never sees a removal pays for no key map."""
        make, keys, live = delta_index
        index = make(keys[:4], list(range(4)))
        index.bulk_update(adds=[(keys[4], 4)])
        assert len(live(index)) == len(index) == 5
        assert index._delta._live is None
        index.bulk_update(removes=[(keys[0], 0)])
        assert index._delta._live is not None
        index.repack()
        assert index._delta._live is None

    @pytest.mark.parametrize(
        "breach", ["tombstone_count", "arena_count", "key_map"]
    )
    def test_validate_catches_a_breach(self, delta_index, breach):
        make, keys, _ = delta_index
        index = make(keys[:4], list(range(4)))
        index.bulk_update(adds=[(keys[4], 4), (keys[5], 5)])
        index.bulk_update(removes=[(keys[0], 0), (keys[4], 4)])
        index.validate()
        delta = index._delta
        if breach == "tombstone_count":
            delta.n_dead += 1
        elif breach == "arena_count":
            delta.n_arena_dead -= 1
        else:
            delta._live[keys[1]].append(delta.keys.index(keys[0]))
        with pytest.raises(AssertionError):
            index.validate()


# Hypothesis: arbitrary interleavings, including degenerate ones the
# seeded schedules above would rarely produce (coincident points,
# empty batches, remove-then-readd of the same coordinates).
coord = st.floats(0.0, 1000.0, allow_nan=False, allow_infinity=False)
points = st.tuples(coord, coord).map(lambda t: Point(*t))
ops = st.lists(
    st.tuples(st.sampled_from(["add", "remove"]), points),
    min_size=1,
    max_size=30,
)


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    st.lists(points, min_size=1, max_size=25, unique=True),
    ops,
    st.sampled_from([NEVER, 0.2, ALWAYS]),
    st.integers(0, 2**31),
)
def test_hypothesis_schedules(initial, schedule, delta_fraction, seed):
    rng = random.Random(seed)
    live = dict(enumerate(initial))
    tree = FlatRTree.bulk_load(
        initial,
        payloads=list(live),
        max_entries=4,
        delta_fraction=delta_fraction,
    )
    next_id = len(initial)
    for op, p in schedule:
        if op == "add":
            tree.insert(p, next_id)
            live[next_id] = p
            next_id += 1
        elif live:
            payload = rng.choice(sorted(live))
            victim = live.pop(payload)
            assert tree.delete(victim, payload)
    tree.validate()
    reference = fresh_copy(tree)
    assert sorted(
        (e.point.x, e.point.y, e.payload) for e in tree.entries()
    ) == sorted((p.x, p.y, pl) for pl, p in live.items())
    q = SMALL_WORLD.sample(rng)
    if live:
        k = min(3, len(live))
        assert sorted(
            e.point.dist(q) for _, e in tree.gnn([q], k)
        ) == sorted(e.point.dist(q) for _, e in reference.gnn([q], k))
        got = tree.gnn_many([[q]], k)[0]
        want = reference.gnn_many([[q]], k)[0]
        assert [e.point.dist(q) for _, e in got] == [
            e.point.dist(q) for _, e in want
        ]
    center, radius = [Point(500.0, 500.0)], [300.0]
    assert sorted(
        (p.x, p.y) for p in tree.intersect_balls(center, radius)
    ) == sorted((p.x, p.y) for p in reference.intersect_balls(center, radius))


class TestLemma1RenotificationParity:
    """Service re-notification under churn is repack-policy independent.

    Twin services over the same POIs — one absorbing churn purely in
    the delta layer, one repacking after every batch — must notify the
    same sessions with the same meeting points at every step: Lemma-1
    invalidation is geometry-only, and delta-state GNN answers are
    bit-identical to rebuilt ones.
    """

    @pytest.mark.parametrize("objective", [Aggregate.MAX, Aggregate.SUM])
    def test_twins_agree(self, objective):
        rng_a, rng_b = random.Random(77), random.Random(77)
        pois = uniform_pois(250, SMALL_WORLD, seed=13)

        def build(delta_fraction, rng):
            tree = FlatRTree.bulk_load(
                pois,
                payloads=list(range(len(pois))),
                delta_fraction=delta_fraction,
            )
            service = MPNService(as_space(tree))
            for _ in range(8):
                service.open_session(random_users(rng, 3), circle_policy(objective))
            return service

        delta = build(NEVER, rng_a)
        repack = build(ALWAYS, rng_b)
        next_id = len(pois)
        churn_rng = random.Random(31)
        live = dict(enumerate(pois))
        for _ in range(12):
            removes = [
                (live.pop(pl), pl) for pl in churn_rng.sample(sorted(live), 2)
            ]
            adds = []
            for _ in range(3):
                p = SMALL_WORLD.sample(churn_rng)
                adds.append((p, next_id))
                live[next_id] = p
                next_id += 1
            got = delta.update_pois(adds, removes)
            want = repack.update_pois(adds, removes)
            assert [
                (n.session_id, n.cause, n.po, n.regions, n.region_values)
                for n in got
            ] == [
                (n.session_id, n.cause, n.po, n.regions, n.region_values)
                for n in want
            ]
            assert [delta.session(i).po for i in delta.session_ids()] == [
                repack.session(i).po for i in repack.session_ids()
            ]
        assert delta.space.index.build_count == 1
        assert repack.space.index.delta_debt() == 0
