"""Unit tests for the cluster front door: ring, routing, shared epochs.

The answer-preservation proofs live in
``tests/test_cluster_equivalence.py``; this file pins the mechanics —
deterministic consistent hashing, session routing, the epoch-shared
space publication model, cross-shard all-or-nothing validation, and
the error surface.
"""

import pytest

from repro.cluster import HashRing, MPNCluster
from repro.geometry.point import Point
from repro.service import (
    MemberState,
    MPNService,
    ReportEvent,
    ReportRequest,
    UnknownSessionError,
    UnknownSpaceError,
)
from repro.simulation.policies import circle_policy
from repro.space import as_space, replicate_space
from repro.workloads.poi import build_poi_tree, uniform_pois
from tests.conftest import SMALL_WORLD, random_users


def make_cluster(n_shards=3, n_pois=200, seed=6, batched=True):
    pois = uniform_pois(n_pois, SMALL_WORLD, seed=seed)
    return MPNCluster(
        n_shards, lambda: as_space(build_poi_tree(pois)), batched=batched
    )


class TestHashRing:
    def test_deterministic_across_instances(self):
        a = HashRing(range(4))
        b = HashRing(range(4))
        assert [a.shard_for(i) for i in range(500)] == [
            b.shard_for(i) for i in range(500)
        ]

    def test_every_shard_gets_work(self):
        ring = HashRing(range(4))
        owners = {ring.shard_for(i) for i in range(500)}
        assert owners == {0, 1, 2, 3}

    def test_growth_moves_keys_only_to_the_new_shard(self):
        """The consistent-hash property: adding a shard steals ring
        ranges; a key either keeps its owner or moves to the newcomer."""
        before = HashRing(range(4))
        after = HashRing(range(5))
        moved = 0
        for i in range(2000):
            old, new = before.shard_for(i), after.shard_for(i)
            if old != new:
                assert new == 4, f"key {i} moved {old}->{new}, not to shard 4"
                moved += 1
        assert 0 < moved < 2000 * 0.5  # a minority moves, none rehash wildly

    def test_validation(self):
        with pytest.raises(ValueError):
            HashRing([])
        with pytest.raises(ValueError):
            HashRing(range(2), replicas=0)


class TestClusterConstruction:
    def test_needs_exactly_one_source(self):
        pois = uniform_pois(50, SMALL_WORLD, seed=1)
        tree = build_poi_tree(pois)
        with pytest.raises(ValueError, match="exactly one"):
            MPNCluster(2)
        with pytest.raises(ValueError, match="exactly one"):
            MPNCluster(2, lambda: as_space(tree), tree=tree)
        with pytest.raises(ValueError):
            MPNCluster(0, lambda: as_space(tree))

    def test_factory_called_exactly_once(self):
        calls = []

        def factory():
            calls.append(1)
            return as_space(build_poi_tree(uniform_pois(50, SMALL_WORLD, seed=1)))

        cluster = MPNCluster(4, factory)
        assert len(calls) == 1
        # Every shard serves the one published space.
        assert len({id(shard.space) for shard in cluster.shards}) == 1

    def test_tree_source_copied_once_and_shared(self):
        tree = build_poi_tree(uniform_pois(80, SMALL_WORLD, seed=2))
        cluster = MPNCluster(3, tree=tree)
        spaces = [shard.space for shard in cluster.shards]
        assert len({id(s.index) for s in spaces}) == 1
        assert all(s.poi_count() == 80 for s in spaces)
        # ... and the shared copy is not the caller's tree.
        assert all(s.index is not tree for s in spaces)

    @pytest.mark.parametrize(
        "name",
        [
            "open_session",
            "report_many",
            "update_pois",
            "import_session",
            "export_session",
            "restore_shard",
            "_migrate",
        ],
    )
    def test_both_front_doors_share_one_implementation(self, name):
        """The seam cannot quietly re-fork: what a sharded backend
        decides resolves to the *same function object* on the in-process
        and the process door (siblings over ``ShardedFrontDoor``)."""
        from repro.transport import ProcessCluster  # lazy; spawns nothing

        assert getattr(MPNCluster, name) is getattr(ProcessCluster, name)
        assert not issubclass(ProcessCluster, MPNCluster)
        assert not issubclass(MPNCluster, ProcessCluster)


class TestReplication:
    def test_euclidean_replica_is_independent(self):
        space = as_space(build_poi_tree(uniform_pois(60, SMALL_WORLD, seed=3)))
        replica = replicate_space(space)
        replica.bulk_update(adds=[(Point(1.0, 2.0), None)])
        assert replica.poi_count() == 61
        assert space.poi_count() == 60

    def test_unsupported_space_raises(self):
        class Opaque:
            kind = "opaque"

        with pytest.raises(TypeError, match="space_factory"):
            replicate_space(Opaque())


class TestRouting:
    def test_sessions_land_on_their_hashed_shard(self, rng):
        cluster = make_cluster()
        for _ in range(12):
            handle = cluster.open_session(random_users(rng, 2), circle_policy())
            shard = cluster.shard(cluster.shard_for(handle.session_id))
            assert handle.session_id in shard.session_ids()
        assert cluster.session_ids() == list(range(12))

    def test_single_service_numbering(self, rng):
        """Cluster ids are 0,1,2,... exactly like one MPNService."""
        cluster = make_cluster()
        ids = [
            cluster.open_session(random_users(rng, 2), circle_policy()).session_id
            for _ in range(6)
        ]
        assert ids == list(range(6))
        cluster.close_session(3)
        assert cluster.session_ids() == [0, 1, 2, 4, 5]
        assert cluster.open_session(
            random_users(rng, 2), circle_policy()
        ).session_id == 6

    def test_rejected_opens_consume_no_ids(self, rng):
        """Numbering parity with a single service survives failed opens."""
        from repro.simulation.policies import net_circle_policy, periodic_policy

        cluster = make_cluster()
        with pytest.raises(ValueError, match="at least one member"):
            cluster.open_session([], circle_policy())
        with pytest.raises(ValueError, match="periodic"):
            cluster.open_session(random_users(rng, 2), periodic_policy())
        with pytest.raises(UnknownSpaceError):
            cluster.open_session(random_users(rng, 2), circle_policy(), space="nope")
        with pytest.raises(ValueError, match="spaces"):
            # net_circle on a euclidean default space: kind mismatch.
            cluster.open_session(random_users(rng, 2), net_circle_policy())
        # None of the rejections burned an id: the first successful
        # open is session 0, exactly as on a fresh MPNService.
        handle = cluster.open_session(random_users(rng, 2), circle_policy())
        assert handle.session_id == 0
        # An explicit-id collision doesn't burn the *next* id either.
        with pytest.raises(ValueError, match="already in use"):
            cluster.open_session(random_users(rng, 2), circle_policy(), session_id=0)
        assert cluster.open_session(
            random_users(rng, 2), circle_policy()
        ).session_id == 1

    def test_unknown_session_surfaces_from_the_owning_shard(self):
        cluster = make_cluster()
        with pytest.raises(UnknownSessionError):
            cluster.report(99, 0, Point(1, 1))
        with pytest.raises(UnknownSessionError):
            cluster.close_session(99)
        with pytest.raises(UnknownSessionError):
            cluster.session_metrics(99)

    def test_dispatch_routes_by_session(self, rng):
        cluster = make_cluster()
        handle = cluster.open_session(random_users(rng, 2), circle_policy())
        response = cluster.dispatch(
            ReportRequest(
                handle.session_id, 0, MemberState(SMALL_WORLD.sample(rng))
            )
        )
        assert response.session_id == handle.session_id
        assert response.notification is not None


class TestClusterValidation:
    def test_report_many_is_all_or_nothing_across_shards(self, rng):
        """A bad event on one shard leaves every other shard untouched."""
        cluster = make_cluster(n_shards=3)
        ids = [
            cluster.open_session(random_users(rng, 2), circle_policy()).session_id
            for _ in range(6)
        ]
        before_counters = [
            cluster.session_metrics(sid).messages_total for sid in ids
        ]
        before_pos = [cluster.session(sid).po for sid in ids]
        events = [
            ReportEvent(sid, 0, MemberState(SMALL_WORLD.sample(rng)))
            for sid in ids
        ] + [ReportEvent(404, 0, MemberState(SMALL_WORLD.sample(rng)))]
        with pytest.raises(UnknownSessionError):
            cluster.report_many(events)
        assert [
            cluster.session_metrics(sid).messages_total for sid in ids
        ] == before_counters
        assert [cluster.session(sid).po for sid in ids] == before_pos

    def test_live_spaces_are_rejected(self, rng):
        cluster = make_cluster()
        live = as_space(build_poi_tree(uniform_pois(30, SMALL_WORLD, seed=5)))
        with pytest.raises(ValueError, match="epoch-shared"):
            cluster.open_session(random_users(rng, 2), circle_policy(), space=live)
        with pytest.raises(ValueError, match="epoch-shared"):
            cluster.update_pois(adds=[(Point(1, 1), None)], space=live)

    def test_bad_removal_raises_before_any_shard_mutates(self, rng):
        """Cross-shard churn atomicity: the front door validates once.

        A batch containing an unmatched removal must raise before the
        index, the published epoch, or any shard's sessions change —
        under the old fan-out model the first shards could have
        applied the batch before a later shard's resolution failed.
        """
        cluster = make_cluster(n_shards=3)
        ids = [
            cluster.open_session(random_users(rng, 2), circle_policy()).session_id
            for _ in range(6)
        ]
        before_pos = [cluster.session(sid).po for sid in ids]
        before_count = cluster.space.poi_count()
        before_epoch = cluster.space.epoch
        before_messages = cluster.metrics.messages_total
        with pytest.raises(KeyError):
            cluster.update_pois(
                adds=[(Point(1.0, 1.0), "new")],
                removes=[(Point(-999.0, -999.0), "missing")],
            )
        assert cluster.space.poi_count() == before_count
        assert cluster.space.epoch == before_epoch
        assert [cluster.session(sid).po for sid in ids] == before_pos
        assert cluster.metrics.messages_total == before_messages

    def test_churn_batch_is_one_build_one_publish(self, rng):
        """One batch -> one index update and one epoch, whatever the
        shard count (the copy-on-write replacement for N rebuilds)."""
        for n_shards in (1, 4):
            cluster = make_cluster(n_shards=n_shards)
            index = cluster.space.index
            builds_before = index.build_count
            batches_before = index.delta_batches
            epoch_before = cluster.space.epoch
            cluster.update_pois(adds=[(Point(2.0, 3.0), None)])
            assert index.delta_batches == batches_before + 1
            assert index.build_count == builds_before  # absorbed, no repack
            assert cluster.space.epoch == epoch_before + 1


class TestClusterSpaces:
    def test_add_space_publishes_one_shared_copy(self):
        cluster = make_cluster(n_shards=3)
        extra = as_space(build_poi_tree(uniform_pois(40, SMALL_WORLD, seed=7)))
        cluster.add_space("venues", extra)
        views = [shard.get_space("venues") for shard in cluster.shards]
        assert len({id(v) for v in views}) == 1
        assert len({id(v.index) for v in views}) == 1
        # ... and the shared copy is defensive, not the caller's space.
        assert all(v.index is not extra.index for v in views)
        assert cluster.get_space("venues").poi_count() == 40
        assert cluster.space_names() == ["default", "venues"]

    def test_add_space_via_factory(self):
        cluster = make_cluster(n_shards=2)
        pois = uniform_pois(25, SMALL_WORLD, seed=8)
        calls = []

        def factory():
            calls.append(1)
            return as_space(build_poi_tree(pois))

        cluster.add_space("pods", factory)
        assert len(calls) == 1
        assert cluster.get_space("pods").poi_count() == 25

    def test_unknown_space_name(self):
        cluster = make_cluster()
        with pytest.raises(UnknownSpaceError):
            cluster.get_space("nowhere")
        with pytest.raises(UnknownSpaceError):
            cluster.update_pois(adds=[(Point(1, 1), None)], space="nowhere")


class TestSpaceEpoch:
    """A plain space is its own publication: ``epoch`` counts the
    churn batches its index accepted, and every shard serves it."""

    def _check_epoch(self, space, add, missing):
        assert space.epoch == space.index.delta_batches == 0
        for step in range(1, 4):
            space.bulk_update(adds=[add])
            assert space.epoch == space.index.delta_batches == step
            with pytest.raises(KeyError):
                space.bulk_update(adds=[add], removes=[missing])
            assert space.epoch == space.index.delta_batches == step

    def test_euclidean_epoch_counts_accepted_batches(self):
        space = as_space(build_poi_tree(uniform_pois(40, SMALL_WORLD, seed=3)))
        self._check_epoch(
            space, (Point(1.0, 2.0), "new"), (Point(-999.0, -999.0), None)
        )

    def test_network_epoch_counts_accepted_batches(self):
        from repro.transport.worker import GridNetworkSpaceFactory

        space = GridNetworkSpaceFactory()()
        pois = {node for node, _ in space.index.items()}
        free = [node for node in space.graph.nodes if node not in pois]
        self._check_epoch(space, (free[0], "new"), (free[1], None))

    def test_every_shard_serves_the_cluster_space(self):
        cluster = make_cluster(n_shards=2)
        assert all(shard.get_space() is cluster.space for shard in cluster.shards)
        epoch = cluster.space.epoch
        cluster.update_pois(adds=[(Point(2.0, 3.0), None)])
        assert [shard.get_space().epoch for shard in cluster.shards] == [epoch + 1] * 2


class TestServiceSpaceRegistry:
    """The single-service half of the registry the cluster leans on."""

    def test_duplicate_name_rejected(self):
        service = MPNService(build_poi_tree(uniform_pois(30, SMALL_WORLD, seed=2)))
        extra = as_space(build_poi_tree(uniform_pois(10, SMALL_WORLD, seed=3)))
        service.add_space("venues", extra)
        with pytest.raises(ValueError, match="already registered"):
            service.add_space("venues", extra)
        with pytest.raises(ValueError, match="already registered"):
            service.add_space("default", extra)

    def test_open_session_resolves_names(self, rng):
        service = MPNService(build_poi_tree(uniform_pois(30, SMALL_WORLD, seed=2)))
        extra = as_space(build_poi_tree(uniform_pois(50, SMALL_WORLD, seed=4)))
        service.add_space("venues", extra)
        handle = service.open_session(
            random_users(rng, 2), circle_policy(), space="venues"
        )
        assert service.session(handle.session_id).space is extra
        with pytest.raises(UnknownSpaceError):
            service.open_session(
                random_users(rng, 2), circle_policy(), space="nowhere"
            )

    def test_explicit_session_id(self, rng):
        service = MPNService(build_poi_tree(uniform_pois(30, SMALL_WORLD, seed=2)))
        handle = service.open_session(
            random_users(rng, 2), circle_policy(), session_id=7
        )
        assert handle.session_id == 7
        with pytest.raises(ValueError, match="already in use"):
            service.open_session(random_users(rng, 2), circle_policy(), session_id=7)
        # The counter jumps past explicit ids: no silent collisions later.
        assert service.open_session(
            random_users(rng, 2), circle_policy()
        ).session_id == 8


class TestRecomputeAndPerItemChurn:
    def test_recompute_many_coalesces_across_shards(self, rng):
        cluster = make_cluster(n_shards=3)
        ids = [
            cluster.open_session(random_users(rng, 2), circle_policy()).session_id
            for _ in range(8)
        ]
        order = [ids[5], ids[1], ids[5], ids[7], ids[1]]
        notifications = cluster.recompute_many(order, cause="refresh")
        # Duplicates coalesce; results come back in first-occurrence order.
        assert [n.session_id for n in notifications] == [ids[5], ids[1], ids[7]]
        assert all(n.cause == "refresh" for n in notifications)
        with pytest.raises(UnknownSessionError):
            cluster.recompute_many([ids[0], 404])

    def test_per_item_poi_updates(self, rng):
        cluster = make_cluster(n_shards=2)
        sid = cluster.open_session(random_users(rng, 2), circle_policy()).session_id
        victim = cluster.session(sid).po
        notified = cluster.remove_poi(victim)
        assert [n.session_id for n in notified] == [sid]
        fresh = cluster.session(sid).po
        counts = {shard.space.poi_count() for shard in cluster.shards}
        cluster.add_poi(Point(fresh.x + 0.5, fresh.y + 0.5))
        assert {shard.space.poi_count() for shard in cluster.shards} == {
            c + 1 for c in counts
        }


class TestClusterMetrics:
    def test_merge_equals_sum_of_shards(self, rng):
        cluster = make_cluster(n_shards=3)
        ids = [
            cluster.open_session(random_users(rng, 2), circle_policy()).session_id
            for _ in range(9)
        ]
        cluster.report_many(
            [
                ReportEvent(sid, 0, MemberState(SMALL_WORLD.sample(rng)))
                for sid in ids
            ]
        )
        merged = cluster.metrics
        assert merged.messages_total == sum(
            m.messages_total for m in cluster.shard_metrics()
        )
        assert merged.update_events == sum(
            m.update_events for m in cluster.shard_metrics()
        )
        assert merged.messages_total > 0

    def test_update_pois_notifications_ascend(self, rng):
        cluster = make_cluster(n_shards=4)
        ids = [
            cluster.open_session(random_users(rng, 3), circle_policy()).session_id
            for _ in range(10)
        ]
        adds = [(cluster.session(sid).po, None) for sid in ids[:5]]
        notifications = cluster.update_pois(
            adds=[(Point(p.x + 1.0, p.y + 1.0), None) for p, _ in adds]
        )
        got = [n.session_id for n in notifications]
        assert got == sorted(got)


# ----------------------------------------------------------------------
# Elastic operations: incremental ring edits, live reshard mechanics,
# numbering and duplicate detection across topology changes.
# ----------------------------------------------------------------------

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.service.strategies import (  # noqa: E402
    register_strategy,
    unregister_strategy,
)
from repro.simulation.policies import custom_policy  # noqa: E402

key_sets = st.lists(st.integers(0, 10**9), min_size=1, max_size=300, unique=True)


class TestHashRingElastic:
    def test_incremental_add_equals_fresh_construction(self):
        grown = HashRing(range(3))
        grown.add_shard(3)
        fresh = HashRing(range(4))
        assert [grown.shard_for(i) for i in range(1000)] == [
            fresh.shard_for(i) for i in range(1000)
        ]

    def test_remove_then_add_round_trips(self):
        ring = HashRing(range(4))
        ring.remove_shard(2)
        ring.add_shard(2)
        fresh = HashRing(range(4))
        assert [ring.shard_for(i) for i in range(1000)] == [
            fresh.shard_for(i) for i in range(1000)
        ]

    def test_copy_is_independent(self):
        ring = HashRing(range(3))
        clone = ring.copy()
        clone.add_shard(3)
        assert 3 in clone and 3 not in ring
        assert ring.shard_ids == (0, 1, 2)

    def test_edit_validation(self):
        ring = HashRing([0])
        with pytest.raises(ValueError, match="already"):
            ring.add_shard(0)
        with pytest.raises(ValueError, match="not on the ring"):
            ring.remove_shard(9)
        with pytest.raises(ValueError, match="last"):
            ring.remove_shard(0)

    def test_moved_keys_reports_exact_diff(self):
        old = HashRing(range(3))
        new = old.copy()
        new.add_shard(3)
        moved = new.moved_keys(old, range(2000))
        assert moved  # some keys always land on a 64-replica newcomer
        for key, (src, dst) in moved.items():
            assert old.shard_for(key) == src != dst == new.shard_for(key)
        untouched = [k for k in range(2000) if k not in moved]
        assert all(old.shard_for(k) == new.shard_for(k) for k in untouched)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 8), key_sets)
    def test_growth_is_minimal_remap(self, n_shards, keys):
        """n -> n+1 moves keys only TO the newcomer, never between
        incumbents — the consistent-hash contract, property-tested."""
        old = HashRing(range(n_shards))
        new = old.copy()
        new.add_shard(n_shards)
        for key, (src, dst) in new.moved_keys(old, keys).items():
            assert dst == n_shards, f"key {key} rehashed {src}->{dst}"
            assert src != n_shards

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 8), st.data())
    def test_removal_moves_only_the_departed_shards_keys(self, n_shards, data):
        victim = data.draw(st.integers(0, n_shards - 1))
        keys = data.draw(key_sets)
        old = HashRing(range(n_shards))
        new = old.copy()
        new.remove_shard(victim)
        for key, (src, dst) in new.moved_keys(old, keys).items():
            assert src == victim, f"key {key} fled a surviving shard"
            assert dst != victim


class BoomMidRegistration:
    """Validates fine, explodes during the registration recompute."""

    periodic = False

    def __init__(self, policy):
        pass

    def compute(self, users, tree, headings=None, thetas=None):
        raise RuntimeError("boom mid-registration")


@pytest.fixture
def boom_registered():
    register_strategy("boom", BoomMidRegistration)
    yield
    unregister_strategy("boom")


class TestBurnFreeNumbering:
    """A failed open consumes no id on any backend — including failures
    *after* validation, mid-registration, on service and cluster alike."""

    def test_service_survives_mid_registration_failure(self, rng, boom_registered):
        pois = uniform_pois(100, SMALL_WORLD, seed=3)
        service = MPNService(build_poi_tree(pois))
        with pytest.raises(RuntimeError, match="boom"):
            service.open_session(random_users(rng, 2), custom_policy("boom", "boom"))
        assert service.session_ids() == []
        handle = service.open_session(random_users(rng, 2), circle_policy())
        assert handle.session_id == 0
        # explicit ids burn nothing either
        with pytest.raises(RuntimeError, match="boom"):
            service.open_session(
                random_users(rng, 2), custom_policy("boom", "boom"), session_id=17
            )
        assert service.open_session(
            random_users(rng, 2), circle_policy()
        ).session_id == 1

    def test_cluster_survives_mid_registration_failure(self, rng, boom_registered):
        cluster = make_cluster(n_shards=3)
        with pytest.raises(RuntimeError, match="boom"):
            cluster.open_session(random_users(rng, 2), custom_policy("boom", "boom"))
        assert cluster.session_ids() == []
        assert cluster.open_session(
            random_users(rng, 2), circle_policy()
        ).session_id == 0


class TestElasticCluster:
    def test_shard_ids_never_recycled(self, rng):
        cluster = make_cluster(n_shards=2)
        assert cluster.add_shard() == 2
        cluster.remove_shard(2)
        assert cluster.add_shard() == 3
        assert cluster.shard_ids() == [0, 1, 3]

    def test_remove_validation(self):
        cluster = make_cluster(n_shards=2)
        with pytest.raises(ValueError, match="no shard"):
            cluster.remove_shard(9)
        cluster.remove_shard(1)
        with pytest.raises(ValueError, match="last"):
            cluster.remove_shard(0)
        with pytest.raises(ValueError, match="no shard"):
            cluster.shard(1)

    def test_retired_shard_counters_stay_in_the_merge(self, rng):
        cluster = make_cluster(n_shards=2)
        ids = [
            cluster.open_session(random_users(rng, 2), circle_policy()).session_id
            for _ in range(8)
        ]
        cluster.report_many(
            [ReportEvent(sid, 0, MemberState(SMALL_WORLD.sample(rng))) for sid in ids]
        )
        before = cluster.metrics
        cluster.remove_shard(0)
        after = cluster.metrics
        assert after.messages_total == before.messages_total
        assert after.update_events == before.update_events

    def test_duplicate_id_caught_on_any_shard(self, rng):
        """The regression: a session parked off its ring owner (as a
        failover restore can leave it) must still block its id."""
        cluster = make_cluster(n_shards=2)
        cluster.open_session(random_users(rng, 2), circle_policy(), session_id=5)
        owner = cluster.shard_for(5)
        other = next(i for i in cluster.shard_ids() if i != owner)
        snapshot = cluster.shard(owner).export_session(5)
        cluster.shard(owner).close_session(5)
        cluster.shard(other).import_session(snapshot)
        assert cluster.session_ids() == [5]
        with pytest.raises(ValueError, match="already in use"):
            cluster.open_session(random_users(rng, 2), circle_policy(), session_id=5)

    def test_explicit_ids_stay_unique_across_reshard(self, rng):
        cluster = make_cluster(n_shards=2)
        for sid in (3, 7, 11):
            cluster.open_session(random_users(rng, 2), circle_policy(), session_id=sid)
        cluster.add_shard()
        cluster.remove_shard(0)
        for sid in (3, 7, 11):
            with pytest.raises(ValueError, match="already in use"):
                cluster.open_session(
                    random_users(rng, 2), circle_policy(), session_id=sid
                )
        assert cluster.open_session(
            random_users(rng, 2), circle_policy()
        ).session_id == 12

    def test_shard_snapshot_restore_round_trip(self, rng):
        cluster = make_cluster(n_shards=2)
        ids = [
            cluster.open_session(random_users(rng, 2), circle_policy()).session_id
            for _ in range(6)
        ]
        victim = cluster.shard_ids()[0]
        owned = [sid for sid in ids if cluster.shard_for(sid) == victim]
        snapshot = cluster.shard_snapshot(victim)
        assert sorted(s.session_id for s in snapshot.sessions) == owned
        twin = make_cluster(n_shards=2)
        restored = twin.restore_shard(victim, snapshot)
        assert restored == owned
        for sid in owned:
            assert twin.session(sid).po == cluster.session(sid).po
        # the watermark advanced: fresh ids continue past the restores
        assert twin.open_session(
            random_users(rng, 2), circle_policy()
        ).session_id == max(owned) + 1

    def test_shard_loads_and_hot_shards(self, rng):
        cluster = make_cluster(n_shards=2)
        ids = [
            cluster.open_session(random_users(rng, 2), circle_policy()).session_id
            for _ in range(8)
        ]
        cluster.report_many(
            [ReportEvent(sid, 0, MemberState(SMALL_WORLD.sample(rng))) for sid in ids]
        )
        loads = cluster.shard_loads()
        assert [load.shard_id for load in loads] == cluster.shard_ids()
        assert sum(load.sessions for load in loads) == len(ids)
        assert sum(load.messages for load in loads) == cluster.metrics.messages_total
        # deltas: a second read with no traffic reports zero work
        assert all(load.score == 0 for load in cluster.shard_loads())
        assert cluster.hot_shards() == []
