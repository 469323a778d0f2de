"""Concurrent multi-group serving: interleaved playback plus POI churn.

The headline assertion everywhere is the tie-tolerant exactness check
of :func:`repro.simulation.engine._assert_result_valid`: at any quiet
moment, every session's cached meeting point must still achieve the
exact optimal aggregate distance over the *current* POI set.
"""

import random

import pytest

from repro.geometry.point import Point
from repro.service import MPNService
from repro.simulation import circle_policy, run_service, tile_policy
from repro.simulation.engine import _assert_result_valid
from repro.workloads.datasets import DatasetSpec, build_dataset
from repro.workloads.poi import build_poi_tree, uniform_pois
from tests.conftest import SMALL_WORLD


def _fleet_dataset(n_groups, members, steps, n_pois=300):
    dataset = build_dataset(
        DatasetSpec(
            name="geolife",
            n_pois=n_pois,
            n_trajectories=n_groups * members,
            n_timestamps=steps,
        )
    )
    groups = [
        dataset.trajectories[members * g : members * (g + 1)]
        for g in range(n_groups)
    ]
    return dataset, groups


class TestRunService:
    def test_hundred_groups_with_churn_stay_exact(self):
        """Acceptance: >=100 concurrent groups, POI churn, all exact."""
        rng = random.Random(77)
        n_groups, steps = 100, 50
        dataset, groups = _fleet_dataset(n_groups, 2, steps)
        policies = [
            tile_policy(alpha=6, split_level=1) if g % 4 == 0 else circle_policy()
            for g in range(n_groups)
        ]

        def churn(t):
            if t % 10 != 0:
                return None
            adds = [(SMALL_WORLD.sample(rng), None) for _ in range(4)]
            alive = [e.point for e in dataset.tree.entries()]
            removes = [(victim, None) for victim in rng.sample(alive, 2)]
            return adds, removes

        result = run_service(
            groups,
            policies,
            dataset.tree,
            n_timestamps=steps,
            check_every=5,  # exactness asserted throughout the run
            churn=churn,
        )
        assert len(result.session_ids) == n_groups
        assert all(m.update_events >= 1 for m in result.session_metrics)
        assert all(m.timestamps == steps for m in result.session_metrics)
        # Some churn batch re-notified at least one session.
        assert result.churn_notified
        # Service-wide traffic equals the sum over sessions.
        assert result.metrics.messages_total == sum(
            m.messages_total for m in result.session_metrics
        )

    def test_single_policy_broadcast(self):
        dataset, groups = _fleet_dataset(5, 2, 30)
        result = run_service(groups, circle_policy(), dataset.tree, check_every=10)
        assert len(result.session_metrics) == 5

    def test_policy_count_mismatch(self):
        dataset, groups = _fleet_dataset(3, 2, 30)
        with pytest.raises(ValueError):
            run_service(groups, [circle_policy()] * 2, dataset.tree)

    def test_empty_fleet_rejected(self, tree_200):
        with pytest.raises(ValueError):
            run_service([], circle_policy(), tree_200)

    def test_churn_at_timestamp_zero_applies_before_registration(self):
        dataset, groups = _fleet_dataset(2, 2, 20)
        new_poi = Point(123.0, 456.0)
        result = run_service(
            groups,
            circle_policy(),
            dataset.tree,
            check_every=5,
            churn={0: ([(new_poi, None)], [])},
        )
        assert new_poi in [e.point for e in result.service.tree.entries()]

    def test_mapping_churn_schedule(self):
        dataset, groups = _fleet_dataset(4, 2, 40)
        schedule = {
            15: ([(Point(500.0, 500.0), None)], []),
        }
        result = run_service(
            groups, circle_policy(), dataset.tree, check_every=5, churn=schedule
        )
        assert Point(500.0, 500.0) in [
            e.point for e in result.service.tree.entries()
        ]


class TestSelectiveInvalidation:
    """POI churn recomputes only the sessions Lemma 1 fails."""

    @pytest.fixture
    def service(self):
        pois = uniform_pois(300, SMALL_WORLD, seed=8)
        return MPNService(build_poi_tree(pois))

    def test_far_insert_recomputes_nobody(self, service, rng):
        for _ in range(5):
            users = [SMALL_WORLD.sample(rng) for _ in range(3)]
            service.open_session(users, circle_policy())
        before = [
            service.session_metrics(s).update_events
            for s in service.session_ids()
        ]
        notifications = service.update_pois(
            adds=[(Point(50_000.0, 50_000.0), None)]
        )
        assert notifications == []
        after = [
            service.session_metrics(s).update_events
            for s in service.session_ids()
        ]
        assert after == before

    def test_targeted_insert_recomputes_only_failing_sessions(self, service, rng):
        # Two far-apart sessions; a venue dropped onto the first one's
        # meeting point area invalidates it and provably not the other.
        near = service.open_session(
            [Point(100, 100), Point(200, 200)], circle_policy()
        )
        far = service.open_session(
            [Point(9000, 9000), Point(9100, 9100)], circle_policy()
        )
        notifications = service.update_pois(adds=[(Point(150, 150), None)])
        notified = {n.session_id for n in notifications}
        assert near.session_id in notified
        assert far.session_id not in notified
        assert service.session(near.session_id).po == Point(150, 150)

    def test_batch_interleaved_with_movement_stays_exact(self, rng):
        """N sessions advancing interleaved with update_pois churn."""
        steps, n_groups = 40, 8
        dataset, groups = _fleet_dataset(n_groups, 2, steps, n_pois=250)
        policies = [
            circle_policy() if g % 2 else tile_policy(alpha=5, split_level=1)
            for g in range(n_groups)
        ]

        def churn(t):
            if t % 8 != 0:
                return None
            return [(SMALL_WORLD.sample(rng), None)], []

        result = run_service(
            groups,
            policies,
            dataset.tree,
            n_timestamps=steps,
            check_every=4,
            churn=churn,
        )
        # Re-assert exactness explicitly at the end of the run, over the
        # churned POI set, for every session (tie-tolerant check).
        for policy, session_id in zip(policies, result.session_ids):
            session = result.service.session(session_id)
            _assert_result_valid(
                policy,
                result.service.tree,
                session.positions,
                session.po,
            )

