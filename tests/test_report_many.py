"""Fuzz-style edge cases for the batched fleet entry points.

``report_many`` validates the whole batch before touching anything, so
a malformed event — unknown session, out-of-range member — must leave
every sibling session's state and metrics exactly as they were.  These
tests pin that contract, plus the degenerate shapes (empty batch,
single session, duplicates, absorbed in-region reports) and the
``close_session`` / ``update_pois`` interaction.
"""

from __future__ import annotations

import pytest

from repro.core.types import SafeRegionStats
from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.service import (
    MemberState,
    MPNService,
    ReportEvent,
    StrategyResult,
    UnknownSessionError,
    register_strategy,
    unregister_strategy,
)
from repro.simulation import circle_policy, custom_policy
from repro.workloads.poi import build_poi_tree, uniform_pois
from tests.conftest import SMALL_WORLD, random_users
from tests.test_service_batch_equivalence import (
    assert_services_equivalent,
    counters,
    notification_key,
    session_state_key,
)


@pytest.fixture
def service():
    pois = uniform_pois(300, SMALL_WORLD, seed=8)
    return MPNService(build_poi_tree(pois))


def service_snapshot(service: MPNService):
    return (
        counters(service.metrics),
        {
            sid: (
                counters(service.session_metrics(sid)),
                session_state_key(service.session(sid)),
            )
            for sid in service.session_ids()
        },
    )


class TestReportManyEdgeCases:
    def test_empty_batch(self, service, rng):
        service.open_session(random_users(rng, 2), circle_policy())
        before = service_snapshot(service)
        assert service.report_many([]) == []
        assert service_snapshot(service) == before

    def test_single_session_batch_matches_scalar(self, rng):
        pois = uniform_pois(300, SMALL_WORLD, seed=8)
        a = MPNService(build_poi_tree(pois), batched=True)
        b = MPNService(build_poi_tree(pois), batched=False)
        users = random_users(rng, 3)
        sid_a = a.open_session(users, circle_policy()).session_id
        sid_b = b.open_session(users, circle_policy()).session_id
        target = Point(5000.0, 5000.0)
        got = a.report_many([ReportEvent(sid_a, 1, MemberState(target))])
        want = [b.report(sid_b, 1, target)]
        assert [notification_key(n) for n in got] == [
            notification_key(n) for n in want
        ]
        assert_services_equivalent(a, b)

    def test_duplicate_session_ids_in_one_batch(self, rng):
        """Later duplicates land in later waves — sequential semantics."""
        pois = uniform_pois(300, SMALL_WORLD, seed=8)
        a = MPNService(build_poi_tree(pois), batched=True)
        b = MPNService(build_poi_tree(pois), batched=False)
        ids = []
        for _ in range(3):
            users = random_users(rng, 2)
            a.open_session(users, circle_policy())
            ids.append(b.open_session(users, circle_policy()).session_id)
        dup = ids[1]
        events = [
            ReportEvent(dup, 0, MemberState(Point(4000.0, 4000.0))),
            ReportEvent(ids[0], 0, MemberState(Point(4500.0, 4500.0))),
            ReportEvent(dup, 1, MemberState(Point(100.0, 100.0))),
            ReportEvent(dup, 0, MemberState(Point(200.0, 900.0))),
        ]
        got = a.report_many(events)
        want = [b.report(e.session_id, e.member_id, e.state.point) for e in events]
        assert [notification_key(n) for n in got] == [
            notification_key(n) for n in want
        ]
        assert_services_equivalent(a, b)

    def test_unknown_session_id_corrupts_nothing(self, service, rng):
        ids = [
            service.open_session(random_users(rng, 2), circle_policy()).session_id
            for _ in range(3)
        ]
        before = service_snapshot(service)
        events = [
            ReportEvent(ids[0], 0, MemberState(Point(5000.0, 5000.0))),
            ReportEvent(999, 0, MemberState(Point(1.0, 1.0))),
            ReportEvent(ids[2], 1, MemberState(Point(6000.0, 6000.0))),
        ]
        with pytest.raises(UnknownSessionError):
            service.report_many(events)
        # Nothing moved: no member state, no regions, no charges.
        assert service_snapshot(service) == before

    def test_out_of_range_member_corrupts_nothing(self, service, rng):
        sid = service.open_session(random_users(rng, 2), circle_policy()).session_id
        before = service_snapshot(service)
        with pytest.raises(ValueError):
            service.report_many(
                [
                    ReportEvent(sid, 0, MemberState(Point(5000.0, 5000.0))),
                    ReportEvent(sid, 7, MemberState(Point(1.0, 1.0))),
                ]
            )
        assert service_snapshot(service) == before

    def test_in_region_events_absorbed_without_traffic(self, service, rng):
        sid = service.open_session(random_users(rng, 3), circle_policy()).session_id
        session = service.session(sid)
        inside = session.regions[1].sample(rng)
        before = counters(session.metrics)
        out = service.report_many([ReportEvent(sid, 1, MemberState(inside))])
        assert out == [None]
        assert counters(session.metrics) == before
        assert session.positions[1] == inside  # state still refreshed


class TestReportManyReentrancy:
    @pytest.mark.parametrize("batched", [True, False])
    def test_closing_sibling_mid_wave_is_safe(self, batched):
        """A sibling closed reentrantly during the wave is skipped, both
        in the wave whose recompute closed it and in the later wave its
        second event lands in."""
        register_strategy("closing", ClosingStrategy)
        try:
            pois = uniform_pois(300, SMALL_WORLD, seed=8)
            service = MPNService(build_poi_tree(pois), batched=batched)
            policy = custom_policy("Closing", "closing")
            users = [Point(100.0, 100.0), Point(200.0, 200.0)]
            closer = service.open_session(users, policy)
            victim = service.open_session(users, policy)
            strategy = service.session(closer.session_id).strategy
            strategy.service = service
            strategy.victim = victim.session_id
            victim_metrics = service.session_metrics(victim.session_id)
            update_events = victim_metrics.update_events
            out = service.report_many(
                [
                    ReportEvent(closer.session_id, 0, MemberState(Point(500.0, 500.0))),
                    ReportEvent(victim.session_id, 0, MemberState(Point(600.0, 600.0))),
                    ReportEvent(victim.session_id, 1, MemberState(Point(700.0, 700.0))),
                ]
            )
            assert out[0] is not None and out[0].session_id == closer.session_id
            # The victim vanished mid-wave: skipped, not crashed, never
            # recomputed or notified.
            assert out[1:] == [None, None]
            assert victim_metrics.update_events == update_events
            assert service.session_ids() == [closer.session_id]
        finally:
            unregister_strategy("closing")


class ShortBatchStrategy:
    """Broken batch hook: returns one result fewer than groups."""

    periodic = False

    def __init__(self, policy):
        self.objective = policy.objective

    def compute(self, users, tree, headings=None, thetas=None):
        best = tree.gnn(users, 1, "max")[0][1]
        return StrategyResult(
            po=best.point,
            regions=[Circle(u, 1.0) for u in users],
            region_values=[3] * len(users),
            stats=SafeRegionStats(),
        )

    def batch_key(self):
        return "short"

    def build_regions_batch(self, groups, tree, headings=None, thetas=None):
        return [self.compute(g, tree) for g in groups[:-1]]


class TestRecomputeMany:
    def test_duplicate_ids_coalesce(self, service, rng):
        sid = service.open_session(random_users(rng, 2), circle_policy()).session_id
        before = service.session_metrics(sid).update_events
        notes = service.recompute_many([sid, sid, sid])
        assert len(notes) == 1
        assert service.session_metrics(sid).update_events == before + 1

    def test_short_batch_result_raises_instead_of_truncating(self, service, rng):
        register_strategy("short-batch", ShortBatchStrategy)
        try:
            policy = custom_policy("Short", "short-batch")
            ids = [
                service.open_session(random_users(rng, 2), policy).session_id
                for _ in range(3)
            ]
            with pytest.raises(ValueError, match="build_regions_batch"):
                service.recompute_many(ids)
        finally:
            unregister_strategy("short-batch")

    def test_recomputes_each_session_once(self, service, rng):
        ids = [
            service.open_session(random_users(rng, 2), circle_policy()).session_id
            for _ in range(4)
        ]
        before = [service.session_metrics(sid).update_events for sid in ids]
        notes = service.recompute_many(ids)
        assert [n.session_id for n in notes] == ids
        assert all(n.cause == "refresh" for n in notes)
        after = [service.session_metrics(sid).update_events for sid in ids]
        assert after == [b + 1 for b in before]

    def test_unknown_session_raises_before_any_work(self, service, rng):
        sid = service.open_session(random_users(rng, 2), circle_policy()).session_id
        before = service_snapshot(service)
        with pytest.raises(UnknownSessionError):
            service.recompute_many([sid, 12345])
        assert service_snapshot(service) == before


class ClosingStrategy:
    """Adversarial strategy: closes another session while computing.

    Simulates reentrancy (a strategy or callback tearing down sessions
    mid-recompute); the service must neither crash on dict mutation nor
    notify/charge the session that vanished mid-batch.
    """

    periodic = False

    def __init__(self, policy):
        self.service: MPNService | None = None
        self.victim: int | None = None

    def compute(self, users, tree, headings=None, thetas=None):
        if self.service is not None and self.victim in self.service.session_ids():
            self.service.close_session(self.victim)
        best = tree.gnn(users, 1, "max")[0][1]
        return StrategyResult(
            po=best.point,
            regions=[Circle(u, 0.0) for u in users],
            region_values=[3] * len(users),
            stats=SafeRegionStats(),
        )


class TestCloseSessionChurnInteraction:
    def test_churn_after_close_neither_notifies_nor_charges(self, service):
        users = [Point(100.0, 100.0), Point(200.0, 200.0)]
        keep = service.open_session(users, circle_policy())
        gone = service.open_session(users, circle_policy())
        closed_metrics = service.session_metrics(gone.session_id)
        closed_counters = counters(closed_metrics)
        closed_state = session_state_key(service.session(gone.session_id))
        service.close_session(gone.session_id)
        # Removing the shared meeting point would invalidate either
        # session; only the one still open may react.
        victim_po = service.session(keep.session_id).po
        notifications = service.update_pois(removes=[(victim_po, None)])
        notified = {n.session_id for n in notifications}
        assert keep.session_id in notified
        assert gone.session_id not in notified
        assert counters(closed_metrics) == closed_counters
        assert service.session_ids() == [keep.session_id]
        with pytest.raises(UnknownSessionError):
            service.session(gone.session_id)
        # The closed session's last state is frozen, not recomputed.
        assert closed_state[0] == victim_po

    @pytest.mark.parametrize("batched", [True, False])
    def test_reentrant_close_mid_batch_is_safe(self, batched):
        """A session closed while the churn wave runs is skipped."""
        register_strategy("closing", ClosingStrategy)
        try:
            pois = uniform_pois(300, SMALL_WORLD, seed=8)
            service = MPNService(build_poi_tree(pois), batched=batched)
            policy = custom_policy("Closing", "closing")
            users = [Point(100.0, 100.0), Point(200.0, 200.0)]
            closer = service.open_session(users, policy)
            victim = service.open_session(users, policy)
            strategy = service.session(closer.session_id).strategy
            strategy.service = service
            strategy.victim = victim.session_id
            victim_metrics = service.session_metrics(victim.session_id)
            victim_counters = counters(victim_metrics)
            # Both sessions meet at the removed POI, so both are
            # invalidated; the closer recomputes first and closes the
            # victim mid-batch.
            shared_po = service.session(closer.session_id).po
            notifications = service.update_pois(removes=[(shared_po, None)])
            notified = {n.session_id for n in notifications}
            assert closer.session_id in notified
            assert victim.session_id not in notified
            assert counters(victim_metrics) == victim_counters
            # session_ids stays consistent mid- and post-batch.
            assert service.session_ids() == [closer.session_id]
        finally:
            unregister_strategy("closing")
