"""Tests for the session-oriented service layer and strategy registry."""

import dataclasses

import pytest

from repro.core.circle_msr import circle_msr
from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.service import (
    MPNService,
    MemberState,
    Notification,
    ReportEvent,
    StrategyResult,
    UnknownSessionError,
    UnknownStrategyError,
    available_strategies,
    get_strategy,
    register_strategy,
    unregister_strategy,
)
from repro.service.session import ServiceSession
from repro.simulation import (
    circle_policy,
    custom_policy,
    periodic_policy,
    run_simulation,
    tile_policy,
)
from repro.simulation.messages import CIRCLE_VALUES
from repro.workloads.datasets import DatasetSpec, build_dataset
from repro.workloads.poi import build_poi_tree, uniform_pois
from tests.conftest import SMALL_WORLD, random_users


@pytest.fixture
def service():
    pois = uniform_pois(300, SMALL_WORLD, seed=8)
    return MPNService(build_poi_tree(pois))


def report(service, session_id, member_id, point, probes, waved):
    """One report, as a scalar ``report`` or as a one-event wave."""
    if waved:
        (answer,) = service.report_many(
            [ReportEvent(session_id, member_id, MemberState(point), probes)]
        )
        return answer
    return service.report(session_id, member_id, point, probes=probes)


class HalfCircleStrategy:
    """A custom strategy: Circle-MSR shrunk to half the maximal radius.

    Half of a maximal safe radius is still safe, so the protocol's
    guarantee must survive end-to-end with twice-as-frequent updates.
    """

    periodic = False

    def __init__(self, policy):
        self.objective = policy.objective

    def compute(self, users, tree, headings=None, thetas=None):
        result = circle_msr(users, tree, self.objective)
        return StrategyResult(
            po=result.po,
            regions=[Circle(u, result.radius * 0.5) for u in users],
            region_values=[CIRCLE_VALUES] * len(users),
            stats=result.stats,
        )


@pytest.fixture
def half_circle_registered():
    register_strategy("half-circle", HalfCircleStrategy)
    yield
    unregister_strategy("half-circle")


class TestStrategyRegistry:
    def test_builtins_registered(self):
        names = available_strategies()
        assert {"circle", "tile", "periodic"} <= set(names)

    def test_get_strategy_resolves_policy(self):
        strategy = get_strategy(circle_policy())
        assert not strategy.periodic
        assert get_strategy(periodic_policy()).periodic

    def test_unknown_strategy_raises(self):
        with pytest.raises(UnknownStrategyError):
            get_strategy(custom_policy("nope", "no-such-strategy"))
        # ... and stays catchable as a plain KeyError.
        with pytest.raises(KeyError):
            get_strategy(custom_policy("nope", "no-such-strategy"))

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            register_strategy("circle", HalfCircleStrategy)
        register_strategy("circle", HalfCircleStrategy, replace=True)
        try:
            assert isinstance(get_strategy(circle_policy()), HalfCircleStrategy)
        finally:
            from repro.service.strategies import CircleMSRStrategy

            register_strategy("circle", CircleMSRStrategy, replace=True)

    def test_policy_strategy_name(self):
        assert circle_policy().strategy_name == "circle"
        assert tile_policy().strategy_name == "tile"
        custom = custom_policy("Mine", "half-circle")
        assert custom.strategy_name == "half-circle"
        assert custom.with_objective(custom.objective).strategy == "half-circle"


class TestCustomStrategyEndToEnd:
    def test_session_served_with_custom_strategy(
        self, service, rng, half_circle_registered
    ):
        policy = custom_policy("Half", "half-circle")
        handle = service.open_session(random_users(rng, 3), policy)
        assert handle.strategy_name == "half-circle"
        session = service.session(handle.session_id)
        assert all(isinstance(r, Circle) for r in session.regions)
        assert isinstance(session.strategy, HalfCircleStrategy)

    def test_simulation_correct_with_custom_strategy(self, half_circle_registered):
        dataset = build_dataset(
            DatasetSpec(name="geolife", n_pois=300, n_trajectories=3, n_timestamps=150)
        )
        policy = custom_policy("Half", "half-circle")
        metrics = run_simulation(
            policy, dataset.trajectories, dataset.tree, check_every=10
        )
        assert metrics.update_events >= 1
        # Half-radius regions are escaped at least as often as maximal ones.
        full = run_simulation(
            circle_policy(), dataset.trajectories, dataset.tree, check_every=10
        )
        assert metrics.update_events >= full.update_events


class TestSessionLifecycle:
    def test_open_session_computes_first_result(self, service, rng):
        handle = service.open_session(random_users(rng, 3), circle_policy())
        assert handle.size == 3
        assert isinstance(handle.notification, Notification)
        assert handle.notification.cause == "register"
        session = service.session(handle.session_id)
        assert session.po == handle.notification.po
        assert len(session.regions) == 3
        assert session.metrics.update_events == 1
        # Registration traffic: one location update per member.
        assert session.metrics.messages_up == 3

    def test_periodic_rejected(self, service, rng):
        with pytest.raises(ValueError):
            service.open_session(random_users(rng, 2), periodic_policy())

    def test_empty_group_rejected(self, service):
        with pytest.raises(ValueError):
            service.open_session([], circle_policy())

    def test_unknown_session_errors(self, service):
        with pytest.raises(UnknownSessionError):
            service.session(999)
        with pytest.raises(UnknownSessionError):
            service.close_session(999)
        with pytest.raises(UnknownSessionError):
            service.report(999, 0, Point(0, 0))
        # UnknownSessionError downgrades gracefully to KeyError.
        assert issubclass(UnknownSessionError, KeyError)

    def test_failed_registration_leaks_no_session(self, rng):
        # An empty POI set makes the first computation fail; the
        # service must not retain a half-initialized ghost session.
        empty = MPNService(build_poi_tree([]))
        with pytest.raises(ValueError):
            empty.open_session(random_users(rng, 2), circle_policy())
        assert empty.session_ids() == []

    def test_close_session(self, service, rng):
        sid = service.open_session(random_users(rng, 2), circle_policy()).session_id
        service.close_session(sid)
        assert service.session_ids() == []
        with pytest.raises(UnknownSessionError):
            service.close_session(sid)


class TestReportProtocol:
    def test_in_region_report_is_absorbed(self, service, rng):
        handle = service.open_session(random_users(rng, 2), circle_policy())
        session = service.session(handle.session_id)
        before_messages = session.metrics.messages_total
        inside = session.regions[0].sample(rng)
        assert service.report(handle.session_id, 0, inside) is None
        assert session.metrics.messages_total == before_messages
        assert session.positions[0] == inside  # state still refreshed

    def test_escape_report_runs_full_round(self, service, rng):
        users = [Point(100, 100), Point(200, 150), Point(150, 250)]
        handle = service.open_session(users, circle_policy())
        session = service.session(handle.session_id)
        up0, down0 = session.metrics.messages_up, session.metrics.messages_down
        notification = service.report(
            handle.session_id, 0, Point(5000.0, 5000.0)
        )
        assert notification is not None
        assert notification.cause == "report"
        assert len(notification.regions) == 3
        # Trigger + 2 probe replies up; 2 probe requests + 3 notifies down.
        assert session.metrics.messages_up == up0 + 3
        assert session.metrics.messages_down == down0 + 5
        assert session.metrics.update_events == 2

    def test_report_member_out_of_range(self, service, rng):
        handle = service.open_session(random_users(rng, 2), circle_policy())
        with pytest.raises(ValueError):
            service.report(handle.session_id, 5, Point(0, 0))

    def test_probes_supply_fresh_positions(self, service):
        users = [Point(100, 100), Point(200, 150), Point(300, 120)]
        handle = service.open_session(users, circle_policy())
        service.report(
            handle.session_id,
            0,
            Point(5000.0, 5000.0),
            probes=[(1, MemberState(Point(210, 160)))],
        )
        session = service.session(handle.session_id)
        assert session.positions[1] == Point(210, 160)
        # A member the report ships no state for keeps her last one.
        assert session.positions[2] == Point(300, 120)

    @pytest.mark.parametrize("waved", [False, True])
    def test_probe_for_the_trigger_is_ignored(self, service, waved):
        users = [Point(100, 100), Point(200, 150)]
        sid = service.open_session(users, circle_policy()).session_id
        far = Point(5000.0, 5000.0)
        probes = ((0, MemberState(Point(1.0, 1.0))),)
        assert report(service, sid, 0, far, probes, waved) is not None
        assert service.session(sid).positions == [far, Point(200, 150)]

    @pytest.mark.parametrize("waved", [False, True])
    def test_last_probe_of_a_member_wins(self, service, waved):
        users = [Point(100, 100), Point(200, 150)]
        sid = service.open_session(users, circle_policy()).session_id
        probes = (
            (1, MemberState(Point(210, 160))),
            (1, MemberState(Point(220, 170))),
        )
        report(service, sid, 0, Point(5000.0, 5000.0), probes, waved)
        assert service.session(sid).positions[1] == Point(220, 170)

    @pytest.mark.parametrize("waved", [False, True])
    def test_in_region_report_ignores_probes(self, service, rng, waved):
        users = [Point(100, 100), Point(200, 150)]
        sid = service.open_session(users, circle_policy()).session_id
        session = service.session(sid)
        before = session.metrics.messages_total
        inside = session.regions[0].sample(rng)
        probes = ((1, MemberState(Point(900.0, 900.0))),)
        assert report(service, sid, 0, inside, probes, waved) is None
        assert session.positions == [inside, Point(200, 150)]
        assert session.metrics.messages_total == before

    def test_update_locations_validates_count(self, service, rng):
        handle = service.open_session(random_users(rng, 3), circle_policy())
        with pytest.raises(ValueError):
            service.update_locations(handle.session_id, random_users(rng, 2))

    def test_service_wide_metrics_aggregate_sessions(self, service, rng):
        handles = [
            service.open_session(random_users(rng, 2), circle_policy())
            for _ in range(3)
        ]
        for handle in handles:
            service.report(handle.session_id, 0, Point(9000.0, 9000.0))
        per_session = [service.session_metrics(h.session_id) for h in handles]
        assert service.metrics.messages_total == sum(
            m.messages_total for m in per_session
        )
        assert service.metrics.update_events == sum(
            m.update_events for m in per_session
        )


class TestSessionSnapshot:
    def test_a_snapshot_is_the_whole_session(self, service, rng):
        """Export -> import on a fresh service rebuilds every field of
        the session; nothing has to be handed over beside the snapshot."""
        sid = service.open_session(random_users(rng, 3), circle_policy()).session_id
        service.report(
            sid, 0, Point(5000.0, 5000.0), probes=[(2, MemberState(Point(7, 8)))]
        )
        target = MPNService(service.space)
        target.import_session(service.export_session(sid))
        source, copy = service.session(sid), target.session(sid)
        for f in dataclasses.fields(ServiceSession):
            want, got = getattr(source, f.name), getattr(copy, f.name)
            if f.name == "strategy":  # re-resolved from the policy
                assert type(got) is type(want)
            else:
                assert got == want, f.name


class TestPolicyUpdate:
    def test_update_policy_reresolves_strategy(self, service, rng):
        handle = service.open_session(random_users(rng, 2), circle_policy())
        session = service.session(handle.session_id)
        first = session.strategy
        service.update_policy(handle.session_id, tile_policy(alpha=4))
        assert session.strategy is not first
        assert session.policy.strategy_name == "tile"

    def test_update_policy_rejects_periodic(self, service, rng):
        handle = service.open_session(random_users(rng, 2), circle_policy())
        with pytest.raises(ValueError):
            service.update_policy(handle.session_id, periodic_policy())


class TestStrategyResolvedOnce:
    def test_report_keeps_the_session_strategy(self, service):
        handle = service.open_session(
            [Point(100, 100), Point(200, 200)], circle_policy()
        )
        first = service.session(handle.session_id).strategy
        notification = service.report(handle.session_id, 0, Point(900, 900))
        assert notification is not None  # the report escaped: a recompute
        assert service.session(handle.session_id).strategy is first

    def test_refresh_and_churn_keep_the_session_strategy(self, service, rng):
        sid = service.open_session(
            random_users(rng, 2), circle_policy()
        ).session_id
        strategy = service.session(sid).strategy
        service.update_locations(sid, random_users(rng, 2))
        service.add_poi(SMALL_WORLD.sample(rng))
        assert service.session(sid).strategy is strategy


class TestNoDeprecationWarning:
    def test_mpnservice_does_not_warn(self, rng):
        """The serving facade itself must stay warning-clean."""
        import warnings

        pois = uniform_pois(120, SMALL_WORLD, seed=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            fresh = MPNService(build_poi_tree(pois))
            fresh.open_session(random_users(rng, 2), circle_policy())
