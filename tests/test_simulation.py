"""Integration tests for the client-server monitoring loop.

The crucial one is ``check_every``: it recomputes the exact aggregate
nearest neighbor on quiet timestamps and raises if the cached meeting
point has silently become suboptimal — the end-to-end statement of
Definition 3 across the whole stack (safe regions, messaging, engine).
"""

import pytest

from repro.geometry.point import Point
from repro.gnn.aggregate import Aggregate
from repro.mobility.trajectory import Trajectory
from repro.scenarios import run_scenario
from repro.service import MPNService
from repro.service.messages import Notification, SessionHandle
from repro.simulation.adaptive import run_adaptive_simulation
from repro.simulation.engine import (
    TrajectoryGroups,
    run_service,
    run_simulation,
)
from repro.simulation.policies import (
    circle_policy,
    periodic_policy,
    tile_d_b_policy,
    tile_d_policy,
    tile_policy,
)
from repro.workloads.datasets import DatasetSpec, build_dataset


@pytest.fixture(scope="module")
def small_dataset():
    return build_dataset(
        DatasetSpec(name="geolife", n_pois=400, n_trajectories=6, n_timestamps=250)
    )


class _OriginRegions:
    """Backend stub for one session: every member's region is the
    radius-5 circle about the origin; it keeps the waves it is sent."""

    def __init__(self):
        self.waves = []

    @staticmethod
    def _notification(size, cause):
        from repro.geometry.circle import Circle

        region = Circle(Point(0, 0), 5.0)
        return Notification(0, Point(0, 0), (region,) * size, (3,) * size, cause)

    def open_session(self, members, policy, space=None):
        return SessionHandle(
            0, len(members), policy, "stub",
            self._notification(len(members), "register"),
        )

    def report_many(self, events):
        self.waves.append(events)
        return [self._notification(1 + len(e.probes), "report") for e in events]


def _waves(trajectories, policy):
    backend = _OriginRegions()
    steps = min(len(t) for t in trajectories)
    run_scenario(TrajectoryGroups([trajectories], [policy], steps), backend)
    return backend.waves


class TestTrajectoryGroups:
    """The §7 drivers' client side: the group stream plus the runner's
    escape test."""

    def test_every_member_reports_before_any_region(self):
        traj = Trajectory((Point(0, 0), Point(1, 0)))
        first, second = TrajectoryGroups(
            [[traj, traj]], [circle_policy()], 2
        ).ticks()
        (opened,) = first.opens
        assert opened.session_id == 0
        assert opened.positions == (Point(0, 0), Point(0, 0))
        assert first.moves == ()
        assert second.opens == ()
        assert [m.session_id for m in second.moves] == [0]

    def test_region_covers_within_tolerance(self):
        traj = Trajectory(
            (Point(0, 0), Point(1, 0), Point(5.0 + 5e-10, 0), Point(50, 0))
        )
        (wave,) = _waves([traj], circle_policy())
        (event,) = wave
        assert event.member_id == 0
        assert event.state.point == Point(50, 0)

    def test_direction_tracking(self):
        along_x = tuple(Point(float(i), 0.0) for i in range(5))
        escapes = Trajectory(along_x[:4] + (Point(50, 0),))
        stays = Trajectory(along_x)
        (wave,) = _waves([escapes, stays], tile_d_policy())
        (event,) = wave
        ((probed, probe),) = event.probes
        assert probed == 1
        for state in (event.state, probe):
            assert state.heading == pytest.approx(0.0)
            assert state.theta is not None

    def test_no_direction_tracking(self):
        traj = Trajectory((Point(0, 0), Point(1, 0), Point(50, 0)))
        *_, last = TrajectoryGroups([[traj]], [tile_policy()], 3).ticks()
        assert last.moves[0].directions is None
        (wave,) = _waves([traj], circle_policy())
        (event,) = wave
        assert event.state.heading is None
        assert event.state.theta is None


class TestServer:
    def test_circle_response(self, small_dataset):
        service = MPNService(small_dataset.tree)
        users = [Point(100, 100), Point(200, 150)]
        response = service.open_session(users, circle_policy()).notification
        assert len(response.regions) == 2
        assert response.region_values == (3, 3)

    def test_tile_response_compressed_values(self, small_dataset):
        service = MPNService(small_dataset.tree)
        users = [Point(100, 100), Point(200, 150)]
        response = service.open_session(users, tile_policy(alpha=5)).notification
        assert len(response.regions) == 2
        assert all(v >= 4 for v in response.region_values)


class TestEngine:
    def test_empty_group_raises(self, small_dataset):
        with pytest.raises(ValueError):
            run_simulation(circle_policy(), [], small_dataset.tree)

    def test_periodic_baseline_counts(self, small_dataset):
        group = small_dataset.trajectories[:2]
        metrics = run_simulation(
            periodic_policy(), group, small_dataset.tree, n_timestamps=50
        )
        assert metrics.update_events == 50
        assert metrics.messages_up == 2 * 50
        assert metrics.messages_down == 2 * 50

    def test_circle_correctness_checked(self, small_dataset):
        """check_every raises SafeRegionViolation if po goes stale."""
        group = small_dataset.trajectories[:3]
        metrics = run_simulation(
            circle_policy(), group, small_dataset.tree, check_every=10
        )
        assert metrics.update_events >= 1

    @pytest.mark.parametrize(
        "policy_factory",
        [tile_policy, tile_d_policy, lambda **kw: tile_d_b_policy(b=30, **kw)],
        ids=["tile", "tile-d", "tile-d-b"],
    )
    def test_tile_policies_correct_max(self, small_dataset, policy_factory):
        group = small_dataset.trajectories[:3]
        policy = policy_factory(alpha=6, split_level=1)
        metrics = run_simulation(
            policy, group, small_dataset.tree, n_timestamps=150, check_every=10
        )
        assert metrics.update_events >= 1
        assert metrics.packets_total > 0

    def test_tile_policy_correct_sum(self, small_dataset):
        group = small_dataset.trajectories[:3]
        policy = tile_policy(objective=Aggregate.SUM, alpha=6, split_level=1)
        metrics = run_simulation(
            policy, group, small_dataset.tree, n_timestamps=150, check_every=10
        )
        assert metrics.update_events >= 1

    def test_safe_regions_beat_periodic(self, small_dataset):
        group = small_dataset.trajectories[:3]
        periodic = run_simulation(
            periodic_policy(), group, small_dataset.tree, n_timestamps=150
        )
        circle = run_simulation(
            circle_policy(), group, small_dataset.tree, n_timestamps=150
        )
        assert circle.update_events < periodic.update_events
        assert circle.packets_total < periodic.packets_total

    def test_tile_beats_circle_on_updates(self, small_dataset):
        group = small_dataset.trajectories[:3]
        circle = run_simulation(
            circle_policy(), group, small_dataset.tree, n_timestamps=200
        )
        tile = run_simulation(
            tile_policy(alpha=10, split_level=2),
            group,
            small_dataset.tree,
            n_timestamps=200,
        )
        assert tile.update_events <= circle.update_events

    def test_cpu_time_recorded(self, small_dataset):
        group = small_dataset.trajectories[:2]
        metrics = run_simulation(
            circle_policy(), group, small_dataset.tree, n_timestamps=60
        )
        assert metrics.server_cpu_seconds > 0.0


class TestDriverInputChecks:
    """Every driver validates its groups and playback length alike."""

    def test_adaptive_rejects_an_empty_group(self, small_dataset):
        with pytest.raises(ValueError, match="need at least one trajectory"):
            run_adaptive_simulation(tile_policy(), [], small_dataset.tree)

    def test_adaptive_rejects_zero_timestamps(self, small_dataset):
        with pytest.raises(ValueError, match="need at least one timestamp"):
            run_adaptive_simulation(
                tile_policy(),
                small_dataset.trajectories[:2],
                small_dataset.tree,
                n_timestamps=0,
            )

    def test_run_service_rejects_an_empty_group(self, small_dataset):
        with pytest.raises(ValueError, match="need at least one trajectory"):
            run_service([[]], circle_policy(), small_dataset.tree)
