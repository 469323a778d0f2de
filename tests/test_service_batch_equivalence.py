"""Batched vs scalar fleet execution: the equivalence property suite.

The batched fleet path (``MPNService.report_many`` /
``recompute_many`` dispatching through the strategies'
``build_regions_batch`` hooks) is a pure throughput optimization — the
paper's protocol is exact per group, so the batch MUST be
answer-preserving.  This suite holds it to that on seeded random
fleets: identical notifications (meeting points, regions, wire sizes,
causes), identical per-session and service-wide metrics counters, and
identical POI-churn re-notification sets, across varying group sizes,
mixed policies and churn schedules.

The ledgers' wall-clock ``server_cpu_seconds`` is the one tolerated
difference — the two paths do the same logical work on different
schedules.  Notifications carry no timing (schema v3), so they are
compared whole.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.geometry.region import TileRegion
from repro.gnn.aggregate import Aggregate
from repro.network_ext.space import NetworkPosition, NetworkSpace
from repro.network_ext.strategies import NetworkCircleStrategy
from repro.scenarios.runner import counters
from repro.scenarios.runner import notification_key as wire_notification_key
from repro.service import MemberState, MPNService, ReportEvent
from repro.service.strategies import CircleMSRStrategy, TileMSRStrategy
from repro.simulation import circle_policy, net_circle_policy, run_service, tile_policy
from repro.space.network import NetworkPOISpace
from repro.workloads.datasets import DatasetSpec, build_dataset
from repro.workloads.poi import build_poi_tree, uniform_pois
from tests.conftest import SMALL_WORLD


def region_key(region) -> tuple:
    """Structural identity of a safe region (regions lack ``__eq__``)."""
    if isinstance(region, Circle):
        return ("circle", region.center, region.radius)
    if isinstance(region, TileRegion):
        return (
            "tiles",
            region.anchor,
            region.side,
            tuple(
                (t.rect.x_lo, t.rect.y_lo, t.rect.x_hi, t.rect.y_hi)
                for t in region.tiles
            ),
        )
    return ("other", repr(region))


def notification_key(notification) -> tuple | None:
    if notification is None:
        return None
    return (
        notification.session_id,
        notification.po,
        tuple(region_key(r) for r in notification.regions),
        notification.region_values,
        notification.cause,
    )


def session_state_key(session) -> tuple:
    return (
        session.po,
        tuple(region_key(r) for r in session.regions),
        tuple(session.positions),
    )


def fleet_policies(n_groups: int) -> list:
    """A mixed bag: circle MAX, circle SUM, tile — all in one fleet."""
    out = []
    for g in range(n_groups):
        if g % 4 == 0:
            out.append(tile_policy(alpha=4, split_level=1))
        elif g % 4 == 1:
            out.append(circle_policy(objective=Aggregate.SUM))
        else:
            out.append(circle_policy())
    return out


def open_random_fleet(service: MPNService, seed: int, n_groups: int) -> list[int]:
    """Identical fleets on both services: sizes 1..4, mixed policies."""
    rng = random.Random(seed)
    policies = fleet_policies(n_groups)
    ids = []
    for g in range(n_groups):
        size = 1 + (g + seed) % 4
        members = [SMALL_WORLD.sample(rng) for _ in range(size)]
        ids.append(service.open_session(members, policies[g]).session_id)
    return ids


def assert_services_equivalent(batched: MPNService, scalar: MPNService) -> None:
    assert counters(batched.metrics) == counters(scalar.metrics)
    assert batched.session_ids() == scalar.session_ids()
    for sid in batched.session_ids():
        assert counters(batched.session_metrics(sid)) == counters(
            scalar.session_metrics(sid)
        ), f"session {sid} counters diverge"
        assert session_state_key(batched.session(sid)) == session_state_key(
            scalar.session(sid)
        ), f"session {sid} state diverges"


def net_circle_fleet(batched: bool):
    """A road-network service with two ``net_circle`` buckets — ten MAX
    pairs, ten SUM triples — and one escaping report per session."""
    net = NetworkSpace.from_grid(grid_size=5, seed=23)
    nodes = sorted(net.graph.nodes)
    rng = random.Random(3)
    service = MPNService(NetworkPOISpace(net, rng.sample(nodes, 8)), batched=batched)
    ids = [
        service.open_session(
            [net.random_position(rng) for _ in range(2 + g % 2)],
            net_circle_policy(Aggregate.SUM if g % 2 else Aggregate.MAX),
        ).session_id
        for g in range(20)
    ]
    events = [
        ReportEvent(sid, 0, MemberState(NetworkPosition.at_node(rng.choice(nodes))))
        for sid in ids
    ]
    return service, events


@pytest.fixture
def twin_services():
    """A batched and a scalar service over identical POI trees."""
    pois = uniform_pois(400, SMALL_WORLD, seed=11)
    return (
        MPNService(build_poi_tree(pois), batched=True),
        MPNService(build_poi_tree(pois), batched=False),
    )


class TestReportManyEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_waves_match_scalar_reports(self, twin_services, seed):
        """report_many == sequential report, wave after random wave."""
        batched, scalar = twin_services
        open_random_fleet(batched, seed, 14)
        ids = open_random_fleet(scalar, seed, 14)
        rng = random.Random(1000 + seed)
        for _ in range(4):
            events = []
            for sid in ids:
                if rng.random() < 0.7:
                    member = rng.randrange(batched.session(sid).size)
                    events.append(
                        ReportEvent(sid, member, MemberState(SMALL_WORLD.sample(rng)))
                    )
            got = batched.report_many(events)
            want = [
                scalar.report(e.session_id, e.member_id, e.state.point)
                for e in events
            ]
            assert [notification_key(n) for n in got] == [
                notification_key(n) for n in want
            ]
            assert_services_equivalent(batched, scalar)

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        sizes=st.lists(st.integers(1, 5), min_size=1, max_size=8),
        seed=st.integers(0, 2**31),
    )
    # Members on the POI lattice: an exact SUM tie the two paths must
    # break alike (lower POI id first).
    @example(sizes=[1, 1, 2, 1, 3, 2], seed=5)
    def test_property_single_wave(self, sizes, seed):
        """Hypothesis-driven fleets: one wave, arbitrary shapes."""
        pois = uniform_pois(150, SMALL_WORLD, seed=5)
        tree = build_poi_tree(pois)
        # Reports never mutate the tree, so the twins may share one.
        batched = MPNService(tree, batched=True)
        scalar = MPNService(tree, batched=False)
        rng = random.Random(seed)
        ids = []
        for g, size in enumerate(sizes):
            policy = (
                circle_policy(objective=Aggregate.SUM) if g % 3 else circle_policy()
            )
            members = [SMALL_WORLD.sample(rng) for _ in range(size)]
            batched.open_session(members, policy)
            ids.append(scalar.open_session(members, policy).session_id)
        events = [
            ReportEvent(
                sid,
                rng.randrange(scalar.session(sid).size),
                MemberState(SMALL_WORLD.sample(rng)),
            )
            for sid in ids
        ]
        got = batched.report_many(events)
        want = [
            scalar.report(e.session_id, e.member_id, e.state.point) for e in events
        ]
        assert [notification_key(n) for n in got] == [
            notification_key(n) for n in want
        ]
        assert_services_equivalent(batched, scalar)


class TestChurnEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_poi_churn_renotifies_identically(self, twin_services, seed):
        """update_pois dispatches its re-notifications batched; same answer."""
        batched, scalar = twin_services
        open_random_fleet(batched, seed, 12)
        open_random_fleet(scalar, seed, 12)
        rng = random.Random(500 + seed)
        for _ in range(3):
            # Target half the adds at current meeting points so the
            # Lemma-1 test actually fails for some sessions.
            targets = [
                batched.session(sid).po for sid in batched.session_ids()
            ]
            adds = [
                (Point(t.x + rng.uniform(-2, 2), t.y + rng.uniform(-2, 2)), None)
                for t in rng.sample(targets, 3)
            ] + [(SMALL_WORLD.sample(rng), None) for _ in range(2)]
            got = batched.update_pois(adds=adds)
            want = scalar.update_pois(adds=adds)
            assert [notification_key(n) for n in got] == [
                notification_key(n) for n in want
            ]
            assert_services_equivalent(batched, scalar)

    def test_po_removal_renotifies_identically(self, twin_services):
        batched, scalar = twin_services
        open_random_fleet(batched, 7, 8)
        open_random_fleet(scalar, 7, 8)
        victim = batched.session(batched.session_ids()[0]).po
        got = batched.update_pois(removes=[(victim, None)])
        want = scalar.update_pois(removes=[(victim, None)])
        assert [notification_key(n) for n in got] == [
            notification_key(n) for n in want
        ]
        assert got  # the session meeting at the victim was re-notified
        assert_services_equivalent(batched, scalar)


class TestRunServiceEquivalence:
    @pytest.mark.parametrize("seed", [21, 22])
    def test_fleet_playback_with_churn(self, seed):
        """run_service(batched=True) == run_service(batched=False).

        Full end-to-end: trajectories, interleaved timestamps, POI
        churn, mixed policies, varying group sizes — both paths must
        produce the same per-session metrics, the same final session
        states and the same churn re-notification schedule.
        """
        n_groups, steps = 10, 30

        def build():
            dataset = build_dataset(
                DatasetSpec(
                    name="geolife",
                    n_pois=300,
                    n_trajectories=sum(1 + g % 3 for g in range(n_groups)),
                    n_timestamps=steps,
                    seed=seed,
                )
            )
            groups, at = [], 0
            for g in range(n_groups):
                size = 1 + g % 3
                groups.append(dataset.trajectories[at : at + size])
                at += size
            rng = random.Random(seed)

            def churn(t):
                if t % 7 != 0:
                    return None
                return [(SMALL_WORLD.sample(rng), None) for _ in range(3)], []

            return dataset, groups, churn

        results = {}
        for batched in (True, False):
            dataset, groups, churn = build()
            results[batched] = run_service(
                groups,
                fleet_policies(n_groups),
                n_timestamps=steps,
                check_every=5,
                churn=churn,
                backend=MPNService(dataset.tree, batched=batched),
            )
        got, want = results[True], results[False]
        assert got.session_ids == want.session_ids
        assert got.churn_notified == want.churn_notified
        assert [counters(m) for m in got.session_metrics] == [
            counters(m) for m in want.session_metrics
        ]
        assert counters(got.metrics) == counters(want.metrics)
        for sid in got.session_ids:
            assert session_state_key(got.service.session(sid)) == session_state_key(
                want.service.session(sid)
            )


class TestBatchDispatchIsExercised:
    """Guard against the batched path silently always falling back."""

    def test_circle_and_tile_hooks_are_called(self, twin_services, monkeypatch):
        batched, _ = twin_services
        calls = {"circle": 0, "tile": 0}
        orig_circle = CircleMSRStrategy.build_regions_batch
        orig_tile = TileMSRStrategy.build_regions_batch

        def circle_spy(self, groups, tree, headings=None, thetas=None):
            calls["circle"] += 1
            return orig_circle(self, groups, tree, headings, thetas)

        def tile_spy(self, groups, tree, headings=None, thetas=None):
            calls["tile"] += 1
            return orig_tile(self, groups, tree, headings, thetas)

        monkeypatch.setattr(CircleMSRStrategy, "build_regions_batch", circle_spy)
        monkeypatch.setattr(TileMSRStrategy, "build_regions_batch", tile_spy)
        rng = random.Random(3)
        ids = []
        for g in range(8):
            policy = tile_policy(alpha=3, split_level=1) if g % 2 else circle_policy()
            members = [SMALL_WORLD.sample(rng) for _ in range(2)]
            ids.append(batched.open_session(members, policy).session_id)
        batched.report_many(
            [
                ReportEvent(sid, 0, MemberState(SMALL_WORLD.sample(rng)))
                for sid in ids
            ]
        )
        assert calls["circle"] >= 1
        assert calls["tile"] >= 1

    def test_declined_batch_falls_back_to_scalar(self, twin_services, monkeypatch):
        """A strategy may return None to decline; answers still flow."""
        batched, scalar = twin_services
        monkeypatch.setattr(
            CircleMSRStrategy,
            "build_regions_batch",
            lambda self, groups, tree, headings=None, thetas=None: None,
        )
        open_random_fleet(batched, 4, 6)
        ids = open_random_fleet(scalar, 4, 6)
        rng = random.Random(9)
        events = [
            ReportEvent(sid, 0, MemberState(SMALL_WORLD.sample(rng))) for sid in ids
        ]
        got = batched.report_many(events)
        want = [
            scalar.report(e.session_id, e.member_id, e.state.point) for e in events
        ]
        assert [notification_key(n) for n in got] == [
            notification_key(n) for n in want
        ]
        assert_services_equivalent(batched, scalar)


    def test_net_circle_hook_is_called_once_per_bucket(self, monkeypatch):
        buckets = []
        orig = NetworkCircleStrategy.build_regions_batch

        def spy(self, groups, tree, headings=None, thetas=None):
            buckets.append((self.objective, {len(g) for g in groups}, len(groups)))
            return orig(self, groups, tree, headings, thetas)

        monkeypatch.setattr(NetworkCircleStrategy, "build_regions_batch", spy)
        service, events = net_circle_fleet(batched=True)
        notified = [n for n in service.report_many(events) if n is not None]
        assert len(notified) >= 4
        # One call per (objective, group size) bucket, covering the wave.
        assert len(buckets) == 2
        assert {objective for objective, _, _ in buckets} == {
            Aggregate.MAX,
            Aggregate.SUM,
        }
        assert all(len(sizes) == 1 for _, sizes, _ in buckets)
        assert sum(n for _, _, n in buckets) == len(notified)

    def test_net_circle_declined_batch_falls_back_to_scalar(self, monkeypatch):
        scalar, events = net_circle_fleet(batched=False)
        want = scalar.report_many(events)
        monkeypatch.setattr(
            NetworkCircleStrategy,
            "build_regions_batch",
            lambda self, groups, tree, headings=None, thetas=None: None,
        )
        batched, _ = net_circle_fleet(batched=True)
        got = batched.report_many(events)
        assert [n and wire_notification_key(n) for n in got] == [
            n and wire_notification_key(n) for n in want
        ]
        assert counters(batched.metrics) == counters(scalar.metrics)
