"""MPNCluster(n) vs one MPNService: the answer-preservation suite.

Sharding is a deployment decision, not a semantic one — the paper's
protocol is exact per session, so a cluster routing the same traffic
MUST produce bit-identical answers.  This suite drives twin stacks —
one unsharded service and one ``MPNCluster(n)`` over identically-built
per-shard replicas — through interleaved report waves and POI churn
and asserts:

* identical notification sequences (meeting points, region structure,
  wire sizes, causes) event for event;
* identical per-session counters and identical merged cluster-wide
  counters (wall-clock seconds excepted, as everywhere);
* identical final session states;

across circle (MAX and SUM), tile and the road-network ``net_circle``
/ ``net_tile`` strategies, on the batched and the scalar fleet path,
for 1-4 shards — and end-to-end through :func:`run_service` with the
cluster as the ``backend``.
"""

from __future__ import annotations

import random

import pytest

from repro.cluster import MPNCluster
from repro.geometry.point import Point
from repro.network_ext.ball import NetworkBall
from repro.network_ext.monitor import network_trajectory
from repro.network_ext.space import NetworkSpace
from repro.network_ext.tile_msr import NetworkTileRegion
from repro.service import MemberState, MPNService, ReportEvent
from repro.simulation import (
    circle_policy,
    net_circle_policy,
    net_tile_policy,
    run_service,
    tile_policy,
)
from repro.space import as_space
from repro.space.network import NetworkPOISpace
from repro.workloads.datasets import DatasetSpec, build_dataset
from repro.workloads.poi import build_poi_tree, uniform_pois
from tests.conftest import SMALL_WORLD
from tests.test_service_batch_equivalence import (
    counters,
    fleet_policies,
    region_key as euclidean_region_key,
)


def region_key(region) -> tuple:
    """Structural identity, extended to the network region types."""
    if isinstance(region, NetworkBall):
        return ("net_ball", region.center, region.radius)
    if isinstance(region, NetworkTileRegion):
        return (
            "net_tiles",
            region.anchor,
            region.r_up,
            tuple(
                sorted((i.u, i.v, i.lo, i.hi) for i in region.intervals())
            ),
        )
    return euclidean_region_key(region)


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
        tuple(m.point for m in session.members),
    )


def assert_backends_equivalent(single: MPNService, cluster: MPNCluster) -> None:
    """Counters and session state, service vs merged cluster."""
    assert counters(single.metrics) == counters(cluster.metrics)
    assert single.session_ids() == cluster.session_ids()
    for sid in single.session_ids():
        assert counters(single.session_metrics(sid)) == counters(
            cluster.session_metrics(sid)
        ), f"session {sid} counters diverge"
        assert session_state_key(single.session(sid)) == session_state_key(
            cluster.session(sid)
        ), f"session {sid} state diverges"


def build_twins(n_shards: int, batched: bool, n_pois=350, seed=11):
    pois = uniform_pois(n_pois, SMALL_WORLD, seed=seed)
    single = MPNService(build_poi_tree(pois), batched=batched)
    cluster = MPNCluster(
        n_shards, lambda: as_space(build_poi_tree(pois)), batched=batched
    )
    return single, cluster


def open_twin_fleet(single, cluster, seed: int, n_groups: int) -> list[int]:
    rng = random.Random(seed)
    policies = fleet_policies(n_groups)
    ids = []
    for g in range(n_groups):
        size = 1 + (g + seed) % 4
        members = [SMALL_WORLD.sample(rng) for _ in range(size)]
        h_single = single.open_session(members, policies[g])
        h_cluster = cluster.open_session(members, policies[g])
        assert h_single.session_id == h_cluster.session_id
        assert notification_key(h_single.notification) == notification_key(
            h_cluster.notification
        )
        ids.append(h_single.session_id)
    return ids


class TestReportWaveEquivalence:
    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    @pytest.mark.parametrize("batched", [True, False])
    def test_interleaved_waves_with_churn(self, n_shards, batched):
        """Waves with duplicates + churn rounds, identical throughout."""
        single, cluster = build_twins(n_shards, batched)
        ids = open_twin_fleet(single, cluster, seed=n_shards, n_groups=13)
        rng = random.Random(100 + n_shards)
        for round_no in range(4):
            # A wave with ~70% participation and a duplicated session
            # (its second event lands in a later intra-shard wave).
            events = []
            for sid in ids:
                if rng.random() < 0.7:
                    member = rng.randrange(single.session(sid).size)
                    events.append(
                        ReportEvent(
                            sid, member, MemberState(SMALL_WORLD.sample(rng))
                        )
                    )
            if events:
                dup = events[rng.randrange(len(events))]
                events.append(
                    ReportEvent(
                        dup.session_id,
                        dup.member_id,
                        MemberState(SMALL_WORLD.sample(rng)),
                    )
                )
            got = cluster.report_many(list(events))
            want = single.report_many(list(events))
            assert [notification_key(n) for n in got] == [
                notification_key(n) for n in want
            ], f"round {round_no} wave diverged"
            assert_backends_equivalent(single, cluster)

            # Churn: aim half the adds at live meeting points so the
            # Lemma-1 test fails somewhere, plus one po removal.
            targets = [single.session(sid).po for sid in single.session_ids()]
            adds = [
                (
                    Point(t.x + rng.uniform(-2, 2), t.y + rng.uniform(-2, 2)),
                    None,
                )
                for t in rng.sample(targets, 3)
            ]
            churn_got = cluster.update_pois(adds=adds)
            churn_want = single.update_pois(adds=adds)
            assert [notification_key(n) for n in churn_got] == [
                notification_key(n) for n in churn_want
            ], f"round {round_no} churn diverged"
            assert_backends_equivalent(single, cluster)

    def test_po_removal_renotifies_identically(self):
        single, cluster = build_twins(3, batched=True)
        ids = open_twin_fleet(single, cluster, seed=5, n_groups=8)
        victim = single.session(ids[0]).po
        got = cluster.update_pois(removes=[(victim, None)])
        want = single.update_pois(removes=[(victim, None)])
        assert got and [notification_key(n) for n in got] == [
            notification_key(n) for n in want
        ]
        assert_backends_equivalent(single, cluster)

    def test_in_region_reports_stay_quiet_everywhere(self):
        single, cluster = build_twins(2, batched=True)
        ids = open_twin_fleet(single, cluster, seed=9, n_groups=6)
        events = [
            ReportEvent(sid, 0, single.session(sid).members[0]) for sid in ids
        ]
        got = cluster.report_many(list(events))
        want = single.report_many(list(events))
        assert got == want == [None] * len(ids)
        assert_backends_equivalent(single, cluster)


class TestNetworkEquivalence:
    """Road-network sessions shard identically to Euclidean ones."""

    @pytest.fixture(scope="class")
    def net_space(self):
        return NetworkSpace.from_grid(grid_size=5, seed=33)

    @pytest.mark.parametrize("n_shards", [2, 3])
    def test_network_fleet_waves_and_node_churn(self, net_space, n_shards):
        rng = random.Random(50 + n_shards)
        nodes = list(net_space.graph.nodes)
        net_pois = rng.sample(nodes, 10)

        single = MPNService(
            build_poi_tree(uniform_pois(100, SMALL_WORLD, seed=2))
        )
        cluster = MPNCluster(
            n_shards,
            lambda: as_space(
                build_poi_tree(uniform_pois(100, SMALL_WORLD, seed=2))
            ),
        )
        single.add_space("roads", NetworkPOISpace(net_space, net_pois))
        cluster.add_space(
            "roads", lambda: NetworkPOISpace(net_space, net_pois)
        )

        policies = [
            net_circle_policy()
            if g % 2
            else net_tile_policy(alpha=5, split_level=1)
            for g in range(6)
        ]
        trajectories = [
            [network_trajectory(net_space, 12, speed=40.0, rng=rng) for _ in range(2)]
            for _ in range(6)
        ]
        ids = []
        for policy, group in zip(policies, trajectories):
            members = [MemberState(t[0]) for t in group]
            h_single = single.open_session(members, policy, space="roads")
            h_cluster = cluster.open_session(members, policy, space="roads")
            assert h_single.session_id == h_cluster.session_id
            assert notification_key(h_single.notification) == notification_key(
                h_cluster.notification
            )
            ids.append(h_single.session_id)

        for t in range(1, 8):
            events = [
                ReportEvent(
                    sid,
                    t % 2,
                    MemberState(group[t % 2][t]),
                )
                for sid, group in zip(ids, trajectories)
            ]
            got = cluster.report_many(list(events))
            want = single.report_many(list(events))
            assert [notification_key(n) for n in got] == [
                notification_key(n) for n in want
            ], f"network wave at t={t} diverged"
            if t % 3 == 0:
                # Node churn fanned to every shard's road replica.
                alive = single.get_space("roads").index.poi_nodes()
                add_node = rng.choice([n for n in nodes if n not in alive])
                drop_node = rng.choice(alive)
                churn_got = cluster.update_pois(
                    adds=[(add_node, None)],
                    removes=[(drop_node, None)],
                    space="roads",
                )
                churn_want = single.update_pois(
                    adds=[(add_node, None)],
                    removes=[(drop_node, None)],
                    space="roads",
                )
                assert [notification_key(n) for n in churn_got] == [
                    notification_key(n) for n in churn_want
                ]
            assert_backends_equivalent(single, cluster)


class TestRunServiceClusterEquivalence:
    @pytest.mark.parametrize("seed", [31, 32])
    @pytest.mark.parametrize("batched", [True, False])
    def test_fleet_playback_matches_single_service(self, seed, batched):
        """run_service(backend=cluster) == run_service(tree), end to end."""
        n_groups, steps = 10, 25

        def build():
            dataset = build_dataset(
                DatasetSpec(
                    name="geolife",
                    n_pois=250,
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
                if t % 6 != 0:
                    return None
                return [(SMALL_WORLD.sample(rng), None) for _ in range(3)], []

            return dataset, groups, churn

        dataset, groups, churn = build()
        want = run_service(
            groups,
            fleet_policies(n_groups),
            n_timestamps=steps,
            check_every=5,
            churn=churn,
            backend=MPNService(dataset.tree, batched=batched),
        )

        dataset, groups, churn = build()
        poi_points = [e.point for e in dataset.tree.entries()]
        cluster = MPNCluster(
            3,
            lambda: as_space(build_poi_tree(list(poi_points))),
            batched=batched,
        )
        got = run_service(
            groups,
            fleet_policies(n_groups),
            n_timestamps=steps,
            check_every=5,
            churn=churn,
            backend=cluster,
        )

        assert got.session_ids == want.session_ids
        assert got.churn_notified == want.churn_notified
        assert [counters(m) for m in got.session_metrics] == [
            counters(m) for m in want.session_metrics
        ]
        assert counters(got.metrics) == counters(want.metrics)
        for sid in got.session_ids:
            assert session_state_key(got.service.session(sid)) == (
                session_state_key(want.service.session(sid))
            )


class TestScalarBatchedClusterAgreement:
    def test_batched_cluster_matches_scalar_cluster(self):
        """The PR-3 equivalence survives sharding: same answers either way."""
        batched_single, batched_cluster = build_twins(3, batched=True)
        scalar_single, scalar_cluster = build_twins(3, batched=False)
        ids = open_twin_fleet(batched_single, batched_cluster, seed=3, n_groups=10)
        open_twin_fleet(scalar_single, scalar_cluster, seed=3, n_groups=10)
        rng = random.Random(77)
        events = [
            ReportEvent(sid, 0, MemberState(SMALL_WORLD.sample(rng)))
            for sid in ids
        ]
        got = batched_cluster.report_many(list(events))
        want = scalar_cluster.report_many(list(events))
        assert [notification_key(n) for n in got] == [
            notification_key(n) for n in want
        ]
        assert counters(batched_cluster.metrics) == counters(
            scalar_cluster.metrics
        )
