"""Answer-equivalence across the wire: TCP == in-process, bit for bit.

The transport layer must be *invisible* in the answers: a fleet driven
through :class:`~repro.transport.RemoteBackend` over real TCP — against
a single service or a multi-process :class:`~repro.transport.ProcessCluster`
— must emit exactly the notifications, session state and metrics its
in-process twin emits.  Region geometry crosses the wire by value
(schema v2), so the comparison keys here are the same structural keys
``tests/test_cluster_equivalence.py`` uses for the in-process cluster.
"""

from __future__ import annotations

import random

import pytest

from repro.cluster import MPNCluster
from repro.geometry.point import Point
from repro.network_ext.monitor import network_trajectory
from repro.service import (
    MemberState,
    MPNService,
    ReportEvent,
    UnknownSessionError,
)
from repro.simulation import (
    circle_policy,
    net_circle_policy,
    net_tile_policy,
    run_service,
    tile_d_policy,
)
from repro.space import as_space
from repro.transport import (
    GridNetworkSpaceFactory,
    ProcessCluster,
    RemoteBackend,
    ThreadedWireServer,
    UniformPoiSpaceFactory,
)
from repro.workloads.datasets import DatasetSpec, build_dataset
from repro.workloads.poi import build_poi_tree
from tests.conftest import SMALL_WORLD
from tests.test_cluster_equivalence import notification_key
from tests.test_service_batch_equivalence import counters, fleet_policies

FACTORY = UniformPoiSpaceFactory(n_pois=350, seed=11)
ROADS = GridNetworkSpaceFactory(grid_size=5, seed=33, n_pois=10, poi_seed=1)


def open_wire_twins(local, remote, seed: int, n_groups: int) -> list[int]:
    """Identical fleets on both backends; handles must already agree."""
    rng = random.Random(seed)
    policies = fleet_policies(n_groups)
    ids = []
    for g in range(n_groups):
        size = 1 + (g + seed) % 4
        members = [SMALL_WORLD.sample(rng) for _ in range(size)]
        h_local = local.open_session(members, policies[g])
        h_remote = remote.open_session(members, policies[g])
        assert h_local.session_id == h_remote.session_id
        assert notification_key(h_local.notification) == notification_key(
            h_remote.notification
        )
        ids.append(h_local.session_id)
    return ids


def assert_wire_equivalent(local, remote, ids) -> None:
    """Counters and ids through the wire vs the in-process twin."""
    assert counters(local.metrics) == counters(remote.metrics)
    assert local.session_ids() == remote.session_ids()
    for sid in ids:
        assert counters(local.session_metrics(sid)) == counters(
            remote.session_metrics(sid)
        ), f"session {sid} counters diverge over the wire"


def drive_rounds(local, remote, ids, seed: int, rounds: int = 3) -> None:
    """Interleaved waves (with a duplicate) + churn, both backends."""
    rng = random.Random(seed)
    for round_no in range(rounds):
        events = []
        for sid in ids:
            if rng.random() < 0.7:
                member = rng.randrange(local.session(sid).size)
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
        got = remote.report_many(list(events))
        want = local.report_many(list(events))
        assert [notification_key(n) for n in got] == [
            notification_key(n) for n in want
        ], f"round {round_no} wave diverged over the wire"

        targets = [local.session(sid).po for sid in ids]
        adds = [
            (Point(t.x + rng.uniform(-2, 2), t.y + rng.uniform(-2, 2)), None)
            for t in rng.sample(targets, 3)
        ]
        churn_got = remote.update_pois(adds=adds)
        churn_want = local.update_pois(adds=adds)
        assert [notification_key(n) for n in churn_got] == [
            notification_key(n) for n in churn_want
        ], f"round {round_no} churn diverged over the wire"
        assert_wire_equivalent(local, remote, ids)


class TestRemoteBackendMatchesLocalService:
    def test_waves_and_churn_are_bit_identical_over_tcp(self):
        local = MPNService(FACTORY())
        with ThreadedWireServer(MPNService(FACTORY())) as server:
            remote = RemoteBackend(*server.address, space=FACTORY())
            try:
                ids = open_wire_twins(local, remote, seed=3, n_groups=10)
                drive_rounds(local, remote, ids, seed=103)
                # Per-member safe regions decoded from the wire answer
                # contains_point exactly like the server's live ones.
                rng = random.Random(7)
                for sid in ids:
                    session = local.session(sid)
                    notification = remote.update_locations(
                        sid, [m for m in session.members]
                    )
                    twin = local.update_locations(
                        sid, [m for m in session.members]
                    )
                    for mine, theirs in zip(
                        notification.regions, twin.regions
                    ):
                        for _ in range(20):
                            p = SMALL_WORLD.sample(rng)
                            assert mine.contains_point(
                                p
                            ) == theirs.contains_point(p)
                assert_wire_equivalent(local, remote, ids)
            finally:
                remote.close()

    @pytest.mark.parametrize("batched", [True, False])
    def test_run_service_over_tcp_matches_in_process(self, batched):
        """The engine itself — shipped probes, exactness checks, churn —
        runs unchanged against a TCP backend and lands identical results."""
        n_groups, steps, seed = 6, 12, 31

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
                if t % 5 != 0:
                    return None
                return [(SMALL_WORLD.sample(rng), None) for _ in range(3)], []

            return dataset, groups, churn

        dataset, groups, churn = build()
        want = run_service(
            groups,
            fleet_policies(n_groups),
            n_timestamps=steps,
            check_every=4,
            churn=churn,
            backend=MPNService(dataset.tree, batched=batched),
        )

        dataset, groups, churn = build()
        poi_points = [e.point for e in dataset.tree.entries()]
        service = MPNService(
            as_space(build_poi_tree(list(poi_points))),
            batched=batched,
        )
        with ThreadedWireServer(service) as server:
            remote = RemoteBackend(
                *server.address,
                space=as_space(build_poi_tree(list(poi_points))),
            )
            try:
                got = run_service(
                    groups,
                    fleet_policies(n_groups),
                    n_timestamps=steps,
                    check_every=4,
                    churn=churn,
                    backend=remote,
                )
                # .metrics is lazy (reads the backend), so compare
                # while the connection is still open.
                got_metrics = counters(got.metrics)
            finally:
                remote.close()

        assert got.session_ids == want.session_ids
        assert got.churn_notified == want.churn_notified
        assert [counters(m) for m in got.session_metrics] == [
            counters(m) for m in want.session_metrics
        ]
        assert got_metrics == counters(want.metrics)


class TestProcessClusterMatchesInProcessCluster:
    def test_multiprocess_waves_and_churn_are_bit_identical(self):
        """The acceptance bar: a TCP fleet against spawned worker
        processes == the in-process MPNCluster, notification for
        notification."""
        in_proc = MPNCluster(2, FACTORY)
        with ProcessCluster(2, FACTORY) as proc:
            rng = random.Random(21)
            policies = fleet_policies(9)
            ids = []
            for g in range(9):
                members = [
                    SMALL_WORLD.sample(rng) for _ in range(1 + g % 3)
                ]
                h_want = in_proc.open_session(members, policies[g])
                h_got = proc.open_session(members, policies[g])
                assert h_want.session_id == h_got.session_id
                assert proc.shard_for(h_got.session_id) == in_proc.shard_for(
                    h_got.session_id
                )
                assert notification_key(h_want.notification) == (
                    notification_key(h_got.notification)
                )
                ids.append(h_want.session_id)

            for round_no in range(2):
                events = [
                    ReportEvent(
                        sid, 0, MemberState(SMALL_WORLD.sample(rng))
                    )
                    for sid in ids
                    if rng.random() < 0.8
                ]
                got = proc.report_many(list(events))
                want = in_proc.report_many(list(events))
                assert [notification_key(n) for n in got] == [
                    notification_key(n) for n in want
                ], f"round {round_no} diverged across processes"

                adds = [(SMALL_WORLD.sample(rng), None) for _ in range(3)]
                churn_got = proc.update_pois(adds=adds)
                churn_want = in_proc.update_pois(adds=adds)
                assert [notification_key(n) for n in churn_got] == [
                    notification_key(n) for n in churn_want
                ]
                # Exactly one epoch bump per worker per batch.
                assert proc.worker_epochs() == [round_no + 1] * 2

            assert counters(in_proc.metrics) == counters(proc.metrics)
            assert in_proc.session_ids() == proc.session_ids()
            for sid in ids:
                assert counters(in_proc.session_metrics(sid)) == counters(
                    proc.session_metrics(sid)
                )
        assert proc.worker_exitcodes() == [0, 0]

    def test_all_or_nothing_wave_across_workers(self):
        """A bad event bound for one worker leaves every worker
        untouched — the cross-process all-or-nothing contract.  The
        front door rejects the wave itself, with the exceptions a
        single service raises, so *nothing* crosses the wire."""
        single = MPNService(FACTORY())
        with ProcessCluster(2, FACTORY) as proc:
            rng = random.Random(5)
            ids = []
            for _ in range(6):
                members = [SMALL_WORLD.sample(rng) for _ in range(2)]
                single.open_session(members, circle_policy())
                ids.append(
                    proc.open_session(members, circle_policy()).session_id
                )
            assert {proc.shard_for(sid) for sid in ids} == {0, 1}
            good = [
                ReportEvent(sid, 0, MemberState(SMALL_WORLD.sample(rng)))
                for sid in ids
            ]
            state = MemberState(SMALL_WORLD.sample(rng))
            bad_events = [
                (ReportEvent(999, 0, state), UnknownSessionError),
                (ReportEvent(ids[2], 2, state), ValueError),
                (
                    ReportEvent(ids[3], 0, state, probes=((5, state),)),
                    ValueError,
                ),
            ]
            before = counters(proc.metrics)
            served = [s["requests_served"] for s in proc.server_stats()]
            for bad, error in bad_events:
                with pytest.raises(error) as want:
                    single.validate_events(good + [bad])
                with pytest.raises(error) as got:
                    proc.report_many(good + [bad])
                assert type(got.value) is type(want.value)
                assert str(got.value) == str(want.value)
            # Each stats read is itself one served request per worker;
            # beyond that, the rejected waves reached nobody.
            assert [
                s["requests_served"] for s in proc.server_stats()
            ] == [n + 1 for n in served]
            assert counters(proc.metrics) == before

    def test_network_space_replicas_fan_across_workers(self):
        """Road-network sessions and node churn through worker processes
        match the in-process cluster with the same replica factories."""
        in_proc = MPNCluster(2, FACTORY)
        in_proc.add_space("roads", ROADS)
        reference = ROADS()
        rng = random.Random(50)
        trajectories = [
            [
                network_trajectory(reference.space, 8, speed=40.0, rng=rng)
                for _ in range(2)
            ]
            for _ in range(4)
        ]
        with ProcessCluster(
            2, FACTORY, extra_spaces={"roads": ROADS}
        ) as proc:
            policies = [
                net_circle_policy()
                if g % 2
                else net_tile_policy(alpha=5, split_level=1)
                for g in range(4)
            ]
            ids = []
            for policy, group in zip(policies, trajectories):
                members = [MemberState(t[0]) for t in group]
                h_want = in_proc.open_session(members, policy, space="roads")
                h_got = proc.open_session(members, policy, space="roads")
                assert h_want.session_id == h_got.session_id
                assert notification_key(h_want.notification) == (
                    notification_key(h_got.notification)
                )
                ids.append(h_want.session_id)

            for t in range(1, 5):
                events = [
                    ReportEvent(sid, t % 2, MemberState(group[t % 2][t]))
                    for sid, group in zip(ids, trajectories)
                ]
                got = proc.report_many(list(events))
                want = in_proc.report_many(list(events))
                assert [notification_key(n) for n in got] == [
                    notification_key(n) for n in want
                ], f"network wave at t={t} diverged across processes"

            # One node-churn round fanned to every worker's road replica.
            alive = reference.index.poi_nodes()
            nodes = list(reference.space.graph.nodes)
            add_node = rng.choice([n for n in nodes if n not in alive])
            drop_node = rng.choice(list(alive))
            churn_got = proc.update_pois(
                adds=[(add_node, None)],
                removes=[(drop_node, None)],
                space="roads",
            )
            churn_want = in_proc.update_pois(
                adds=[(add_node, None)],
                removes=[(drop_node, None)],
                space="roads",
            )
            assert [notification_key(n) for n in churn_got] == [
                notification_key(n) for n in churn_want
            ]
            assert proc.worker_epochs("roads") == [1, 1]
            assert counters(in_proc.metrics) == counters(proc.metrics)

    def test_run_service_drives_a_process_cluster(self):
        """The full engine against spawned workers == the in-process
        cluster == one service, end to end.  The last group runs Tile-D,
        so every report event and probe ships a heading and a theta."""
        n_groups, steps, seed = 6, 10, 42
        policies = fleet_policies(n_groups - 1) + [
            tile_d_policy(alpha=5, split_level=1)
        ]

        def build():
            dataset = build_dataset(
                DatasetSpec(
                    name="geolife",
                    n_pois=350,
                    n_trajectories=sum(1 + g % 2 for g in range(n_groups)),
                    n_timestamps=steps,
                    seed=seed,
                )
            )
            groups, at = [], 0
            for g in range(n_groups):
                size = 1 + g % 2
                groups.append(dataset.trajectories[at : at + size])
                at += size
            rng = random.Random(seed)

            def churn(t):
                if t % 5 != 0:
                    return None
                return [(SMALL_WORLD.sample(rng), None) for _ in range(2)], []

            return dataset, groups, churn

        dataset, groups, churn = build()
        single = run_service(
            groups,
            policies,
            n_timestamps=steps,
            check_every=5,
            churn=churn,
            backend=MPNService(FACTORY()),
        )

        dataset, groups, churn = build()
        in_proc = MPNCluster(2, FACTORY)
        want = run_service(
            groups,
            policies,
            n_timestamps=steps,
            check_every=5,
            churn=churn,
            backend=in_proc,
        )

        dataset, groups, churn = build()
        with ProcessCluster(2, FACTORY) as proc:
            got = run_service(
                groups,
                policies,
                n_timestamps=steps,
                check_every=5,
                churn=churn,
                backend=proc,
            )
            got_metrics = counters(got.metrics)
        assert proc.worker_exitcodes() == [0, 0]

        for run in (got, want):
            assert run.session_ids == single.session_ids
            assert run.churn_notified == single.churn_notified
            assert [counters(m) for m in run.session_metrics] == [
                counters(m) for m in single.session_metrics
            ]
        assert got_metrics == counters(want.metrics)
        assert counters(want.metrics) == counters(single.metrics)
