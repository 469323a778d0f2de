"""Live resharding must be invisible in the answers, bit for bit.

A fleet driven across a mid-run ``add_shard()`` / ``remove_shard()``
— on the in-process :class:`~repro.cluster.MPNCluster` and on the
multi-process :class:`~repro.transport.ProcessCluster` — must emit
exactly the notification sequence an unsharded
:class:`~repro.service.MPNService` emits for the same traffic, with
merged counters matching counter for counter (retired shards'
aggregates included).  Migration moves sessions by snapshot: no
recomputation, no metric charges, no rng consumption — which is what
these runs prove, across Euclidean and road-network spaces, on the
batched and the scalar fleet path.

The driver here is deliberately backend-agnostic: it tracks session
sizes and meeting points client-side from the notifications instead of
peeking at server state, so the identical closure drives a plain
service, an in-process cluster, or spawned worker processes over TCP.
"""

from __future__ import annotations

import random

import pytest

from repro.cluster import MPNCluster
from repro.geometry.point import Point
from repro.network_ext.monitor import network_trajectory
from repro.network_ext.space import NetworkSpace
from repro.service import MemberState, MPNService, ReportEvent
from repro.simulation import net_circle_policy, net_tile_policy
from repro.transport import (
    GridNetworkSpaceFactory,
    ProcessCluster,
    UniformPoiSpaceFactory,
)
from tests.conftest import SMALL_WORLD
from tests.test_cluster_equivalence import notification_key
from tests.test_service_batch_equivalence import counters, fleet_policies

FACTORY = UniformPoiSpaceFactory(n_pois=350, seed=11)
ROADS = GridNetworkSpaceFactory(grid_size=5, seed=33, n_pois=10, poi_seed=1)


def run_euclidean_fleet(backend, *, seed, n_groups, rounds, reshard=None):
    """Open a fleet, drive interleaved waves + po-targeted churn.

    ``reshard`` maps round number -> callable, invoked before that
    round's wave (a no-op dict for the reference run — resharding
    consumes no rng, so the streams stay aligned).  Returns the full
    notification log plus aggregate and per-session counters.
    """
    reshard = reshard or {}
    rng = random.Random(seed)
    policies = fleet_policies(n_groups)
    ids, sizes, po = [], {}, {}
    log = []
    for g in range(n_groups):
        size = 1 + (g + seed) % 4
        members = [SMALL_WORLD.sample(rng) for _ in range(size)]
        handle = backend.open_session(members, policies[g])
        ids.append(handle.session_id)
        sizes[handle.session_id] = size
        po[handle.session_id] = handle.notification.po
        log.append(("open", handle.session_id, notification_key(handle.notification)))
    for round_no in range(rounds):
        if round_no in reshard:
            reshard[round_no]()
        events = []
        for sid in ids:
            if rng.random() < 0.7:
                member = rng.randrange(sizes[sid])
                events.append(
                    ReportEvent(sid, member, MemberState(SMALL_WORLD.sample(rng)))
                )
        wave = backend.report_many(list(events))
        for n in wave:
            if n is not None:
                po[n.session_id] = n.po
        log.append(("wave", round_no, tuple(notification_key(n) for n in wave)))
        targets = rng.sample([po[sid] for sid in ids], 3)
        adds = [
            (Point(t.x + rng.uniform(-2, 2), t.y + rng.uniform(-2, 2)), None)
            for t in targets
        ]
        churn = backend.update_pois(adds=adds)
        for n in churn:
            po[n.session_id] = n.po
        log.append(("churn", round_no, tuple(notification_key(n) for n in churn)))
    session_counters = {sid: counters(backend.session_metrics(sid)) for sid in ids}
    return log, counters(backend.metrics), session_counters


def run_network_fleet(backend, *, seed, rounds, reshard=None):
    """Road-network twin driver: sessions on the ``roads`` space.

    POI liveness is tracked client-side (starting from the factory's
    seeded pick) so churn decisions never read server state.
    """
    reshard = reshard or {}
    rng = random.Random(seed)
    net = NetworkSpace.from_grid(grid_size=ROADS.grid_size, seed=ROADS.seed)
    nodes = list(net.graph.nodes)
    alive = set(random.Random(ROADS.poi_seed).sample(nodes, ROADS.n_pois))
    policies = [
        net_circle_policy() if g % 2 else net_tile_policy(alpha=5, split_level=1)
        for g in range(6)
    ]
    trajectories = [
        [network_trajectory(net, rounds + 2, speed=40.0, rng=rng) for _ in range(2)]
        for _ in range(6)
    ]
    ids = []
    log = []
    for policy, group in zip(policies, trajectories):
        handle = backend.open_session(
            [MemberState(t[0]) for t in group], policy, space="roads"
        )
        ids.append(handle.session_id)
        log.append(("open", handle.session_id, notification_key(handle.notification)))
    for t in range(1, rounds + 1):
        if t in reshard:
            reshard[t]()
        events = [
            ReportEvent(sid, t % 2, MemberState(group[t % 2][t]))
            for sid, group in zip(ids, trajectories)
        ]
        wave = backend.report_many(list(events))
        log.append(("wave", t, tuple(notification_key(n) for n in wave)))
        if t % 2 == 0:
            add_node = rng.choice([n for n in nodes if n not in alive])
            drop_node = rng.choice(sorted(alive))
            alive.add(add_node)
            alive.discard(drop_node)
            churn = backend.update_pois(
                adds=[(add_node, None)], removes=[(drop_node, None)], space="roads"
            )
            log.append(("churn", t, tuple(notification_key(n) for n in churn)))
    session_counters = {sid: counters(backend.session_metrics(sid)) for sid in ids}
    return log, counters(backend.metrics), session_counters


RESHARD_PLANS = ["grow", "shrink", "grow_shrink"]


def build_plan(cluster, kind, rounds):
    """Round -> reshard callable; shrink always retires an *original*
    shard so sessions must cross to survivors (and, in grow_shrink,
    onto the newcomer)."""
    if kind == "grow":
        return {rounds // 3: lambda: cluster.add_shard()}
    if kind == "shrink":
        return {rounds // 3: lambda: cluster.remove_shard(0)}
    return {
        max(1, rounds // 3): lambda: cluster.add_shard(),
        max(2, 2 * rounds // 3): lambda: cluster.remove_shard(0),
    }


class TestInProcessElasticEquivalence:
    """MPNCluster reshaped mid-run == one MPNService, bit for bit."""

    @pytest.mark.parametrize("batched", [True, False])
    @pytest.mark.parametrize("plan", RESHARD_PLANS)
    def test_euclidean_fleet_across_reshard(self, batched, plan):
        single = MPNService(FACTORY(), batched=batched)
        want = run_euclidean_fleet(single, seed=3, n_groups=12, rounds=6)

        cluster = MPNCluster(2, FACTORY, batched=batched)
        got = run_euclidean_fleet(
            cluster,
            seed=3,
            n_groups=12,
            rounds=6,
            reshard=build_plan(cluster, plan, 6),
        )
        assert got[0] == want[0], f"notification log diverged across {plan}"
        assert got[1] == want[1], "merged counters diverged"
        assert got[2] == want[2], "per-session counters diverged"
        if plan == "grow":
            assert cluster.shard_ids() == [0, 1, 2]
        elif plan == "shrink":
            assert cluster.shard_ids() == [1]
        else:  # ids are never recycled
            assert cluster.shard_ids() == [1, 2]

    @pytest.mark.parametrize("plan", RESHARD_PLANS)
    def test_network_fleet_across_reshard(self, plan):
        rounds = 6
        single = MPNService(FACTORY())
        single.add_space("roads", ROADS())
        want = run_network_fleet(single, seed=44, rounds=rounds)

        cluster = MPNCluster(2, FACTORY)
        cluster.add_space("roads", ROADS)
        got = run_network_fleet(
            cluster,
            seed=44,
            rounds=rounds,
            reshard=build_plan(cluster, plan, rounds),
        )
        assert got[0] == want[0], f"network log diverged across {plan}"
        assert got[1] == want[1]
        assert got[2] == want[2]

    def test_migration_is_free_and_minimal(self):
        """A reshard recomputes nothing, charges nothing, and moves
        exactly the ring's minimal remap set."""
        cluster = MPNCluster(3, FACTORY)
        rng = random.Random(8)
        for g in range(9):
            cluster.open_session(
                [SMALL_WORLD.sample(rng) for _ in range(2)], fleet_policies(9)[g]
            )
        before = counters(cluster.metrics)
        per_session = {
            sid: counters(cluster.session_metrics(sid))
            for sid in cluster.session_ids()
        }
        old_owner = {sid: cluster.shard_for(sid) for sid in cluster.session_ids()}
        new_id = cluster.add_shard()
        assert counters(cluster.metrics) == before
        for sid in cluster.session_ids():
            assert counters(cluster.session_metrics(sid)) == per_session[sid]
            # minimal remap: a session either stayed put or moved TO
            # the newcomer — never between incumbents
            assert cluster.shard_for(sid) in (old_owner[sid], new_id)
        cluster.remove_shard(new_id)
        assert counters(cluster.metrics) == before
        assert {sid: cluster.shard_for(sid) for sid in cluster.session_ids()} == (
            old_owner
        ), "removing the shard we just added must restore the old placement"


class TestProcessClusterElasticEquivalence:
    """Spawned worker processes reshaped mid-run == one MPNService."""

    @pytest.mark.parametrize("batched", [True, False])
    def test_euclidean_fleet_across_grow_and_shrink(self, batched):
        single = MPNService(FACTORY(), batched=batched)
        want = run_euclidean_fleet(single, seed=3, n_groups=12, rounds=6)

        with ProcessCluster(2, FACTORY, batched=batched) as proc:
            got = run_euclidean_fleet(
                proc,
                seed=3,
                n_groups=12,
                rounds=6,
                # grow at round 2 (the newcomer replays the churn log),
                # then retire original worker 0 at round 4
                reshard={
                    2: lambda: proc.add_shard(),
                    4: lambda: proc.remove_shard(0),
                },
            )
            assert got[0] == want[0], "log diverged across process reshard"
            assert got[1] == want[1]
            assert got[2] == want[2]
            assert proc.shard_ids() == [1, 2]
            # the late-spawned worker caught up epoch for epoch
            assert len(set(proc.worker_epochs())) == 1
        # every worker ever spawned — the retired one included — exited 0
        assert proc.worker_exitcodes() == [0, 0, 0]

    def test_network_fleet_across_grow_and_shrink(self):
        single = MPNService(FACTORY())
        single.add_space("roads", ROADS())
        want = run_network_fleet(single, seed=44, rounds=5)

        with ProcessCluster(2, FACTORY, extra_spaces={"roads": ROADS}) as proc:
            got = run_network_fleet(
                proc,
                seed=44,
                rounds=5,
                reshard={
                    2: lambda: proc.add_shard(),
                    4: lambda: proc.remove_shard(0),
                },
            )
            assert got[0] == want[0], "network log diverged across process reshard"
            assert got[1] == want[1]
            assert got[2] == want[2]
        assert proc.worker_exitcodes() == [0, 0, 0]
