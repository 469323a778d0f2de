"""Network sessions served by MPNService through the strategy registry.

The acceptance surface of the Space tentpole: ``open_session`` accepts
road-network sessions under the registry strategies ``net_circle`` /
``net_tile`` with full feature parity — report/probe/notify,
``update_pois`` with Lemma-1 selective re-notification, per-session
plus service-wide metrics, and ``net_circle`` on the batched fleet path
(``net_tile`` falls back to the scalar path per session).
"""

import random

import pytest

from repro.gnn.aggregate import Aggregate
from repro.network_ext.ball import NetworkBall
from repro.network_ext.circle_msr import network_circle_msr
from repro.network_ext.gnn import network_gnn
from repro.network_ext.space import NetworkPosition, NetworkSpace
from repro.network_ext.tile_msr import NetworkTileRegion
from repro.scenarios.runner import counters, notification_key
from repro.service import MemberState, MPNService, ReportEvent
from repro.service.strategies import available_strategies
from repro.simulation import circle_policy, net_circle_policy, net_tile_policy
from repro.space.network import NetworkPOISpace
from repro.workloads.poi import build_poi_tree, uniform_pois
from tests.conftest import SMALL_WORLD


@pytest.fixture(scope="module")
def net_space():
    return NetworkSpace.from_grid(grid_size=5, seed=23)


@pytest.fixture(scope="module")
def net_pois(net_space):
    return random.Random(3).sample(list(net_space.graph.nodes), 8)


@pytest.fixture
def poi_space(net_space, net_pois):
    # Function-scoped: churn tests mutate the POI set.
    return NetworkPOISpace(net_space, net_pois)


@pytest.fixture
def service(poi_space):
    """A service whose *default* space is the road network."""
    return MPNService(poi_space)


def network_users(net_space, rng, m):
    return [net_space.random_position(rng) for _ in range(m)]


def escape_position(net_space, region):
    """A deterministic position outside ``region``."""
    for node in net_space.graph.nodes:
        pos = NetworkPosition.at_node(node)
        if not region.contains(pos):
            return pos
    raise AssertionError("region covers the whole network")


class TestRegistryAndValidation:
    def test_network_strategies_registered(self):
        assert {"net_circle", "net_tile"} <= set(available_strategies())

    def test_space_kind_mismatch_rejected(self, net_space, net_pois, rng):
        euclidean_service = MPNService(
            build_poi_tree(uniform_pois(50, SMALL_WORLD, seed=4))
        )
        users = network_users(net_space, random.Random(1), 2)
        # A network policy on the (default) Euclidean space...
        with pytest.raises(ValueError, match="network"):
            euclidean_service.open_session(users, net_circle_policy())
        # ... and a Euclidean policy on a network space.
        net = NetworkPOISpace(net_space, net_pois)
        with pytest.raises(ValueError, match="euclidean"):
            euclidean_service.open_session(
                users, circle_policy(), space=net
            )

    def test_update_policy_checks_space_kind(self, service, net_space):
        handle = service.open_session(
            network_users(net_space, random.Random(2), 2), net_circle_policy()
        )
        with pytest.raises(ValueError):
            service.update_policy(handle.session_id, circle_policy())
        service.update_policy(handle.session_id, net_tile_policy(alpha=4))


class TestNetworkSessions:
    def test_open_session_serves_exact_result(
        self, service, net_space, net_pois
    ):
        rng = random.Random(5)
        users = network_users(net_space, rng, 3)
        handle = service.open_session(users, net_circle_policy())
        best_dist, best = network_gnn(net_space, net_pois, users, 1)[0]
        assert handle.notification.po == best
        assert all(
            isinstance(r, NetworkBall) for r in handle.notification.regions
        )
        # Registration traffic: m location updates up, m notifications down.
        metrics = service.session_metrics(handle.session_id)
        assert metrics.messages_up == 3
        assert metrics.messages_down == 3
        assert metrics.update_events == 1
        assert service.metrics.messages_total == metrics.messages_total

    def test_report_probe_notify_round(self, service, net_space):
        rng = random.Random(6)
        users = network_users(net_space, rng, 3)
        handle = service.open_session(users, net_circle_policy())
        session = service.session(handle.session_id)
        before = session.metrics.messages_up
        escaped = escape_position(net_space, session.regions[0])
        notification = service.report(handle.session_id, 0, escaped)
        assert notification is not None
        assert notification.cause == "report"
        # Trigger update + (m-1) probe replies up; m notifications down.
        assert session.metrics.messages_up == before + 1 + 2
        assert session.po == notification.po

    def test_in_region_report_is_free(self, service, net_space):
        rng = random.Random(7)
        users = network_users(net_space, rng, 2)
        handle = service.open_session(users, net_circle_policy())
        session = service.session(handle.session_id)
        inside = session.regions[0].center  # trivially inside
        traffic = session.metrics.messages_total
        assert service.report(handle.session_id, 0, inside) is None
        assert session.metrics.messages_total == traffic

    def test_net_tile_session_end_to_end(self, service, net_space, net_pois):
        rng = random.Random(8)
        users = network_users(net_space, rng, 2)
        handle = service.open_session(
            users, net_tile_policy(alpha=6, split_level=1)
        )
        assert all(
            isinstance(r, NetworkTileRegion) for r in handle.notification.regions
        )
        session = service.session(handle.session_id)
        escaped = escape_position(net_space, session.regions[0])
        notification = service.report(handle.session_id, 0, escaped)
        assert notification is not None
        best = network_gnn(
            net_space, net_pois, [escaped, users[1]], 1
        )[0][1]
        assert notification.po == best
        assert session.metrics.tile_verifications >= 1

    def test_sum_objective_session(self, service, net_space, net_pois):
        rng = random.Random(9)
        users = network_users(net_space, rng, 3)
        handle = service.open_session(
            users, net_circle_policy(Aggregate.SUM)
        )
        best = network_gnn(net_space, net_pois, users, 1, Aggregate.SUM)[0][1]
        assert handle.notification.po == best


class TestNetworkChurn:
    def test_irrelevant_add_renotifies_nobody(self, service, net_space):
        rng = random.Random(10)
        handle = service.open_session(
            network_users(net_space, rng, 2), net_circle_policy()
        )
        session = service.session(handle.session_id)
        # The farthest node from the meeting point provably loses
        # Lemma 1 against tight safe regions... unless it *wins*; pick
        # the node maximizing distance from every region.
        po_node = session.po
        candidates = sorted(
            net_space.graph.nodes,
            key=lambda n: min(r.min_dist(n) for r in session.regions),
        )
        far = candidates[-1]
        updates_before = session.metrics.update_events
        notifications = service.update_pois(
            adds=[(far, None)], space=session.space
        )
        assert notifications == []
        assert session.metrics.update_events == updates_before
        assert far in session.space.index.poi_nodes()
        assert session.po == po_node

    def test_winning_add_renotifies_with_new_po(
        self, service, net_space, net_pois
    ):
        # A single-member group parked on a non-POI node: planting a
        # POI on that node wins at distance zero, so Lemma 1 must fail
        # and the session must be re-notified with the new optimum.
        winner = next(
            n for n in net_space.graph.nodes if n not in net_pois
        )
        user = NetworkPosition.at_node(winner)
        handle = service.open_session([user], net_circle_policy())
        session = service.session(handle.session_id)
        assert session.po != winner
        notifications = service.update_pois(
            adds=[(winner, None)], space=session.space
        )
        assert [n.session_id for n in notifications] == [handle.session_id]
        assert notifications[0].cause == "poi_update"
        assert session.po == winner

    def test_removing_meeting_poi_renotifies(self, service, net_space):
        rng = random.Random(12)
        handle = service.open_session(
            network_users(net_space, rng, 2), net_circle_policy()
        )
        session = service.session(handle.session_id)
        old_po = session.po
        notifications = service.update_pois(
            removes=[(old_po, None)], space=session.space
        )
        assert [n.session_id for n in notifications] == [handle.session_id]
        assert session.po != old_po
        with pytest.raises(KeyError):
            service.update_pois(removes=[(old_po, None)], space=session.space)

    def test_churn_through_second_wrapper_still_invalidates(self, rng):
        """Sessions are matched to churn by index, not wrapper identity:
        a fresh Space over the same index must still re-notify."""
        from repro.geometry.point import Point
        from repro.space import as_space

        tree = build_poi_tree(uniform_pois(60, SMALL_WORLD, seed=27))
        service = MPNService(tree)
        user = SMALL_WORLD.sample(rng)
        handle = service.open_session([user], circle_policy())
        session = service.session(handle.session_id)
        winner = Point(user.x, user.y)  # distance ~0: provably wins
        notifications = service.update_pois(
            adds=[(winner, None)], space=as_space(tree)  # a *new* wrapper
        )
        assert [n.session_id for n in notifications] == [handle.session_id]
        assert session.po == winner

    def test_tile_regions_survive_lemma1_check(self, service, net_space):
        """Tile sessions answer Lemma-1 bounds too (min/max dist)."""
        rng = random.Random(13)
        handle = service.open_session(
            network_users(net_space, rng, 2),
            net_tile_policy(alpha=5, split_level=1),
        )
        session = service.session(handle.session_id)
        candidates = sorted(
            net_space.graph.nodes,
            key=lambda n: min(r.min_dist(n) for r in session.regions),
        )
        notifications = service.update_pois(
            adds=[(candidates[-1], None)], space=session.space
        )
        assert notifications == []


class TestMixedSpacesOneService:
    def test_churn_isolation_between_spaces(self, net_space, net_pois, rng):
        """One service, Euclidean default space + network space: churn
        on either index leaves the other space's sessions untouched."""
        euclidean_pois = uniform_pois(100, SMALL_WORLD, seed=14)
        service = MPNService(build_poi_tree(euclidean_pois))
        net = NetworkPOISpace(net_space, net_pois)
        e_handle = service.open_session(
            [SMALL_WORLD.sample(rng) for _ in range(2)], circle_policy()
        )
        n_handle = service.open_session(
            network_users(net_space, random.Random(15), 2),
            net_circle_policy(),
            space=net,
        )
        e_session = service.session(e_handle.session_id)
        n_session = service.session(n_handle.session_id)
        assert n_session.space is net
        assert e_session.space is service.space
        # Plant a certain-to-win POI in each space; only that space's
        # session may be re-notified.
        n_updates = n_session.metrics.update_events
        service.update_pois(adds=[(e_session.positions[0], None)])
        assert n_session.metrics.update_events == n_updates
        e_updates = e_session.metrics.update_events
        winner = net_space.anchors(n_session.positions[0])[0][0]
        if winner in net.index.poi_nodes():
            net.index.bulk_update(removes=[(winner, None)])
        notifications = service.update_pois(adds=[(winner, None)], space=net)
        assert {n.session_id for n in notifications} <= {n_handle.session_id}
        assert e_session.metrics.update_events == e_updates
        # Service-wide metrics aggregate both spaces' sessions.
        assert service.metrics.messages_total == (
            e_session.metrics.messages_total + n_session.metrics.messages_total
        )


class TestBatchedPath:
    """``net_circle`` rides the batched fleet path: every wave and every
    churn sweep of ``MPNService(batched=True)`` equals the scalar
    service's, and both equal Algorithm 1 run with no index at all."""

    @staticmethod
    def twin_fleets(net_space, net_pois, n_sessions=24):
        fleets = []
        for batched in (True, False):
            service = MPNService(NetworkPOISpace(net_space, net_pois), batched=batched)
            local = random.Random(17)
            ids = [
                service.open_session(
                    network_users(net_space, local, 1 + g % 3),
                    net_circle_policy(Aggregate.SUM if g % 2 else Aggregate.MAX),
                ).session_id
                for g in range(n_sessions)
            ]
            fleets.append((service, ids))
        assert fleets[0][1] == fleets[1][1]
        return fleets[0][0], fleets[1][0], fleets[0][1]

    @staticmethod
    def assert_brute_force(service, notification, reference_space):
        """The notified session's result against ``network_circle_msr``
        with no index: brute-force GNN on networkx Dijkstra maps, balls
        from their own anchor rows, over an independent oracle."""
        session = service.session(notification.session_id)
        want = network_circle_msr(
            reference_space,
            session.space.index.poi_nodes(),
            [ball.center for ball in notification.regions],
            session.policy.objective,
        )
        assert notification.po == want.po
        assert len(notification.regions) == len(want.balls) == session.size
        nodes = list(reference_space.graph.nodes)
        for ball, ref in zip(notification.regions, want.balls):
            assert ball.radius == ref.radius
            assert ball._dist == ref._dist
            assert [ball.node_distance(n) for n in nodes] == [
                ref.node_distance(n) for n in nodes
            ]
            assert ball.covered_segments() == ref.covered_segments()
            assert ball.wire_values() == ref.wire_values()
        assert list(notification.region_values) == [
            ref.wire_values() for ref in want.balls
        ]

    def test_waves_and_churn_match_scalar_and_brute_force(
        self, net_space, net_pois
    ):
        batched, scalar, ids = self.twin_fleets(net_space, net_pois)
        reference_space = NetworkSpace(net_space.graph)
        rng = random.Random(16)
        nodes = sorted(net_space.graph.nodes)
        compared = 0
        for _ in range(5):
            # A wave with repeats: every session reports member 0, and
            # every third session a second member too (duplicate session
            # ids split into successive sub-waves).
            events = []
            for g, sid in enumerate(ids):
                size = batched.session(sid).size
                members = [0] if g % 3 or size == 1 else [0, size - 1]
                for member in members:
                    pos = (
                        NetworkPosition.at_node(rng.choice(nodes))
                        if rng.random() < 0.5
                        else net_space.random_position(rng)
                    )
                    events.append(ReportEvent(sid, member, MemberState(point=pos)))
            rng.shuffle(events)
            got = batched.report_many(events)
            want = scalar.report_many(events)
            assert [n and notification_key(n) for n in got] == [
                n and notification_key(n) for n in want
            ]
            # Node churn between waves: drop a live POI some session may
            # be meeting at, plant two new ones.
            live = batched.space.index.poi_nodes()
            removes = [(rng.choice(live), None)]
            adds = [(rng.choice(nodes), None), (rng.choice(nodes), None)]
            churned = batched.update_pois(adds, removes)
            assert [notification_key(n) for n in churned] == [
                notification_key(n) for n in scalar.update_pois(adds, removes)
            ]
            for notification in churned:
                self.assert_brute_force(batched, notification, reference_space)
            compared += len(churned)
            # After the churn the POI set the wave computed against is
            # gone, so waves are refereed on a fresh one.
            refresh = batched.recompute_many(ids + ids[:3])
            assert [notification_key(n) for n in refresh] == [
                notification_key(n) for n in scalar.recompute_many(ids + ids[:3])
            ]
            for notification in refresh:
                self.assert_brute_force(batched, notification, reference_space)
            compared += len(refresh)
        assert compared >= 5 * len(ids)
        assert counters(batched.metrics) == counters(scalar.metrics)
        for sid in ids:
            assert counters(batched.session_metrics(sid)) == counters(
                scalar.session_metrics(sid)
            )
