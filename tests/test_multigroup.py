"""Multi-group serving on one shared index, and dynamic POI updates.

Lemma-1 insertion, deletion of a meeting point, and the batch that
recomputes each invalidated session once — all through
:class:`repro.service.MPNService`.
"""

import pytest

from repro.gnn.aggregate import Aggregate
from repro.gnn.bruteforce import brute_force_gnn
from repro.geometry.point import Point
from repro.service import MPNService
from repro.service.session import sum_verify_regions
from repro.simulation.policies import circle_policy, tile_policy
from repro.workloads.poi import build_poi_tree, uniform_pois
from tests.conftest import SMALL_WORLD, random_users

@pytest.fixture
def server():
    pois = uniform_pois(300, SMALL_WORLD, seed=8)
    return MPNService(build_poi_tree(pois)), pois


def _current_pois(server):
    return [e.point for e in server.tree.entries()]


def _assert_group_result_exact(server, session_id, rng, samples=40):
    """The headline invariant: sampled instances inside the group's
    regions keep its cached meeting point optimal over the CURRENT
    POI set."""
    session = server.session(session_id)
    pois = _current_pois(server)
    objective = session.policy.objective
    for _ in range(samples):
        locs = [r.sample(rng) for r in session.regions]
        best = brute_force_gnn(pois, locs, 1, objective)[0]
        if objective is Aggregate.MAX:
            d_po = max(session.po.dist(l) for l in locs)
        else:
            d_po = sum(session.po.dist(l) for l in locs)
        assert d_po <= best[0] + 1e-7


class TestGroupLifecycle:
    def test_register_computes_result(self, server, rng):
        srv, _ = server
        gid = srv.open_session(random_users(rng, 3), circle_policy()).session_id
        session = srv.session(gid)
        assert session.po is not None
        assert len(session.regions) == 3
        assert session.metrics.update_events == 1

    def test_multiple_groups_independent(self, server, rng):
        srv, _ = server
        a = srv.open_session(random_users(rng, 2), circle_policy()).session_id
        b = srv.open_session(random_users(rng, 3), tile_policy(alpha=4)).session_id
        assert srv.session_ids() == [a, b]
        assert len(srv.session(a).regions) == 2
        assert len(srv.session(b).regions) == 3
        srv.close_session(a)
        assert srv.session_ids() == [b]

    def test_update_locations_validates_count(self, server, rng):
        srv, _ = server
        gid = srv.open_session(random_users(rng, 3), circle_policy()).session_id
        with pytest.raises(ValueError):
            srv.update_locations(gid, random_users(rng, 2))

    def test_update_locations_refreshes(self, server, rng):
        srv, _ = server
        gid = srv.open_session(random_users(rng, 2), circle_policy()).session_id
        notification = srv.update_locations(gid, random_users(rng, 2))
        assert notification.po == srv.session(gid).po
        assert srv.session(gid).metrics.update_events == 2


class TestPoiInsertion:
    def test_far_poi_invalidates_nobody(self, server, rng):
        srv, _ = server
        users = [Point(100, 100), Point(150, 120)]
        gid = srv.open_session(users, circle_policy()).session_id
        assert srv.add_poi(Point(10_000.0, 10_000.0)) == []
        _assert_group_result_exact(srv, gid, rng)

    def test_poi_at_group_center_invalidates(self, server, rng):
        srv, _ = server
        users = [Point(100, 100), Point(200, 200)]
        gid = srv.open_session(users, circle_policy()).session_id
        # A venue right between the users beats any existing one.
        notified = [n.session_id for n in srv.add_poi(Point(150, 150))]
        assert gid in notified
        assert srv.session(gid).po == Point(150, 150)
        _assert_group_result_exact(srv, gid, rng)

    def test_insertion_keeps_guarantee_randomized(self, server, rng):
        """Whether or not groups get recomputed, the invariant holds."""
        srv, _ = server
        gids = [
            srv.open_session(random_users(rng, 3), circle_policy()).session_id
            for _ in range(4)
        ]
        for _ in range(15):
            srv.add_poi(SMALL_WORLD.sample(rng))
        for gid in gids:
            _assert_group_result_exact(srv, gid, rng, samples=25)

    def test_insertion_with_tile_regions(self, server, rng):
        srv, _ = server
        gid = srv.open_session(
            random_users(rng, 3), tile_policy(alpha=5, split_level=1)
        ).session_id
        for _ in range(10):
            srv.add_poi(SMALL_WORLD.sample(rng))
        _assert_group_result_exact(srv, gid, rng, samples=25)

    def test_insertion_sum_objective(self, server, rng):
        srv, _ = server
        gid = srv.open_session(
            random_users(rng, 3), circle_policy(Aggregate.SUM)
        ).session_id
        for _ in range(10):
            srv.add_poi(SMALL_WORLD.sample(rng))
        _assert_group_result_exact(srv, gid, rng, samples=25)


class TestPoiDeletion:
    def test_missing_poi_raises(self, server):
        srv, _ = server
        with pytest.raises(KeyError):
            srv.remove_poi(Point(-1, -1))

    def test_removing_non_result_invalidates_nobody(self, server, rng):
        srv, pois = server
        gid = srv.open_session(random_users(rng, 3), circle_policy()).session_id
        victim = next(p for p in pois if p != srv.session(gid).po)
        assert srv.remove_poi(victim) == []
        assert srv.session(gid).metrics.update_events == 1
        _assert_group_result_exact(srv, gid, rng)

    def test_removing_result_recomputes(self, server, rng):
        srv, _ = server
        gid = srv.open_session(random_users(rng, 3), circle_policy()).session_id
        old_po = srv.session(gid).po
        notified = [n.session_id for n in srv.remove_poi(old_po)]
        assert gid in notified
        assert srv.session(gid).po != old_po
        _assert_group_result_exact(srv, gid, rng)

    def test_mass_churn_keeps_guarantee(self, server, rng):
        srv, pois = server
        gids = [
            srv.open_session(random_users(rng, 2), circle_policy()).session_id
            for _ in range(3)
        ]
        alive = list(pois)
        for _ in range(30):
            if rng.random() < 0.5 and len(alive) > 10:
                victim = alive.pop(rng.randrange(len(alive)))
                srv.remove_poi(victim)
            else:
                p = SMALL_WORLD.sample(rng)
                srv.add_poi(p)
                alive.append(p)
        for gid in gids:
            _assert_group_result_exact(srv, gid, rng, samples=20)


class TestBatchedPoiUpdates:
    def test_batch_applies_all_updates(self, server, rng):
        srv, pois = server
        gid = srv.open_session(random_users(rng, 3), circle_policy()).session_id
        victims = [p for p in pois if p != srv.session(gid).po][:5]
        adds = [(SMALL_WORLD.sample(rng), None) for _ in range(5)]
        srv.update_pois(adds=adds, removes=[(v, None) for v in victims])
        assert len(srv.tree) == len(pois)
        current = set(_current_pois(srv))
        assert all(p in current for p, _ in adds)
        assert all(v not in current for v in victims)
        _assert_group_result_exact(srv, gid, rng)

    def test_batch_recomputes_each_group_once(self, server, rng):
        srv, _ = server
        gid = srv.open_session(random_users(rng, 3), circle_policy()).session_id
        po = srv.session(gid).po
        before = srv.session(gid).metrics.update_events
        # Removing the result AND dropping a POI on the group both
        # invalidate it; the batch must recompute it a single time.
        center = srv.session(gid).regions[0].sample(rng)
        notifications = srv.update_pois(
            adds=[(center, None)], removes=[(po, None)]
        )
        assert [n.session_id for n in notifications] == [gid]
        assert srv.session(gid).metrics.update_events == before + 1
        _assert_group_result_exact(srv, gid, rng)

    def test_batch_missing_removal_raises(self, server):
        srv, _ = server
        with pytest.raises(KeyError):
            srv.update_pois(removes=[(Point(-1, -1), None)])


class TestSumVerify:
    def test_sum_verify_conservative(self, rng):
        from repro.geometry.circle import Circle

        for _ in range(50):
            regions = [
                Circle(SMALL_WORLD.sample(rng), rng.uniform(1, 30))
                for _ in range(3)
            ]
            po = SMALL_WORLD.sample(rng)
            p = SMALL_WORLD.sample(rng)
            if not sum_verify_regions(regions, po, p):
                continue
            for _ in range(30):
                locs = [c.sample(rng) for c in regions]
                assert sum(po.dist(l) for l in locs) <= (
                    sum(p.dist(l) for l in locs) + 1e-7
                )
