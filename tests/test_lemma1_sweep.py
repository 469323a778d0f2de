"""An independent referee for the two-stage Lemma-1 churn sweep.

``MPNService.renotify_pois`` runs a conservative NumPy filter
(:func:`repro.service.session.lemma1_suspects`) in front of the exact
``region_valid_against`` test.  Every other churn suite compares two
services that *share* that sweep, so a filter that dropped a pair would
pass them all.  Here the referee is the literal sessions x adds double
loop the sweep replaced, kept in this file: the recomputed session ids
**and their order** must equal it on mixed fleets, after every kind of
session-state write, and on adds placed exactly on the filter's
decision boundary.  The last class checks the paper's guarantee itself:
after any churn batch every cached meeting point is the brute-force
optimum over the live POI set.

Road-network fleets (``net_circle`` / ``net_tile``, filtered through the
add nodes' oracle rows) face the same referee: ``NetFleet`` mirrors
``Fleet``, and integer edge lengths put adds exactly on
``dominant_max(po, R) == dominant_min(p, R)``.
"""

from __future__ import annotations

import math
import random

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import MPNCluster
from repro.core.circle_msr import circle_msr
from repro.core.verify import dominant_max
from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.geometry.region import PointRegion, TileRegion
from repro.gnn.aggregate import Aggregate
from repro.gnn.bruteforce import brute_force_gnn
from repro.index.oracle import DistanceOracle
from repro.network_ext.gnn import network_gnn
from repro.network_ext.space import NetworkPosition, NetworkSpace
from repro.service import (
    MemberState,
    MPNService,
    ReportEvent,
    StrategyResult,
    register_strategy,
    unregister_strategy,
)
from repro.service.session import ServiceSession, lemma1_suspects
from repro.simulation import (
    circle_policy,
    custom_policy,
    net_circle_policy,
    net_tile_policy,
    tile_policy,
)
from repro.space import as_space
from repro.space.network import NetworkPOISpace
from repro.transport import (
    ProcessCluster,
    RemoteBackend,
    ThreadedWireServer,
    UniformPoiSpaceFactory,
)
from repro.workloads.poi import build_poi_tree, uniform_pois
from tests.conftest import SMALL_WORLD

MAX, SUM = Aggregate.MAX, Aggregate.SUM


def referee(service: MPNService, adds, removes, target) -> list[int]:
    """The double loop ``renotify_pois`` used to be, verbatim."""
    removed = {p for p, _ in removes}
    return [
        session.session_id
        for session in list(service._sessions.values())
        if session.space.index is target.index
        and (
            session.po in removed
            or any(not session.region_valid_against(p) for p, _ in adds)
        )
    ]


class OpaqueRegion:
    """A disk the filter cannot bound: not one of the kinds it knows."""

    def __init__(self, circle: Circle):
        self._circle = circle

    def min_dist(self, p):
        return self._circle.min_dist(p)

    def max_dist(self, p):
        return self._circle.max_dist(p)

    def contains_point(self, p, eps=0.0):
        return self._circle.contains_point(p, eps)


class _CircleSeeded:
    """Circle-MSR's meeting point under a different region shape."""

    periodic = False

    def __init__(self, policy):
        self.objective = policy.objective

    def compute(self, users, tree, headings=None, thetas=None):
        result = circle_msr(users, tree, self.objective)
        return StrategyResult(
            po=result.po,
            regions=[self.region(u, result.radius) for u in users],
            region_values=[2] * len(users),
            stats=result.stats,
        )


class PinnedStrategy(_CircleSeeded):
    """Members that never move: ``PointRegion`` safe regions."""

    @staticmethod
    def region(user, radius):
        return PointRegion(user)


class OpaqueStrategy(_CircleSeeded):
    @staticmethod
    def region(user, radius):
        return OpaqueRegion(Circle(user, radius))


@pytest.fixture(autouse=True, scope="module")
def _custom_strategies():
    register_strategy("pinned", PinnedStrategy)
    register_strategy("opaque", OpaqueStrategy)
    yield
    unregister_strategy("pinned")
    unregister_strategy("opaque")


def mixed_policies():
    return [
        circle_policy(MAX),
        circle_policy(SUM),
        tile_policy(MAX, alpha=4, split_level=1),
        custom_policy("Pinned", "pinned", SUM),
        circle_policy(MAX),
        tile_policy(SUM, alpha=3, split_level=1),
        custom_policy("Pinned", "pinned", MAX),
    ]


class Fleet:
    """A mixed fleet over three spaces (two share one index), driven by
    named operations; every churn batch is checked against the referee."""

    SPACES = (None, "twin", "other")
    OPS = ("churn", "churn", "churn", "move", "open", "close", "migrate",
           "restore", "flip")

    def __init__(self, seed: int, n_sessions: int = 12):
        self.rng = random.Random(seed)
        self.trees = {
            "default": build_poi_tree(
                uniform_pois(140, SMALL_WORLD, seed=self.rng.randrange(10**6))
            ),
            "other": build_poi_tree(
                uniform_pois(90, SMALL_WORLD, seed=self.rng.randrange(10**6))
            ),
        }
        self.service = self._fresh_service()
        self.policies = mixed_policies()
        self.opened = 0
        self.invalidated = 0  # sessions the sweeps re-notified, in total
        self.cleared = 0  # (session, add) pairs the filter spared the exact test
        for _ in range(n_sessions):
            self.open()

    def _fresh_service(self) -> MPNService:
        service = MPNService(self.trees["default"])
        service.add_space("twin", as_space(self.trees["default"]))
        service.add_space("other", as_space(self.trees["other"]))
        return service

    def _sessions_on(self, target) -> list[ServiceSession]:
        return [
            s for s in self.service._sessions.values()
            if s.space.index is target.index
        ]

    def _some_session(self) -> ServiceSession:
        return self.rng.choice(list(self.service._sessions.values()))

    # -- operations ----------------------------------------------------

    def open(self) -> None:
        g = self.opened
        self.opened += 1
        size = 1 + self.rng.randrange(4)
        center = SMALL_WORLD.sample(self.rng)
        members = [
            Point(center.x + self.rng.uniform(-25, 25),
                  center.y + self.rng.uniform(-25, 25))
            for _ in range(size)
        ]
        self.service.open_session(
            members,
            self.policies[g % len(self.policies)],
            space=self.SPACES[g % len(self.SPACES)],
        )

    def close(self) -> None:
        if len(self.service._sessions) > 4:
            self.service.close_session(self._some_session().session_id)

    def migrate(self) -> None:
        """export -> close -> import: same state, new iteration slot."""
        sid = self._some_session().session_id
        snapshot = self.service.export_session(sid)
        self.service.close_session(sid)
        self.service.import_session(snapshot)

    def restore(self) -> None:
        snapshot = self.service.snapshot()
        self.service = self._fresh_service()
        self.service.restore(snapshot)

    def flip(self) -> None:
        """MAX <-> SUM without a recomputation."""
        session = self._some_session()
        other = SUM if session.policy.objective is MAX else MAX
        self.service.update_policy(
            session.session_id, session.policy.with_objective(other)
        )

    def move(self) -> None:
        events = []
        for session in self.service._sessions.values():
            if self.rng.random() < 0.5:
                member = self.rng.randrange(session.size)
                old = session.members[member].point
                events.append(ReportEvent(
                    session.session_id, member,
                    MemberState(Point(old.x + self.rng.uniform(-60, 60),
                                      old.y + self.rng.uniform(-60, 60))),
                ))
        self.service.report_many(events)

    def churn(self) -> None:
        name = self.rng.choice(self.SPACES)
        target = self.service.get_space(name or "default")
        sessions = self._sessions_on(target)
        adds = []
        for _ in range(self.rng.randrange(5)):
            if sessions and self.rng.random() < 0.75:  # aimed at a live region
                session = self.rng.choice(sessions)
                near = self.rng.choice(
                    [m.point for m in session.members] + [session.po]
                )
                spread = self.rng.choice((0.5, 8.0, 60.0))
                p = Point(near.x + self.rng.uniform(-spread, spread),
                          near.y + self.rng.uniform(-spread, spread))
            else:
                p = SMALL_WORLD.sample(self.rng)
            adds.append((p, None))
        removes = []
        if sessions and target.poi_count() > 40:
            live_pos = list(dict.fromkeys(s.po for s in sessions))
            for po in self.rng.sample(live_pos, min(len(live_pos), self.rng.randrange(3))):
                removes.append((po, None))
        self.check_batch(adds, removes, name)

    def check_batch(self, adds, removes, name) -> None:
        target = self.service.get_space(name or "default")
        sessions = self._sessions_on(target)
        points = [p for p, _ in adds]
        kept = sum(len(keep) for keep in lemma1_suspects(sessions, points))
        self.cleared += len(sessions) * len(points) - kept
        want = referee(self.service, adds, removes, target)
        got = self.service.update_pois(adds, removes, space=name)
        assert [n.session_id for n in got] == want
        self.invalidated += len(want)

    def run(self, ops) -> "Fleet":
        for op in ops:
            getattr(self, op)()
        return self


class TestSweepEqualsTheDoubleLoop:
    @pytest.mark.parametrize("seed", [3, 41, 2013])
    def test_seeded_mixed_fleets(self, seed):
        rng = random.Random(seed * 7 + 1)
        fleet = Fleet(seed).run(rng.choice(Fleet.OPS) for _ in range(60))
        # Not vacuous: sessions were invalidated, and the filter did
        # spare the exact test most of the pairs.
        assert fleet.invalidated >= 10
        assert fleet.cleared >= 100

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(0, 2**31),
        ops=st.lists(st.sampled_from(Fleet.OPS), min_size=3, max_size=14),
    )
    def test_any_operation_sequence(self, seed, ops):
        Fleet(seed, n_sessions=8).run(ops + ["churn"])

    def test_policy_flip_resets_the_cached_bound(self):
        """``update_policy`` swaps MAX for SUM with no recomputation: a
        bound cached by an earlier sweep must not outlive it."""
        service = MPNService(build_poi_tree(uniform_pois(80, SMALL_WORLD, seed=5)))
        rng = random.Random(9)
        users = [SMALL_WORLD.sample(rng) for _ in range(3)]
        sid = service.open_session(users, circle_policy(MAX)).session_id
        session = service.session(sid)
        assert service.update_pois(adds=[(Point(-5e3, -5e3), None)]) == []
        assert session.lemma1_bound is not None  # the sweep cached it
        service.update_policy(sid, circle_policy(SUM))
        assert session.lemma1_bound is None
        # A point the MAX test clears but the SUM test does not (or the
        # other way round) — whichever this geometry offers.
        as_max = ServiceSession(0, circle_policy(MAX), None, session.members,
                                po=session.po, regions=session.regions)
        splitter = next(
            p for p in (SMALL_WORLD.sample(rng) for _ in range(20000))
            if as_max.region_valid_against(p) != session.region_valid_against(p)
        )
        adds = [(splitter, None)]
        want = referee(service, adds, (), service.space)
        assert [n.session_id for n in service.update_pois(adds=adds)] == want

    def test_unbounded_regions_take_the_exact_path(self):
        """A region kind the filter cannot bound is a suspect for every
        add, beside bounded sessions on the same index."""
        service = MPNService(build_poi_tree(uniform_pois(80, SMALL_WORLD, seed=6)))
        rng = random.Random(10)
        for g in range(8):
            policy = custom_policy("Opaque", "opaque") if g % 2 else circle_policy()
            service.open_session([SMALL_WORLD.sample(rng) for _ in range(2)], policy)
        sessions = list(service._sessions.values())
        points = [SMALL_WORLD.sample(rng) for _ in range(6)]
        suspects = lemma1_suspects(sessions, points)
        for session, keep in zip(sessions, suspects):
            if isinstance(session.regions[0], OpaqueRegion):
                assert list(keep) == list(range(6))
        aimed = [(Point(s.po.x + 1.0, s.po.y), None) for s in sessions[:4]]
        want = referee(service, aimed, (), service.space)
        assert want
        assert [n.session_id for n in service.update_pois(adds=aimed)] == want

    @pytest.mark.parametrize("policy", [
        circle_policy(MAX), circle_policy(SUM), tile_policy(MAX, alpha=3, split_level=1),
    ], ids=["circle-max", "circle-sum", "tile"])
    def test_single_poi_index_has_unbounded_regions(self, policy):
        """One POI: every region is the whole plane (radius ``inf`` /
        a 1e18 tile) and any insertion must re-notify."""
        service = MPNService(build_poi_tree([Point(100.0, 100.0)]))
        sid = service.open_session([Point(300.0, 300.0), Point(320.0, 310.0)], policy).session_id
        adds = [(Point(900.0, 50.0), None)]
        assert referee(service, adds, (), service.space) == [sid]
        assert [n.session_id for n in service.update_pois(adds=adds)] == [sid]

    def test_reentrant_close_during_the_sweep(self):
        """The invalidated list is a snapshot: a strategy closing a
        sibling mid-recomputation neither breaks nor notifies it."""
        service = MPNService(build_poi_tree(uniform_pois(80, SMALL_WORLD, seed=7)))

        class Closer(_CircleSeeded):
            armed = False

            @staticmethod
            def region(user, radius):
                return Circle(user, radius)

            def compute(self, users, tree, headings=None, thetas=None):
                if Closer.armed:
                    Closer.armed = False
                    service.close_session(victim)
                return super().compute(users, tree, headings, thetas)

        register_strategy("closer", Closer)
        try:
            spot = Point(500.0, 500.0)
            first = service.open_session([spot], custom_policy("C", "closer")).session_id
            victim = service.open_session([Point(501.0, 500.0)], circle_policy()).session_id
            adds = [(Point(500.5, 500.0), None)]
            assert referee(service, adds, (), service.space) == [first, victim]
            Closer.armed = True
            notified = service.update_pois(adds=adds)
            assert [n.session_id for n in notified] == [first]
            assert service.session_ids() == [first]
        finally:
            unregister_strategy("closer")


def ulp_neighbours(x: float) -> tuple[float, float, float]:
    return (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf))


class TestFilterNeverDropsAPair:
    """Adds placed on, and one ulp either side of, the distance at
    which a member's bounding circle stops clearing them."""

    DIRECTIONS = ((1.0, 0.0), (0.0, -1.0), (0.6, 0.8), (-0.8, 0.6))

    @staticmethod
    def bounding_circle(region):
        """The test's own bound (not the code under test's)."""
        if isinstance(region, Circle):
            return region.center, region.radius
        if isinstance(region, PointRegion):
            return region.location, 0.0
        rect = region.bounding_rect()
        return rect.center, math.hypot(rect.width, rect.height) / 2.0

    def boundary_points(self, session) -> list[Point]:
        if session.policy.objective is SUM:
            thr = sum(r.max_dist(session.po) for r in session.regions)
        else:
            thr = dominant_max(session.po, session.regions)
        out = []
        for region in session.regions:
            center, rho = self.bounding_circle(region)
            for reach in (thr + rho, thr):  # the filter's edge, the exact test's
                for ux, uy in self.DIRECTIONS:
                    for x in ulp_neighbours(center.x + reach * ux):
                        for y in ulp_neighbours(center.y + reach * uy):
                            out.append(Point(x, y))
            if isinstance(region, TileRegion):  # exactly thr off a tile edge
                rect = region.bounding_rect()
                for x in ulp_neighbours(rect.x_hi + thr):
                    out.append(Point(x, (rect.y_lo + rect.y_hi) / 2.0))
        return out

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_adversarial_boundary_adds(self, seed):
        fleet = Fleet(seed, n_sessions=14)
        fleet.run(["move", "flip", "flip"])
        sessions = list(fleet.service._sessions.values())
        dropped = failing = 0
        for session in sessions:
            points = self.boundary_points(session)
            (keep,) = lemma1_suspects([session], points)
            keep = set(keep)
            for j, p in enumerate(points):
                if not session.region_valid_against(p):
                    failing += 1
                    dropped += j not in keep
        assert failing > 100  # the probes do straddle the boundary
        assert dropped == 0
        # ... and through the service, as whole batches over each index.
        for name in Fleet.SPACES:
            target = fleet.service.get_space(name or "default")
            probes = [
                (p, None)
                for s in fleet._sessions_on(target)[:3]
                for p in self.boundary_points(s)[::7]
            ]
            fleet.check_batch(probes, (), name)


class TestExactTestsRunOnlyOnSurvivors:
    def test_spread_fleet_far_adds(self, monkeypatch):
        """Structural, always armed: on 500 spread circle sessions x 50
        adds the exact test runs on the filter's survivors only — under
        1 % of the sessions x adds the double loop paid for."""
        world = Rect(0.0, 0.0, 20000.0, 20000.0)
        service = MPNService(build_poi_tree(uniform_pois(2500, world, seed=3)))
        rng = random.Random(17)
        for g in range(500):
            c = world.sample(rng)
            members = [
                Point(c.x + rng.uniform(-40, 40), c.y + rng.uniform(-40, 40))
                for _ in range(2)
            ]
            service.open_session(members, circle_policy(SUM if g % 2 else MAX))
        adds = [(world.sample(rng), None) for _ in range(50)]
        sessions = list(service._sessions.values())
        population = sum(
            len(keep) for keep in lemma1_suspects(sessions, [p for p, _ in adds])
        )
        want = referee(service, adds, (), service.space)

        calls = 0
        exact = ServiceSession.region_valid_against

        def counted(self, p):
            nonlocal calls
            calls += 1
            return exact(self, p)

        monkeypatch.setattr(ServiceSession, "region_valid_against", counted)
        got = service.update_pois(adds=adds)
        assert [n.session_id for n in got] == want
        assert want  # some add did land in somebody's region
        assert calls <= population
        assert calls < 0.01 * 500 * 50


    def test_blocked_broadcast_equals_one_block(self, monkeypatch):
        """The adds are broadcast a block at a time (bounded memory);
        the survivors must not depend on where the blocks fall."""
        from repro.service import session as session_module

        fleet = Fleet(5)
        sessions = list(fleet.service._sessions.values())
        rng = random.Random(6)
        points = [SMALL_WORLD.sample(rng) for _ in range(30)]
        points += [Point(s.po.x + 0.5, s.po.y) for s in sessions]
        one_block = [list(keep) for keep in lemma1_suspects(sessions, points)]
        assert sum(map(len, one_block)) > len(sessions)
        monkeypatch.setattr(session_module, "_FILTER_BLOCK_CELLS", 7)
        assert [list(keep) for keep in lemma1_suspects(sessions, points)] == one_block


def net_policies():
    return [
        net_circle_policy(MAX),
        net_circle_policy(SUM),
        net_tile_policy(MAX, alpha=3, split_level=1),
        net_circle_policy(MAX),
        net_tile_policy(SUM, alpha=2, split_level=1),
    ]


def flipped(policy):
    """MAX <-> SUM, same strategy and growth parameters."""
    other = SUM if policy.objective is MAX else MAX
    if policy.strategy == "net_tile":
        cfg = policy.tile_config
        return net_tile_policy(other, cfg.alpha, cfg.split_level, cfg.max_radius_factor)
    return net_circle_policy(other)


class NetFleet:
    """``Fleet`` on a road network: ``net_circle`` / ``net_tile``
    sessions, MAX and SUM, over one POI space; every churn batch is
    checked against the referee, ids and order."""

    OPS = Fleet.OPS

    def __init__(self, seed: int, n_sessions: int = 8, policies=None):
        self.rng = random.Random(seed)
        self.net = NetworkSpace.from_grid(
            grid_size=5, seed=self.rng.randrange(10**6)
        )
        self.nodes = sorted(self.net.graph.nodes)
        self.poi_space = NetworkPOISpace(self.net, self.rng.sample(self.nodes, 9))
        self.service = MPNService(self.poi_space)
        self.policies = policies or net_policies()
        self.opened = 0
        self.invalidated = 0
        self.cleared = 0
        for _ in range(n_sessions):
            self.open()

    def _some_session(self) -> ServiceSession:
        return self.rng.choice(list(self.service._sessions.values()))

    def _position(self) -> NetworkPosition:
        if self.rng.random() < 0.3:
            return NetworkPosition.at_node(self.rng.choice(self.nodes))
        return self.net.random_position(self.rng)

    # -- operations ----------------------------------------------------

    def open(self) -> None:
        policy = self.policies[self.opened % len(self.policies)]
        self.opened += 1
        members = [self._position() for _ in range(1 + self.rng.randrange(3))]
        self.service.open_session(members, policy)

    def close(self) -> None:
        if len(self.service._sessions) > 3:
            self.service.close_session(self._some_session().session_id)

    def migrate(self) -> None:
        sid = self._some_session().session_id
        snapshot = self.service.export_session(sid)
        self.service.close_session(sid)
        self.service.import_session(snapshot)

    def restore(self) -> None:
        snapshot = self.service.snapshot()
        self.service = MPNService(self.poi_space)
        self.service.restore(snapshot)

    def flip(self) -> None:
        session = self._some_session()
        self.service.update_policy(session.session_id, flipped(session.policy))

    def move(self) -> None:
        events = [
            ReportEvent(
                session.session_id,
                self.rng.randrange(session.size),
                MemberState(self._position()),
            )
            for session in self.service._sessions.values()
            if self.rng.random() < 0.5
        ]
        self.service.report_many(events)

    def churn(self) -> None:
        sessions = list(self.service._sessions.values())
        adds = []
        for _ in range(self.rng.randrange(5)):
            if self.rng.random() < 0.6:  # aimed at a live region
                session = self.rng.choice(sessions)
                member = self.rng.choice(session.members).point
                node = self.rng.choice(
                    [n for n, _ in self.net.anchors(member)] + [session.po]
                )
                if self.rng.random() < 0.5:
                    node = self.rng.choice(list(self.net.graph[node]))
            else:
                node = self.rng.choice(self.nodes)
            adds.append((node, None))
            if self.rng.random() < 0.2:  # twice on one node, one batch
                adds.append((node, None))
        removes = []
        if self.poi_space.poi_count() > 6:
            live_pos = sorted({s.po for s in sessions})
            count = min(len(live_pos), self.rng.randrange(3))
            removes = [(po, None) for po in self.rng.sample(live_pos, count)]
        self.check_batch(adds, removes)

    def check_batch(self, adds, removes=()) -> None:
        sessions = list(self.service._sessions.values())
        points = [p for p, _ in adds]
        kept = sum(len(keep) for keep in lemma1_suspects(sessions, points))
        self.cleared += len(sessions) * len(points) - kept
        want = referee(self.service, adds, removes, self.poi_space)
        got = self.service.update_pois(adds, removes)
        assert [n.session_id for n in got] == want
        self.invalidated += len(want)

    def run(self, ops) -> "NetFleet":
        for op in ops:
            getattr(self, op)()
        return self


def count_calls(monkeypatch, owner, name) -> list:
    """Count calls of ``owner.name`` from here on; ``[n]`` is live."""
    calls = [0]
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestNetworkSweepEqualsTheDoubleLoop:
    @pytest.mark.parametrize("seed", [3, 41, 2013])
    def test_seeded_network_fleets(self, seed):
        rng = random.Random(seed * 7 + 1)
        fleet = NetFleet(seed).run(rng.choice(NetFleet.OPS) for _ in range(60))
        assert fleet.invalidated >= 10
        assert fleet.cleared >= 40  # the filter did clear network pairs

    @pytest.mark.parametrize("policies", [
        [net_circle_policy(MAX)],
        [net_circle_policy(SUM)],
        [net_tile_policy(MAX, alpha=3, split_level=1),
         net_tile_policy(SUM, alpha=3, split_level=1)],
    ], ids=["net_circle-max", "net_circle-sum", "net_tile"])
    def test_one_kind_at_a_time(self, policies):
        rng = random.Random(11)
        fleet = NetFleet(7, n_sessions=6, policies=policies)
        fleet.run(rng.choice(NetFleet.OPS) for _ in range(40))
        assert fleet.invalidated >= 5
        assert fleet.cleared >= 20

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(0, 2**31),
        ops=st.lists(st.sampled_from(NetFleet.OPS), min_size=3, max_size=12),
    )
    def test_any_operation_sequence(self, seed, ops):
        NetFleet(seed, n_sessions=6).run(ops + ["churn"])

    def test_network_regions_are_bounded(self):
        """Both region kinds reach the filter: no network session is a
        suspect for every add any more."""
        fleet = NetFleet(5)
        sessions = list(fleet.service._sessions.values())
        lemma1_suspects(sessions, fleet.nodes)
        for session in sessions:
            bound = session.lemma1_bound
            assert bound.rhos and not bound.circles
            assert len(bound.rhos) == session.size == len(bound.spans)
            assert sum(bound.spans) == len(bound.anchors) == len(bound.offsets)

    def test_removes_only_batches(self):
        """No add, no filter: only sessions meeting at a removed POI are
        recomputed, and stale bounds are left for a sweep that needs them."""
        fleet = NetFleet(9)
        fleet.run(["move"])
        sessions = list(fleet.service._sessions.values())
        stale = [s for s in sessions if s.lemma1_bound is None]
        assert stale
        assert lemma1_suspects(sessions, []) == [()] * len(sessions)
        victim = sessions[0].po
        removes = [(victim, None)]
        want = referee(fleet.service, (), removes, fleet.poi_space)
        assert want == [s.session_id for s in sessions if s.po == victim]
        got = fleet.service.update_pois(removes=removes)
        assert [n.session_id for n in got] == want
        untouched = [s for s in stale if s.session_id not in want]
        assert all(s.lemma1_bound is None for s in untouched)

    def test_duplicate_pois_on_one_node(self):
        """A node may hold several POIs: adding it again re-notifies as
        any add does, and removing one copy re-notifies the sessions
        meeting there although the node stays a POI."""
        fleet = NetFleet(13, policies=[net_circle_policy(MAX), net_circle_policy(SUM)])
        session = fleet._some_session()
        po = session.po
        fleet.check_batch([(po, None), (po, None)])  # p == po: nobody moves
        near = next(iter(fleet.net.graph[po]))
        fleet.check_batch([(near, None), (near, None), (near, None)])
        assert fleet.poi_space.index.poi_nodes().count(near) >= 3
        fleet.check_batch((), [(near, None)])
        fleet.check_batch([(near, None)], [(near, None)])
        assert near in fleet.poi_space.index.poi_nodes()

    def test_off_graph_add_stays_a_suspect(self):
        """An add that is no graph node cannot be measured along a row:
        the filter keeps it for every session (``renotify_pois`` may be
        handed one; ``update_pois`` refuses it at the index)."""
        fleet = NetFleet(17, policies=[net_circle_policy(MAX), net_circle_policy(SUM)])
        sessions = list(fleet.service._sessions.values())
        points = [fleet.nodes[0], ("no", "such node"), fleet.nodes[-1]]
        for keep in lemma1_suspects(sessions, points):
            assert 1 in list(keep)
        adds = [(p, None) for p in points]
        want = referee(fleet.service, adds, (), fleet.poi_space)
        got = fleet.service.renotify_pois(adds)
        assert [n.session_id for n in got] == want

    def test_mixed_euclidean_and_network_service(self, monkeypatch):
        """Two spaces, one sweep each: a churn batch on either index
        filters that space's sessions in its own metric, and only the
        road sweep reads oracle rows — one gather for the whole batch."""
        rng = random.Random(23)
        service = MPNService(build_poi_tree(uniform_pois(120, SMALL_WORLD, seed=8)))
        net = NetworkSpace.from_grid(grid_size=5, seed=31)
        nodes = sorted(net.graph.nodes)
        roads = NetworkPOISpace(net, rng.sample(nodes, 8))
        service.add_space("roads", roads)
        plane = [circle_policy(MAX), tile_policy(SUM, alpha=3, split_level=1),
                 circle_policy(SUM)]
        for g in range(6):
            service.open_session(
                [SMALL_WORLD.sample(rng) for _ in range(2)], plane[g % 3]
            )
            service.open_session(
                [net.random_position(rng) for _ in range(2)],
                net_policies()[g % 5],
                space="roads",
            )
        on_roads = [s for s in service._sessions.values() if s.space is roads]
        on_plane = [s for s in service._sessions.values() if s.space is not roads]
        assert len(on_roads) == len(on_plane) == 6
        gathers = count_calls(monkeypatch, DistanceOracle, "rows")
        lemma1_suspects(on_plane, [SMALL_WORLD.sample(rng) for _ in range(4)])
        assert gathers[0] == 0
        lemma1_suspects(on_roads, rng.sample(nodes, 4))
        assert gathers[0] == 1
        renotified = 0
        for _ in range(12):
            po = rng.choice(on_plane).po
            adds = [(Point(po.x + rng.uniform(-3, 3), po.y + rng.uniform(-3, 3)), None),
                    (SMALL_WORLD.sample(rng), None)]
            want = referee(service, adds, (), service.space)
            assert [n.session_id for n in service.update_pois(adds)] == want
            renotified += len(want)
            adds = [(rng.choice(list(net.graph[rng.choice(on_roads).po])), None),
                    (rng.choice(nodes), None)]
            want = referee(service, adds, (), roads)
            got = service.update_pois(adds, space="roads")
            assert [n.session_id for n in got] == want
            renotified += len(want)
        assert renotified >= 12


def integer_city(rng: random.Random, n: int) -> nx.Graph:
    """A connected graph on ``range(n)`` with integer edge lengths:
    distances are exact in floating point, so ties are real ties."""
    graph = nx.Graph()
    for v in range(1, n):
        graph.add_edge(rng.randrange(v), v, length=float(rng.randint(1, 4)))
    for _ in range(rng.randrange(n)):
        u, v = rng.sample(range(n), 2)
        if not graph.has_edge(u, v):
            graph.add_edge(u, v, length=float(rng.randint(1, 4)))
    return graph


class TestNetworkFilterNeverDropsAPair:
    """Integer road lengths and members standing on nodes: every
    distance is an exact small integer or half-integer, so adds land
    *exactly* on ``dominant_max(po, R) == dominant_min(p, R)`` — the
    decision boundary itself, not an ulp beside it."""

    @staticmethod
    def on_the_boundary(session, p) -> bool:
        if session.policy.objective is SUM:
            top = sum(r.max_dist(session.po) for r in session.regions)
            bottom = sum(r.min_dist(p) for r in session.regions)
        else:
            top = dominant_max(session.po, session.regions)
            bottom = max(r.min_dist(p) for r in session.regions)
        return top == bottom

    def drive(self, seed: int) -> tuple[int, int]:
        """Every node as a single-add batch, in node order, against the
        referee; returns (boundary pairs met, failing pairs met)."""
        rng = random.Random(seed)
        n = rng.randint(5, 9)
        net = NetworkSpace(integer_city(rng, n))
        space = NetworkPOISpace(net, rng.sample(range(n), rng.randint(2, 3)))
        service = MPNService(space)
        policies = [net_circle_policy(MAX), net_circle_policy(SUM),
                    net_tile_policy(MAX, alpha=2, split_level=1)]
        for g in range(rng.randint(1, 4)):
            members = [
                NetworkPosition.at_node(rng.randrange(n))
                for _ in range(rng.randint(1, 3))
            ]
            service.open_session(members, policies[g % 3])
        boundary = failing = 0
        for p in range(n):
            sessions = list(service._sessions.values())
            for session, keep in zip(sessions, lemma1_suspects(sessions, [p])):
                boundary += self.on_the_boundary(session, p)
                if not session.region_valid_against(p):
                    failing += 1
                    assert list(keep) == [0]  # the filter kept it
            adds = [(p, None)]
            want = referee(service, adds, (), space)
            assert [n.session_id for n in service.update_pois(adds)] == want
        return boundary, failing

    def test_seeded_integer_cities(self):
        boundary = failing = 0
        for seed in range(40):
            b, f = self.drive(seed)
            boundary += b
            failing += f
        assert boundary >= 20  # adds did land exactly on the boundary
        assert failing >= 20

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(0, 2**31))
    def test_any_integer_city(self, seed):
        self.drive(seed)


FACTORY = UniformPoiSpaceFactory(n_pois=200, seed=19)


class TestOneShotIterables:
    """``update_pois(adds=<generator>)``: the index and the sweep (and,
    on the wire, every replica) must see the same batch.  At the parent
    commit ``bulk_update`` drained the iterator and the sweep saw none."""

    USER = Point(412.0, 377.0)
    WINNER = Point(412.0, 377.5)  # half a unit away: provably the new optimum

    def drive(self, backend, po_of) -> None:
        sid = backend.open_session([self.USER], circle_policy()).session_id
        assert po_of(sid) != self.WINNER
        notified = backend.update_pois(adds=((p, None) for p in [self.WINNER]))
        assert [n.session_id for n in notified] == [sid]
        assert po_of(sid) == self.WINNER
        notified = backend.update_pois(removes=((p, None) for p in [self.WINNER]))
        assert [n.session_id for n in notified] == [sid]
        assert po_of(sid) != self.WINNER

    def test_service(self):
        service = MPNService(FACTORY())
        self.drive(service, lambda sid: service.session(sid).po)
        assert service.space.poi_count() == FACTORY.n_pois

    def test_in_process_cluster(self):
        cluster = MPNCluster(2, FACTORY)
        self.drive(cluster, lambda sid: cluster.session(sid).po)

    def test_process_cluster_replicas_stay_in_step(self):
        with ProcessCluster(2, FACTORY) as cluster:
            self.drive(cluster, lambda sid: cluster.export_session(sid).po)
            adds, removes, _ = cluster._churn_log[0]
            assert adds == ((self.WINNER, None),) and removes == ()
            assert cluster._churn_log[1][1] == ((self.WINNER, None),)
            # Every replica applied both batches: the mirror and each
            # worker accept the same follow-up removal of a seed POI.
            seed_poi = next(iter(FACTORY().index.entries())).point
            cluster.update_pois(removes=[(seed_poi, None)])
            assert cluster.get_space().poi_count() == FACTORY.n_pois - 1
        assert cluster.worker_exitcodes() == [0, 0]

    def test_wire_client_mirror(self):
        with ThreadedWireServer(MPNService(FACTORY())) as server:
            remote = RemoteBackend(*server.address, space=FACTORY())
            try:
                self.drive(remote, lambda sid: remote.export_session(sid).po)
                assert remote.get_space().poi_count() == FACTORY.n_pois
                remote.update_pois(adds=((p, None) for p in [self.WINNER]))
                assert remote.get_space().poi_count() == FACTORY.n_pois + 1
            finally:
                remote.close()


class TestGuaranteeUnderChurn:
    """The paper's claim, checked directly: while every member is inside
    her safe region the cached meeting point *is* the group's optimum —
    here after every one of 30 churn batches aimed at live regions and
    live meeting points, against brute force over the live POI list."""

    def assert_optimal(self, backend, live, rng) -> None:
        for sid in backend.session_ids():
            session = backend.session(sid)
            objective = session.policy.objective
            instances = [
                [m.point for m in session.members],
                [region.sample(rng) for region in session.regions],
            ]
            for users in instances:
                (best, _), = brute_force_gnn(live, users, 1, objective)
                mine = max(session.po.dist(u) for u in users) if objective is MAX \
                    else sum(session.po.dist(u) for u in users)
                assert session.po in live
                # Ties in distance may pick either POI; the value is exact.
                assert mine == pytest.approx(best, rel=1e-12, abs=1e-9)

    @pytest.mark.parametrize("make", [
        lambda tree: MPNService(tree),
        lambda tree: MPNCluster(2, tree=tree),
    ], ids=["service", "cluster2"])
    def test_po_is_the_brute_force_optimum_after_every_batch(self, make):
        rng = random.Random(2013)
        live = set(uniform_pois(300, SMALL_WORLD, seed=29))
        backend = make(build_poi_tree(sorted(live, key=lambda p: (p.x, p.y))))
        for g in range(40):
            center = SMALL_WORLD.sample(rng)
            members = [
                Point(center.x + rng.uniform(-30, 30), center.y + rng.uniform(-30, 30))
                for _ in range(1 + g % 3)
            ]
            backend.open_session(members, circle_policy(SUM if g % 2 else MAX))
        self.assert_optimal(backend, live, rng)
        renotified = 0
        for _ in range(30):
            sessions = [backend.session(sid) for sid in backend.session_ids()]
            adds = []
            for session in rng.sample(sessions, 4):  # into live regions
                region = rng.choice(session.regions)
                adds.append((region.sample(rng), None))
            adds.append((SMALL_WORLD.sample(rng), None))
            removes = [
                (po, None)
                for po in rng.sample(sorted({s.po for s in sessions},
                                            key=lambda p: (p.x, p.y)), 3)
            ]
            renotified += len(backend.update_pois(adds=adds, removes=removes))
            live.difference_update(p for p, _ in removes)
            live.update(p for p, _ in adds)
            self.assert_optimal(backend, live, rng)
        assert renotified >= 60  # the batches did hit

    @pytest.mark.parametrize("make", [
        lambda space: MPNService(space),
        lambda space: MPNCluster(2, tree=space),
    ], ids=["service", "cluster2"])
    def test_network_po_is_the_brute_force_optimum_after_every_batch(self, make):
        """The same claim on a road network: after every churn batch —
        adds next to live members and meeting points, twice on one node,
        removals of live meeting points — each cached ``po`` is a live
        POI whose aggregate network distance is ``network_gnn``'s
        brute-force optimum over the live POI list."""
        rng = random.Random(2013)
        net = NetworkSpace.from_grid(grid_size=6, seed=37)
        nodes = sorted(net.graph.nodes)
        live = rng.sample(nodes, 10)
        space = NetworkPOISpace(net, live)
        backend = make(space)
        policies = [net_circle_policy(MAX), net_circle_policy(SUM),
                    net_tile_policy(MAX, alpha=3, split_level=1)]
        for g in range(15):
            members = [net.random_position(rng) for _ in range(1 + g % 3)]
            backend.open_session(members, policies[g % 3])

        def assert_optimal():
            for sid in backend.session_ids():
                session = backend.session(sid)
                users = [m.point for m in session.members]
                objective = session.policy.objective
                (best, _), = network_gnn(net, live, users, 1, objective)
                assert session.po in live
                # Ties in distance may pick either POI; the value is exact.
                assert space.aggregate_dist(session.po, users, objective) \
                    == pytest.approx(best, rel=1e-12, abs=1e-9)

        assert_optimal()
        renotified = 0
        for _ in range(25):
            sessions = [backend.session(sid) for sid in backend.session_ids()]
            adds = []
            for session in rng.sample(sessions, 3):
                member = rng.choice(session.members).point
                near = rng.choice([n for n, _ in net.anchors(member)] + [session.po])
                adds.append((rng.choice(list(net.graph[near])), None))
            adds.append(adds[0])  # twice on one node
            adds.append((rng.choice(nodes), None))
            removes = [
                (po, None) for po in rng.sample(sorted({s.po for s in sessions}), 2)
            ] if len(live) > 8 else []
            renotified += len(backend.update_pois(adds=adds, removes=removes))
            for po, _ in removes:
                live.remove(po)
            live.extend(p for p, _ in adds)
            assert_optimal()
        assert renotified >= 40  # the batches did hit
