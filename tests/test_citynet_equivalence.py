"""ALT-pruned / bounded-Dijkstra answers are bit-identical to exact.

The oracle's correctness contract (ISSUE 9): with ALT landmark pruning
and bounded-radius Dijkstra engaged — and the row cache squeezed down
to 0..3 resident rows so every eviction boundary state is exercised —
GNN lists, network balls, tile sessions, and Lemma-1 re-notification
must equal the exact full-row path *exactly* (``==`` on floats), not
approximately.  Each example builds the same random road graph twice:
an exact side (``alt_mode="off", bounded_mode="off"``) and a pruned
side (both forced on, tiny cache, 4 landmarks).
"""

import random

import networkx as nx
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.gnn.aggregate import Aggregate
from repro.index.oracle import OracleConfig
from repro.network_ext.space import NetworkPosition, NetworkSpace
from repro.service import MPNService
from repro.simulation import net_circle_policy, net_tile_policy
from repro.space.network import NetworkPOISpace

EXACT = OracleConfig(alt_mode="off", bounded_mode="off")

SLOW = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def make_graph(n, extra_edges, seed):
    """A connected random graph: spanning tree + extra chords."""
    rng = random.Random(seed)
    graph = nx.Graph()
    graph.add_node(0)
    for i in range(1, n):
        graph.add_edge(rng.randrange(i), i, length=round(rng.uniform(0.5, 3.0), 6))
    for _ in range(extra_edges):
        a, b = rng.sample(range(n), 2)
        if not graph.has_edge(a, b):
            graph.add_edge(a, b, length=round(rng.uniform(0.5, 3.0), 6))
    return graph


def pruned_config(graph, cache_rows):
    return OracleConfig(
        row_cache_bytes=cache_rows * graph.number_of_nodes() * 8,
        landmarks=4,
        alt_mode="on",
        bounded_mode="on",
    )


def paired_spaces(graph, pois, cache_rows):
    """(exact, pruned) POI spaces over the same graph, separate oracles."""
    exact = NetworkPOISpace(NetworkSpace(graph), pois, oracle_config=EXACT)
    pruned = NetworkPOISpace(
        NetworkSpace(graph), pois, oracle_config=pruned_config(graph, cache_rows)
    )
    assert not exact.index.oracle.bounded_active
    assert pruned.index.oracle.bounded_active
    return exact, pruned


def positions(space, rng, m):
    """A node/edge mix of user positions (space-independent values)."""
    out = []
    for i in range(m):
        if i % 2 == 0:
            out.append(NetworkPosition.at_node(rng.choice(list(space.graph.nodes))))
        else:
            out.append(space.random_position(rng))
    return out


case = st.tuples(
    st.integers(5, 16),  # nodes
    st.integers(0, 10),  # extra chords
    st.integers(0, 3),  # resident cache rows
    st.integers(0, 10**6),  # seed
)


class TestGNNEquivalence:
    @SLOW
    @given(case, st.integers(1, 4), st.sampled_from(["max", "sum"]))
    def test_gnn_lists_identical(self, params, k, agg):
        n, extra, cache_rows, seed = params
        graph = make_graph(n, extra, seed)
        rng = random.Random(seed ^ 0xC17)
        pois = rng.sample(sorted(graph.nodes), min(5, n))
        exact, pruned = paired_spaces(graph, pois, cache_rows)
        users = positions(exact.space, rng, rng.randint(1, 4))
        for _ in range(3):  # repeats hit/evict different cache states
            assert pruned.gnn(users, k, agg) == exact.gnn(users, k, agg)
        oracle = pruned.index.oracle
        assert oracle.alt_queries >= 1 or k >= len(pois)

    @SLOW
    @given(case)
    def test_gnn_after_churn(self, params):
        n, extra, cache_rows, seed = params
        graph = make_graph(n, extra, seed)
        rng = random.Random(seed ^ 0x5EED)
        nodes = sorted(graph.nodes)
        pois = rng.sample(nodes, min(4, n))
        exact, pruned = paired_spaces(graph, pois, cache_rows)
        users = positions(exact.space, rng, 3)
        adds = [(rng.choice(nodes), "new")]
        removes = [(pois[0], None)]
        for side in (exact, pruned):
            side.bulk_update(adds=adds, removes=removes)
        for agg in (Aggregate.MAX, Aggregate.SUM):
            assert pruned.gnn(users, 2, agg) == exact.gnn(users, 2, agg)


class TestBallEquivalence:
    @SLOW
    @given(case)
    def test_balls_identical(self, params):
        n, extra, cache_rows, seed = params
        graph = make_graph(n, extra, seed)
        rng = random.Random(seed ^ 0xBA11)
        pois = rng.sample(sorted(graph.nodes), min(4, n))
        exact, pruned = paired_spaces(graph, pois, cache_rows)
        center = positions(exact.space, rng, 2)[rng.randrange(2)]
        anchor = next(iter(exact.space.anchors(center)))[0]
        dists = sorted(exact.space.node_distances(anchor).values())
        # Radii that land exactly ON known distances (the ulp-risk
        # boundary), between them, and at zero.
        radii = {0.0, dists[len(dists) // 2], dists[-1] * 0.5, dists[-1]}
        targets = positions(exact.space, rng, 3)
        for radius in sorted(radii):
            ball_e = exact.ball(center, radius)
            ball_p = pruned.ball(center, radius)
            for node in graph.nodes:
                assert ball_p.node_distance(node) == ball_e.node_distance(node)
            assert ball_p.covered_segments() == ball_e.covered_segments()
            assert ball_p.wire_values() == ball_e.wire_values()
            for t in targets:
                assert ball_p.min_dist(t) == ball_e.min_dist(t)
                assert ball_p.max_dist(t) == ball_e.max_dist(t)
                assert ball_p.contains(t) == ball_e.contains(t)
            # The boundary itself: positions at exactly radius stay in.
            for node, d in exact.space.node_distances(anchor).items():
                pos = NetworkPosition.at_node(node)
                assert ball_p.contains(pos) == ball_e.contains(pos)


def _notification_key(notification):
    return (
        notification.session_id,
        notification.po,
        notification.region_values,
        notification.cause,
    )


class TestServiceEquivalence:
    @SLOW
    @given(case, st.sampled_from(["circle", "tile"]))
    def test_sessions_and_lemma1_renotification(self, params, kind):
        n, extra, cache_rows, seed = params
        graph = make_graph(n, extra, seed)
        rng = random.Random(seed ^ 0x7115)
        nodes = sorted(graph.nodes)
        pois = rng.sample(nodes, min(4, n))
        exact, pruned = paired_spaces(graph, pois, cache_rows)
        if kind == "circle":
            policy = net_circle_policy
        else:
            def policy():
                return net_tile_policy(alpha=4, split_level=1)
        users = positions(exact.space, rng, 2)
        service_e, service_p = MPNService(exact), MPNService(pruned)
        handle_e = service_e.open_session(list(users), policy())
        handle_p = service_p.open_session(list(users), policy())
        assert _notification_key(handle_p.notification) == _notification_key(
            handle_e.notification
        )
        # A report from every node: same escape/in-region decisions,
        # same re-notifications, bit-identical payloads.
        for node in nodes[: min(6, n)]:
            pos = NetworkPosition.at_node(node)
            note_e = service_e.report(handle_e.session_id, 0, pos)
            note_p = service_p.report(handle_p.session_id, 0, pos)
            assert (note_e is None) == (note_p is None)
            if note_e is not None:
                assert _notification_key(note_p) == _notification_key(note_e)
        # Lemma-1 selective re-notification under POI churn.
        adds = [(rng.choice(nodes), "fresh")]
        notes_e = service_e.update_pois(adds=adds)
        notes_p = service_p.update_pois(adds=adds)
        assert [_notification_key(x) for x in notes_p] == [
            _notification_key(x) for x in notes_e
        ]
        removes = [(pois[0], None)]
        notes_e = service_e.update_pois(removes=removes)
        notes_p = service_p.update_pois(removes=removes)
        assert [_notification_key(x) for x in notes_p] == [
            _notification_key(x) for x in notes_e
        ]
