"""``NetworkIndex.gnn_many``: one kernel, many groups, the same bits.

The batched road-network GNN must be invisible to its callers: for any
groups, ``gnn_many(groups, k, agg)`` equals ``[gnn(g, k, agg) for g in
groups]`` and the brute-force :func:`repro.network_ext.gnn.network_gnn`
over the live POI set — ``==`` on floats, tie order included.  Graphs
carry integer edge lengths (``integer_city``), so node distances are
exact in floating point and equal scores are *real* ties, decided by
``str(poi)`` alone; members mix node and edge positions inside one
group, POIs repeat on a node, and every delta-layer state, a chunk
boundary inside the batch and forced ALT / bounded rows all face the
same referee.
"""

from __future__ import annotations

import random
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.index.network as network_index_module
from repro.gnn.aggregate import Aggregate
from repro.index.network import NetworkIndex
from repro.index.oracle import OracleConfig
from repro.network_ext.gnn import network_gnn
from repro.network_ext.space import NetworkPosition, NetworkSpace
from tests.test_lemma1_sweep import integer_city

NEVER = 1e9  # delta_fraction that never repacks on its own
PRUNED = OracleConfig(alt_mode="on", bounded_mode="on", landmarks=3)
STATES = ("packed", "tombstones", "arena", "both", "repacked")

SLOW = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def city(seed: int, n_nodes: int, config=None) -> tuple[NetworkIndex, random.Random]:
    """An index over an integer-length city, POIs repeating on nodes."""
    rng = random.Random(seed)
    space = NetworkSpace(integer_city(rng, n_nodes))
    nodes = sorted(space.graph.nodes)
    pois = [rng.choice(nodes) for _ in range(7)]
    index = NetworkIndex(space, pois, delta_fraction=NEVER, oracle_config=config)
    return index, rng


def enter_state(index: NetworkIndex, state: str, rng: random.Random) -> None:
    nodes = sorted(index.space.graph.nodes)
    live = sorted(set(index.poi_nodes()))
    if state in ("tombstones", "both", "repacked"):
        index.bulk_update(removes=[(n, None) for n in rng.sample(live, 2)])
    if state in ("arena", "both", "repacked"):
        # One add lands on an occupied node: a duplicate in the arena.
        index.bulk_update(adds=[(rng.choice(nodes), "a"), (live[-1], "b")])
    if state == "repacked":
        index.repack()
        assert index.delta_debt() == 0


def mixed_group(space: NetworkSpace, rng: random.Random, m: int) -> list:
    """Node and edge positions side by side in one group."""
    nodes = sorted(space.graph.nodes)
    return [
        NetworkPosition.at_node(rng.choice(nodes))
        if (i + m) % 2
        else space.random_position(rng)
        for i in range(m)
    ]


def brute_force(index: NetworkIndex, groups, k, agg) -> list:
    return [
        network_gnn(index.space, index.poi_nodes(), g, k, Aggregate(agg))
        for g in groups
    ]


class TestKernelEquivalence:
    @SLOW
    @given(
        seed=st.integers(0, 2**31),
        n_nodes=st.integers(4, 14),
        state=st.sampled_from(STATES),
        agg=st.sampled_from(["max", "sum"]),
        k_kind=st.sampled_from(["one", "two", "all", "beyond"]),
        config=st.sampled_from([None, PRUNED]),
        chunk_rows=st.sampled_from([None, 4]),
    )
    def test_many_equals_one_equals_brute_force(
        self, seed, n_nodes, state, agg, k_kind, config, chunk_rows
    ):
        index, rng = city(seed, n_nodes, config)
        enter_state(index, state, rng)
        n_live = len(index)
        k = {"one": 1, "two": 2, "all": n_live, "beyond": n_live + 3}[k_kind]
        # Sizes 1..4 interleaved in one call: every size is its own
        # rectangular batch, and answers come back in request order.
        groups = [mixed_group(index.space, rng, 1 + g % 4) for g in range(9)]
        stack = (
            network_index_module._STACK_BYTES
            if chunk_rows is None
            # Room for ``chunk_rows`` user rows: the three groups of a
            # size straddle at least one chunk boundary.
            else 8 * index.node_count() * chunk_rows
        )
        with mock.patch.object(network_index_module, "_STACK_BYTES", stack):
            got = index.gnn_many(groups, k, agg)
        assert got == [index.gnn(g, k, agg) for g in groups]
        assert got == brute_force(index, groups, k, agg)
        assert all(len(answer) == min(k, n_live) for answer in got)
        if config is PRUNED and k < n_live:
            assert index.oracle.alt_queries >= len(groups)

    def test_chunks_fetch_rows_once_each(self):
        """Six groups of three, room for seven user rows: three chunks
        of two groups, one ``DistanceOracle.rows`` call apiece."""
        index, rng = city(5, 12)
        groups = [mixed_group(index.space, rng, 3) for _ in range(6)]
        want = brute_force(index, groups, 2, "max")
        oracle = index.oracle
        with mock.patch.object(
            network_index_module, "_STACK_BYTES", 8 * index.node_count() * 7
        ), mock.patch.object(oracle, "rows", wraps=oracle.rows) as rows:
            assert index.gnn_many(groups, 2, "max") == want
        assert rows.call_count == 3
        with mock.patch.object(oracle, "rows", wraps=oracle.rows) as rows:
            assert index.gnn_many(groups, 2, "max") == want
        assert rows.call_count == 1

    def test_ties_fall_to_the_poi_name(self):
        """Two POIs on one node and a third as far away: three equal
        scores, ordered by ``str(poi)`` exactly as the brute force."""
        index, rng = city(2, 8)
        space = index.space
        u, v = next(iter(space.graph.edges))
        half = space.edge_length(u, v) / 2.0
        index = NetworkIndex(space, [v, u, v, u])
        group = [NetworkPosition.on_edge(u, v, half)]
        got = index.gnn_many([group, group], 4, "sum")
        assert got[0] == got[1] == brute_force(index, [group], 4, "sum")[0]
        assert [poi for _, poi in got[0]] == sorted([u, u, v, v], key=str)
        assert len({score for score, _ in got[0]}) == 1


class TestErrorContract:
    @pytest.fixture
    def index(self):
        return city(3, 9)[0]

    @pytest.fixture
    def groups(self, index):
        rng = random.Random(8)
        return [mixed_group(index.space, rng, 2) for _ in range(3)]

    def test_raises_what_gnn_raises_before_any_row(self, index, groups):
        empty = NetworkIndex(index.space, [])
        with mock.patch.object(
            index.oracle, "rows", wraps=index.oracle.rows
        ) as rows:
            for entry in (index.gnn_many, index.gnn_scan):
                with pytest.raises(ValueError, match="unknown aggregate"):
                    entry(groups, 2, "median")
                with pytest.raises(ValueError, match="group must be non-empty"):
                    entry([groups[0], [], groups[1]], 2, "max")
            with pytest.raises(ValueError, match="unknown aggregate"):
                index.gnn(groups[0], 2, "median")
            with pytest.raises(ValueError, match="group must be non-empty"):
                index.gnn([], 2, "max")
            for entry in (empty.gnn_many, empty.gnn_scan):
                with pytest.raises(ValueError, match="POI set must be non-empty"):
                    entry(groups, 2, "max")
            with pytest.raises(ValueError, match="POI set must be non-empty"):
                empty.gnn(groups[0], 2, "max")
        assert rows.call_count == 0

    @pytest.mark.parametrize("k", [0, -2])
    def test_nonpositive_k_answers_empty_per_group(self, index, groups, k):
        with mock.patch.object(
            index.oracle, "rows", wraps=index.oracle.rows
        ) as rows:
            assert index.gnn_many(groups, k, "sum") == [[], [], []]
            assert index.gnn(groups[0], k) == []
        assert rows.call_count == 0

    def test_no_groups(self, index):
        assert index.gnn_many([], 2, "max") == []

    def test_mixed_sizes_answer_per_group(self, index):
        rng = random.Random(13)
        groups = [mixed_group(index.space, rng, m) for m in (3, 1, 3, 2, 1)]
        got = index.gnn_many(groups, 2, Aggregate.SUM)
        assert got == [index.gnn(g, 2, Aggregate.SUM) for g in groups]
        assert got == brute_force(index, groups, 2, "sum")

    def test_scan_hands_back_the_rows_it_scored_from(self, index, groups):
        seen = {}
        for i, answer, rows in index.gnn_scan(groups, 1, "max"):
            seen[i] = answer
            assert (rows == index.user_node_distances(groups[i])).all()
        assert [seen[i] for i in range(3)] == index.gnn_many(groups, 1, "max")
