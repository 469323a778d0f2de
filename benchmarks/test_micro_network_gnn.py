"""Micro-benchmark: CSR distance-kernel GNN vs the brute-force scan.

The road-network GNN used to be :func:`repro.network_ext.gnn.network_gnn`
— one distance map per user anchor plus an O(users x POIs) Python
aggregation loop.  The serving path now retrieves GNNs through
:class:`repro.index.network.NetworkIndex`: CSR-packed adjacency, bulk
per-anchor distance rows and NumPy aggregation over the POI id array.
Both are exact and bit-identical (``tests/test_network_index.py``);
this file gates the *throughput* claim — the CSR kernel at least 3x
faster than the brute force at 10k-edge / 5k-POI scale — and reports a
network-service fleet step (``net_circle`` sessions through
``MPNService.report_many``'s batched path) alongside it.

Fleet waves reach the kernel many groups at a time
(:meth:`NetworkIndex.gnn_many`).  Two gates hold that shape: a
structural one, armed everywhere — a 30-session wave is one
``build_regions_batch`` call and one ``DistanceOracle.rows`` gather per
chunk — and a local timing one — at the bench's shape (16x16 city, 60
POIs, groups of 3) a 12-group call is at least 2x cheaper per group
than twelve one-group calls.
"""

from __future__ import annotations

import itertools
import os
import random
import time

import pytest

import repro.index.network as network_index_module
from repro.gnn.aggregate import Aggregate
from repro.index.network import NetworkIndex
from repro.index.oracle import DistanceOracle
from repro.network_ext.gnn import network_gnn
from repro.network_ext.space import NetworkPosition, NetworkSpace
from repro.network_ext.strategies import NetworkCircleStrategy
from repro.service import MemberState, MPNService, ReportEvent
from repro.simulation import net_circle_policy
from repro.space.network import NetworkPOISpace

GRID = 75  # 75x75 intersections -> ~11k directed-pair edges
N_POIS = 5_000
GROUP_SIZE = 4
N_GROUPS = 8  # rotated through per benchmark round
KINDS = ["bruteforce", "csr-kernel"]

# kind -> (best wall-clock seconds per GNN call, samples); consumed by
# the gating test at the bottom (same idiom as test_micro_service_batch).
RECORDED: dict[str, dict[str, tuple[float, int]]] = {}


def _record(benchmark, op: str, kind: str, fn):
    times: list[float] = []

    def wrapper():
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
        return out

    result = benchmark(wrapper)
    RECORDED.setdefault(op, {})[kind] = (min(times), len(times))
    other = RECORDED[op].get("bruteforce")
    if kind == "csr-kernel" and other:
        benchmark.extra_info["speedup_vs_bruteforce"] = other[0] / min(times)
    return result


@pytest.fixture(scope="module")
def space():
    # drop_fraction=0 keeps the build fast (no per-drop connectivity
    # re-check) and the edge count at the full 2*75*74 ~= 11k.
    return NetworkSpace.from_grid(grid_size=GRID, drop_fraction=0.0, seed=7)


@pytest.fixture(scope="module")
def pois(space):
    return random.Random(5).sample(list(space.graph.nodes), N_POIS)


@pytest.fixture(scope="module")
def index(space, pois):
    return NetworkIndex(space, pois)


@pytest.fixture(scope="module")
def user_groups(space):
    rng = random.Random(13)
    return [
        [space.random_position(rng) for _ in range(GROUP_SIZE)]
        for _ in range(N_GROUPS)
    ]


def test_kernels_agree(space, pois, index, user_groups):
    """Sanity before timing: identical (distance, poi) lists."""
    for users in user_groups[:2]:
        for agg in (Aggregate.MAX, Aggregate.SUM):
            assert index.gnn(users, 2, agg) == network_gnn(
                space, pois, users, 2, agg
            )


@pytest.mark.parametrize("kind", KINDS)
def test_network_gnn_10k_edges_5k_pois(
    benchmark, space, pois, index, user_groups, kind
):
    """One two-best MAX-GNN call at serving scale (warm caches both
    sides: the brute force reads the same oracle rows as the index,
    through ``NetworkSpace.node_distances`` views — the aggregation is
    what differs)."""
    groups = itertools.cycle(user_groups)
    if kind == "bruteforce":
        fn = lambda: network_gnn(space, pois, next(groups), 2)  # noqa: E731
    else:
        fn = lambda: index.gnn(next(groups), 2)  # noqa: E731
    out = _record(benchmark, "gnn_2best", kind, fn)
    assert len(out) == 2


def _fleet(space, pois, n_sessions=30):
    """``(service, step)``: ``step()`` is one wave in which every one of
    ``n_sessions`` two-member net_circle sessions escapes."""
    service = MPNService(NetworkPOISpace(space, pois))
    rng = random.Random(17)
    ids = [
        service.open_session(
            [space.random_position(rng) for _ in range(2)], net_circle_policy()
        ).session_id
        for _ in range(n_sessions)
    ]
    nodes = list(space.graph.nodes)
    rounds = itertools.cycle(
        [
            [NetworkPosition.at_node(n) for n in rng.sample(nodes, len(ids))]
            for _ in range(5)
        ]
    )

    def step():
        events = [
            ReportEvent(sid, 0, MemberState(point=pos))
            for sid, pos in zip(ids, next(rounds))
        ]
        return service.report_many(events)

    return service, step


def test_network_service_fleet_step(benchmark, space, pois):
    """Reported (not gated): a 30-session net_circle fleet tick through
    the service's batched entry point (one bucket, one kernel pass)."""
    _, step = _fleet(space, pois)
    notifications = benchmark(step)
    assert sum(n is not None for n in notifications) == 30


@pytest.mark.parametrize("chunks", [1, 3])
def test_wave_is_one_batch_and_one_gather_per_chunk(
    space, pois, monkeypatch, chunks
):
    """Always armed (counts, not clocks): 30 escaping sessions of one
    bucket make exactly one ``build_regions_batch`` call, and the kernel
    under it one ``DistanceOracle.rows`` call per chunk of the stack."""
    _, step = _fleet(space, pois)
    step()  # warm the row cache: escape checks then never miss
    calls = {"batch": 0, "rows": 0}
    orig_batch = NetworkCircleStrategy.build_regions_batch
    orig_rows = DistanceOracle.rows

    def batch_spy(self, groups, *args, **kwargs):
        calls["batch"] += 1
        assert len(groups) == 30
        return orig_batch(self, groups, *args, **kwargs)

    def rows_spy(self, node_ids):
        calls["rows"] += 1
        return orig_rows(self, node_ids)

    monkeypatch.setattr(NetworkCircleStrategy, "build_regions_batch", batch_spy)
    monkeypatch.setattr(DistanceOracle, "rows", rows_spy)
    if chunks > 1:
        # Room for 20 user rows: 30 groups of 2 stack in 3 chunks.
        monkeypatch.setattr(
            network_index_module,
            "_STACK_BYTES",
            8 * len(space.graph.nodes) * 20,
        )
    notifications = step()
    assert sum(n is not None for n in notifications) == 30
    assert calls == {"batch": 1, "rows": chunks}


# The bench's citynet_circle shape.
CITY_GRID = 16
CITY_POIS = 60
CITY_GROUP = 3
CITY_BATCH = 12


@pytest.fixture(scope="module")
def city():
    space = NetworkSpace.from_grid(grid_size=CITY_GRID, seed=17)
    rng = random.Random(3)
    index = NetworkIndex(space, rng.sample(list(space.graph.nodes), CITY_POIS))
    groups = [
        [space.random_position(rng) for _ in range(CITY_GROUP)]
        for _ in range(CITY_BATCH * 8)
    ]
    index.gnn_many(groups, 2)  # every anchor row resident before timing
    return index, groups


@pytest.mark.parametrize("kind", ["one-group", "batch-12"])
def test_city_two_best_per_group(benchmark, city, kind):
    """Two-best MAX-GNN for 12 groups, as 12 calls or as one."""
    index, groups = city
    batches = itertools.cycle(
        [groups[i : i + CITY_BATCH] for i in range(0, len(groups), CITY_BATCH)]
    )
    if kind == "one-group":
        fn = lambda: [index.gnn(g, 2) for g in next(batches)]  # noqa: E731
    else:
        fn = lambda: index.gnn_many(next(batches), 2)  # noqa: E731
    out = _record(benchmark, "city_2best", kind, fn)
    assert len(out) == CITY_BATCH and all(len(answer) == 2 for answer in out)


def test_batched_kernel_speedup():
    """gnn_many at B = 12 vs one-group calls, from the runs above."""
    rec = RECORDED.get("city_2best", {})
    if not {"one-group", "batch-12"} <= set(rec):
        pytest.skip("city benchmarks did not run for both kinds")
    ratio = rec["one-group"][0] / rec["batch-12"][0]
    print(
        f"\ngnn_many per-group speedup at B={CITY_BATCH} on the "
        f"{CITY_GRID}x{CITY_GRID} city, {CITY_POIS} POIs, groups of "
        f"{CITY_GROUP}: {ratio:5.2f}x "
        f"({rec['one-group'][0] / CITY_BATCH * 1e6:.1f} -> "
        f"{rec['batch-12'][0] / CITY_BATCH * 1e6:.1f} us per group)"
    )
    samples = min(s for _, s in rec.values())
    if samples < 3:
        pytest.skip("single-shot run (--benchmark-disable): ratio too noisy")
    if os.environ.get("CI"):
        pytest.skip("shared CI runner: ratio reported above, not gated")
    assert ratio >= 2.0, (
        f"gnn_many at B={CITY_BATCH} only {ratio:.2f}x cheaper per group "
        "than one-group calls (gate: >= 2x)"
    )


def test_csr_kernel_speedup():
    """The tentpole's headline number, computed from the runs above."""
    rec = RECORDED.get("gnn_2best", {})
    if not {"bruteforce", "csr-kernel"} <= set(rec):
        pytest.skip("GNN benchmarks did not run for both kernels")
    ratio = rec["bruteforce"][0] / rec["csr-kernel"][0]
    print(
        f"\nCSR-kernel-over-bruteforce GNN speedup at {GRID}x{GRID} grid, "
        f"{N_POIS} POIs, {GROUP_SIZE} users: {ratio:5.2f}x"
    )
    samples = min(s for _, s in rec.values())
    if samples < 3:
        pytest.skip("single-shot run (--benchmark-disable): ratio too noisy")
    if os.environ.get("CI"):
        pytest.skip("shared CI runner: ratio reported above, not gated")
    assert ratio >= 3.0, (
        f"CSR distance-kernel GNN only {ratio:.2f}x faster than the "
        f"brute force at {N_POIS} POIs (gate: >= 3x)"
    )
