"""Micro-benchmark: the distance oracle at city scale (100k+ edges).

At 10k-edge grids a full Dijkstra row is cheap enough to compute and
keep; at city scale (the default here: a ~240x240 perturbed grid with
deleted blocks and arterials, ~54k nodes / ~107k edges) full rows are
~0.4 MB each and the anchor working set no longer fits a bounded row
cache — the exact path recomputes rows every call.  The oracle's ALT
landmark pruning + bounded-radius Dijkstra answers the same GNNs
bit-identically while touching only the small ball around each group.

Three gates:

* ``test_alt_speedup`` — ALT-pruned GNN >= 3x faster than the exact
  full-row path under the *same* row-cache byte budget (the honest
  bounded-memory baseline; an unbounded cache at this scale would be
  the memory blow-up the oracle exists to avoid).
* ``test_row_cache_byte_ceiling`` — the resident row cache stays under
  its configured byte budget while evicting, ALWAYS armed (CI
  included): it checks an invariant, not a timing.
* ``test_ball_coverage_scales_with_ball`` — building a small-radius
  :class:`~repro.network_ext.ball.NetworkBall` and sizing it for the
  wire costs what it covers (< 1 % of the edges), >= 20x faster than
  the whole-graph loop it replaced.  The equality half (same segments,
  same order, same wire size) is always armed.

``CITYNET_GRID`` shrinks the graph for smoke runs (CI uses 120).
"""

from __future__ import annotations

import itertools
import os
import random
import time

import pytest

from repro.index.oracle import OracleConfig, oracle_for
from repro.network_ext.ball import NetworkBall
from repro.network_ext.space import NetworkSpace
from repro.space.network import NetworkPOISpace
from repro.workloads import city_graph, city_poi_nodes, city_user_group

GRID = int(os.environ.get("CITYNET_GRID", "240"))
N_POIS = 5_000
GROUP_SIZE = 4
N_GROUPS = 6
CACHE_ROWS = 12  # both sides: rows resident under the byte budget
LANDMARKS = 16
BALL_RADIUS = 4.0  # travel-time units: a few blocks around the user
BALL_MIN_SPEEDUP = 20.0
KINDS = ["exact-rows", "alt-pruned"]

RECORDED: dict[str, dict] = {}


def _record(benchmark, op: str, kind: str, fn):
    times: list[float] = []

    def wrapper():
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
        return out

    result = benchmark(wrapper)
    RECORDED.setdefault(op, {})[kind] = (min(times), len(times))
    other = RECORDED[op].get("exact-rows")
    if kind == "alt-pruned" and other:
        benchmark.extra_info["speedup_vs_exact"] = other[0] / min(times)
    return result


@pytest.fixture(scope="module")
def graph():
    return city_graph(grid_size=GRID, seed=17)


def _budget(graph):
    return CACHE_ROWS * graph.number_of_nodes() * 8


@pytest.fixture(scope="module")
def pois(graph):
    return city_poi_nodes(graph, min(N_POIS, graph.number_of_nodes() // 4))


@pytest.fixture(scope="module")
def exact_space(graph, pois):
    config = OracleConfig(
        row_cache_bytes=_budget(graph), alt_mode="off", bounded_mode="off"
    )
    return NetworkPOISpace(NetworkSpace(graph), pois, oracle_config=config)


@pytest.fixture(scope="module")
def alt_space(graph, pois):
    config = OracleConfig(
        row_cache_bytes=_budget(graph),
        landmarks=LANDMARKS,
        alt_mode="on",
        bounded_mode="on",
    )
    space = NetworkPOISpace(NetworkSpace(graph), pois, oracle_config=config)
    space.index.oracle.landmark_matrix()  # build outside the timings
    return space


@pytest.fixture(scope="module")
def user_groups(graph):
    # Clustered groups at distinct city centers — the workload the
    # paper serves — rotated so the exact side's anchor working set
    # (N_GROUPS * GROUP_SIZE rows) overflows the CACHE_ROWS budget.
    return [
        city_user_group(graph, GROUP_SIZE, seed=100 + i)
        for i in range(N_GROUPS)
    ]


def test_city_scale(graph):
    """The default scale really is the 100k+-edge regime."""
    if GRID < 240:
        pytest.skip(f"smoke scale (CITYNET_GRID={GRID})")
    assert graph.number_of_edges() >= 100_000
    assert graph.number_of_nodes() >= 50_000


@pytest.fixture(scope="module")
def agreement_groups(graph):
    # Distinct from the timed groups: the agreement check must not
    # leave the benchmark rotation's anchor rows warm in the cache —
    # a warm first (calibration) call would corrupt the exact side's
    # min-time and with it the speedup ratio.
    return [city_user_group(graph, GROUP_SIZE, seed=200 + i) for i in range(2)]


def test_answers_agree(exact_space, alt_space, agreement_groups):
    """Sanity before timing: identical (distance, poi) lists."""
    for users in agreement_groups:
        for agg in ("max", "sum"):
            assert alt_space.gnn(users, 2, agg) == exact_space.gnn(
                users, 2, agg
            )


@pytest.mark.parametrize("kind", KINDS)
def test_city_gnn_100k_edges(
    benchmark, exact_space, alt_space, user_groups, kind
):
    """One two-best MAX-GNN call per round, rotating user groups so
    neither side serves a single warm group from cache."""
    groups = itertools.cycle(user_groups)
    space = exact_space if kind == "exact-rows" else alt_space
    out = _record(
        benchmark, "gnn_2best", kind, lambda: space.gnn(next(groups), 2)
    )
    assert len(out) == 2


def test_alt_speedup(alt_space):
    """The tentpole's headline number, computed from the runs above."""
    rec = RECORDED.get("gnn_2best", {})
    if not {"exact-rows", "alt-pruned"} <= set(rec):
        pytest.skip("GNN benchmarks did not run for both kinds")
    ratio = rec["exact-rows"][0] / rec["alt-pruned"][0]
    stats = alt_space.index.oracle.stats()
    RECORDED["alt_stats"] = stats
    print(
        f"\nALT-over-exact GNN speedup at {GRID}x{GRID} city, "
        f"{len(alt_space.index)} POIs, {GROUP_SIZE} users: {ratio:5.2f}x "
        f"(prune rate {stats['alt_prune_rate']:.3f})"
    )
    samples = min(s for _, s in rec.values())
    if samples < 3:
        pytest.skip("single-shot run (--benchmark-disable): ratio too noisy")
    if os.environ.get("CI"):
        pytest.skip("shared CI runner: ratio reported above, not gated")
    assert ratio >= 3.0, (
        f"ALT-pruned GNN only {ratio:.2f}x faster than exact full rows "
        f"at {GRID}x{GRID} city scale (gate: >= 3x)"
    )


def test_row_cache_byte_ceiling(exact_space, graph):
    """Hard memory gate, armed on every run including CI: sweep ~3x
    the budget's worth of distinct rows; the cache must evict and stay
    under its byte ceiling the whole way."""
    oracle = oracle_for(exact_space.space)
    budget = oracle.config.row_cache_bytes
    rng = random.Random(41)
    sweep = rng.sample(sorted(graph.nodes), 3 * CACHE_ROWS)
    for node in sweep:
        exact_space.index.distance_row(node)
        assert oracle.resident_bytes <= budget
    assert oracle.resident_rows <= CACHE_ROWS
    assert oracle.evictions > 0, "sweep never overflowed the budget"
    RECORDED["cache"] = {
        "budget_bytes": budget,
        "resident_bytes": oracle.resident_bytes,
        "resident_rows": oracle.resident_rows,
        "evictions": oracle.evictions,
    }


def _whole_graph_ball(space, center, radius):
    """The loop NetworkBall replaced: merge the anchors' full distance
    maps into one dict, then test every edge of the graph.  Returns
    ``(segments, wire_values)``."""
    inf = float("inf")
    node_dist: dict = {}
    for node, d0 in space.anchors(center):
        for target, d in space.node_distances(node).items():
            if d0 + d < node_dist.get(target, inf):
                node_dist[target] = d0 + d
    segments = []
    for u, v in space.graph.edges:
        length = space.edge_length(u, v)
        cover_u = max(0.0, min(length, radius - node_dist.get(u, inf)))
        cover_v = max(0.0, min(length, radius - node_dist.get(v, inf)))
        if cover_u > 0.0 or cover_v > 0.0:
            segments.append((u, v, cover_u, cover_v))
    return segments, 3 * len(segments) + 1


def _best_of(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def test_ball_coverage_scales_with_ball(alt_space, graph, user_groups):
    """A ball costs what it covers, not what the city holds."""
    space = alt_space.space
    center = user_groups[0][0]

    def build():
        ball = NetworkBall(space, center, BALL_RADIUS)
        return ball, ball.wire_values()

    # The ball first: the reference leaves the anchors' full rows in
    # the oracle's cache, which would spare the ball its Dijkstra.
    new_seconds, (ball, values) = _best_of(build, 5)
    ref_seconds, (segments, ref_values) = _best_of(
        lambda: _whole_graph_ball(space, center, BALL_RADIUS), 2
    )
    # Always armed: the same region, edge for edge, in the same order.
    assert ball.covered_segments() == segments
    assert values == ref_values
    assert 0 < len(segments) < 0.01 * graph.number_of_edges()
    ratio = ref_seconds / new_seconds
    RECORDED["ball_coverage"] = {
        "radius": BALL_RADIUS,
        "covered_edges": len(segments),
        "graph_edges": graph.number_of_edges(),
        "whole_graph_seconds": ref_seconds,
        "ball_seconds": new_seconds,
        "speedup": ratio,
    }
    print(
        f"\nball construct + wire_values at {GRID}x{GRID} city, "
        f"{len(segments)} of {graph.number_of_edges()} edges covered: "
        f"{ratio:6.1f}x over the whole-graph loop "
        f"({ref_seconds * 1e3:.1f} ms -> {new_seconds * 1e3:.3f} ms)"
    )
    if os.environ.get("CI"):
        pytest.skip("shared CI runner: ratio reported above, not gated")
    assert ratio >= BALL_MIN_SPEEDUP, (
        f"small-radius ball only {ratio:.1f}x faster than the whole-graph "
        f"loop at {GRID}x{GRID} city scale (gate: >= {BALL_MIN_SPEEDUP:.0f}x)"
    )
