"""Micro-benchmark: the distance oracle at city scale (100k+ edges).

At 10k-edge grids a full Dijkstra row is cheap enough to compute and
keep; at city scale (the default here: a ~240x240 perturbed grid with
deleted blocks and arterials, ~54k nodes / ~107k edges) full rows are
~0.4 MB each and the anchor working set no longer fits a bounded row
cache — the exact path recomputes rows every call.  The oracle's ALT
landmark pruning + bounded-radius Dijkstra answers the same GNNs
bit-identically while touching only the small ball around each group.

Five gates:

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

* ``test_churn_sweep_runs_exact_tests_on_survivors_only`` — a seeded
  ``net_circle`` fleet under per-tick POI churn: the Lemma-1 sweep's
  exact ``region_valid_against`` runs on the broadcast filter's
  survivors only — under 10 % of the sessions x adds the plain double
  loop pays for — and every notification is bit-identical to a service
  whose sweep *is* that double loop.  Counts only, ALWAYS armed.
* ``test_churn_sweep_computes_at_most_one_row_per_add`` — on the
  >=10^4-node city the sweep's distances come from the add nodes' own
  oracle rows: ``rows_computed`` grows by at most one per add, however
  many sessions the batch is held against.  ALWAYS armed.

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
from repro.scenarios import (
    CityGraphSpaceSpec,
    CohortSpec,
    PoiChurnSpec,
    ScenarioSpec,
    run_scenario,
)
from repro.service import MPNService
from repro.service import service as service_module
from repro.service.session import ServiceSession, lemma1_suspects
from repro.simulation import net_circle_policy
from repro.space.network import NetworkPOISpace
from repro.workloads.citygraph import city_graph, city_poi_nodes, city_user_group

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
        oracle.row(oracle.node_id[node])
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


def _churned_city_fleet() -> ScenarioSpec:
    """``net_circle`` groups of 3 on a 16x16 city, 5 adds + 5 removes
    every tick — the shape of the ``citynet_circle`` bench workload."""

    def cohort(name, kind, sessions, speed):
        return CohortSpec(
            name=name,
            kind=kind,
            sessions=sessions,
            group_size=3,
            first_tick=0,
            last_tick=30,
            lifetime=8,
            speed=speed,
            policies=("net_circle",),
        )

    return ScenarioSpec(
        name="micro_citynet_churn",
        seed=2013,
        ticks=40,
        space=CityGraphSpaceSpec(grid_size=16, graph_seed=17, n_pois=60, poi_seed=2013),
        cohorts=(
            cohort("commuters", "commuter", 50, 1.2),
            cohort("match_crowd", "event_crowd", 20, 0.9),
        ),
        poi_churn=PoiChurnSpec(every=1, adds=5, removes=5),
    ).validate()


def test_churn_sweep_runs_exact_tests_on_survivors_only(monkeypatch):
    """Structural, always armed: counts and bit-identity, no timing."""
    spec = _churned_city_fleet()
    tally = {"pairs": 0, "survivors": 0, "exact": 0}
    exact = ServiceSession.region_valid_against

    def counted_exact(self, p):
        tally["exact"] += 1
        return exact(self, p)

    def counted_filter(sessions, points):
        suspects = lemma1_suspects(sessions, points)
        tally["pairs"] += len(sessions) * len(points)
        tally["survivors"] += sum(len(keep) for keep in suspects)
        return suspects

    monkeypatch.setattr(ServiceSession, "region_valid_against", counted_exact)
    monkeypatch.setattr(service_module, "lemma1_suspects", counted_filter)
    swept = run_scenario(spec, MPNService(spec.space()), collect_notifications=True)
    filtered = dict(tally)

    # The referee: every session a suspect for every add.
    monkeypatch.setattr(
        service_module,
        "lemma1_suspects",
        lambda sessions, points: [range(len(points))] * len(sessions),
    )
    tally["exact"] = 0
    looped = run_scenario(spec, MPNService(spec.space()), collect_notifications=True)

    assert swept.total_churn_notifications >= 50  # the churn did hit
    assert swept.notification_log == looped.notification_log
    assert filtered["exact"] <= filtered["survivors"]
    assert filtered["exact"] < 0.10 * filtered["pairs"]
    assert tally["exact"] > 0.5 * filtered["pairs"]  # what the loop paid
    RECORDED["churn_sweep"] = {
        "session_add_pairs": filtered["pairs"],
        "filter_survivors": filtered["survivors"],
        "exact_tests": filtered["exact"],
        "exact_tests_double_loop": tally["exact"],
        "churn_notifications": swept.total_churn_notifications,
    }
    print(
        f"\nLemma-1 churn sweep, net_circle on a 16x16 city: "
        f"{filtered['exact']} exact tests for {filtered['pairs']} "
        f"session x add pairs (double loop: {tally['exact']}), "
        f"{swept.total_churn_notifications} sessions re-notified"
    )


def test_churn_sweep_computes_at_most_one_row_per_add(graph, pois):
    """The sweep reads the *adds'* rows, not one per session anchor:
    with every anchor row resident, a batch held against the whole
    fleet computes at most one new Dijkstra row per distinct add."""
    if graph.number_of_nodes() < 10_000:
        pytest.skip(f"needs a >=10^4-node city (CITYNET_GRID={GRID})")
    config = OracleConfig(alt_mode="off", bounded_mode="off")
    space = NetworkPOISpace(NetworkSpace(graph), pois, oracle_config=config)
    oracle = space.index.oracle
    service = MPNService(space)
    n_sessions = 8
    for i in range(n_sessions):
        service.open_session(
            city_user_group(graph, 3, seed=300 + i), net_circle_policy()
        )
    rng = random.Random(43)
    taken = set(pois)
    fresh = [n for n in rng.sample(sorted(graph.nodes), 40) if n not in taken]
    adds = [(node, None) for node in fresh[:10]]
    # ... and one right next to a live meeting point, so a session is
    # re-notified and the recomputation is inside the measurement too.
    po = service.session(service.session_ids()[0]).po
    adds.append((next(iter(graph[po])), None))
    before = oracle.stats()["rows_computed"]
    service.update_pois(adds=adds)
    computed = oracle.stats()["rows_computed"] - before
    assert 0 < computed <= len({node for node, _ in adds})
    assert oracle.stats()["row_cache_evictions"] == 0  # anchors stayed resident
    RECORDED["churn_sweep_rows"] = {
        "sessions": n_sessions,
        "adds": len(adds),
        "rows_computed": computed,
    }
