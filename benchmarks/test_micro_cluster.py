"""Micro-benchmark: sharded ``report_many`` fleet steps at 400+ sessions.

One *fleet step* is a deployment tick at cluster scale: 400 concurrent
sessions all fire an escape report and the backend recomputes every
meeting point and safe region.  Three configurations serve the
identical event stream:

* ``single``  — one batched :class:`MPNService` (the PR-3 baseline);
* ``sharded`` — a 4-shard :class:`MPNCluster`, each sub-wave flowing
  through its shard's batched kernels;
* ``sharded-scalar`` — the same cluster with ``batched=False``.

The gate is the tentpole's throughput claim: sharding must *preserve*
intra-shard batching — the batched cluster at least 2x faster per
fleet step than the scalar cluster at 400 sessions — and the front
door must stay thin — within 2x of the unsharded batched service (the
split/merge overhead bound; in one process the shards buy isolation,
not parallelism).  Ratios are printed on every run; the assertions arm
only on multi-sample local runs, never on shared CI runners.

One gate is structural and always armed, CI included — the in-process
twin of the wire gate "a ``ProcessCluster(2)`` wave costs each worker
exactly one served request"
(``test_wave_enters_each_involved_shard_once_by_the_front_gate``): the
front door validates a wave once, then enters every involved shard
exactly once through the public ``MPNService.report_many``, and an open
reaches its owner through ``MPNService.open_session``.
"""

from __future__ import annotations

import itertools
import os
import random
import time

import pytest

from repro.cluster import MPNCluster
from repro.geometry.point import Point
from repro.service import MemberState, MPNService, ReportEvent
from repro.simulation import circle_policy
from repro.space import as_space
from repro.workloads.datasets import WORLD
from repro.workloads.poi import build_poi_tree, clustered_pois

N_POIS = 30_000
N_SESSIONS = 400  # the ">= 400 sessions" cluster claim
N_SHARDS = 4
GROUP_SIZE = 2
N_ROUNDS = 8  # precomputed report rounds the benchmarks cycle through
BACKENDS = ["single", "sharded", "sharded-scalar"]

# backend -> (best wall-clock seconds per fleet step, samples); consumed
# by the gating test at the bottom (same idiom as the sibling files).
RECORDED: dict[str, tuple[float, int]] = {}


def _record(benchmark, backend_name: str, fn):
    times: list[float] = []

    def wrapper():
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
        return out

    result = benchmark(wrapper)
    RECORDED[backend_name] = (min(times), len(times))
    single = RECORDED.get("single")
    if backend_name != "single" and single:
        benchmark.extra_info["vs_single"] = min(times) / single[0]
    return result


@pytest.fixture(scope="module")
def poi_points():
    return clustered_pois(N_POIS, WORLD, seed=31)


def _open_fleet(backend, n_sessions: int) -> list[int]:
    """Identical walking-distance groups on every backend."""
    rng = random.Random(5)
    ids = []
    policy = circle_policy()
    for _ in range(n_sessions):
        cx, cy = WORLD.sample(rng)
        members = [
            Point(cx + rng.uniform(-800.0, 800.0), cy + rng.uniform(-800.0, 800.0))
            for _ in range(GROUP_SIZE)
        ]
        ids.append(backend.open_session(members, policy).session_id)
    return ids


@pytest.fixture(scope="module")
def report_rounds():
    """One escape target per session per round; a cross-world jump
    escapes the (small) regions essentially always, so every backend
    does the same logical work every step."""
    rng = random.Random(77)
    return [
        [WORLD.sample(rng) for _ in range(N_SESSIONS)] for _ in range(N_ROUNDS)
    ]


@pytest.fixture(scope="module")
def backends(poi_points):
    def build(name: str):
        if name == "single":
            return MPNService(build_poi_tree(poi_points))
        return MPNCluster(
            N_SHARDS,
            lambda: as_space(build_poi_tree(poi_points)),
            batched=name == "sharded",
        )

    out = {}
    for name in BACKENDS:
        backend = build(name)
        out[name] = (backend, _open_fleet(backend, N_SESSIONS))
    return out


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_cluster_fleet_step_400_sessions(
    benchmark, backends, report_rounds, backend_name
):
    """One full fleet tick: every session reports, all recompute."""
    backend, ids = backends[backend_name]
    rounds = itertools.cycle(report_rounds)

    def step():
        points = next(rounds)
        events = [
            ReportEvent(sid, 0, MemberState(p)) for sid, p in zip(ids, points)
        ]
        return backend.report_many(events)

    notifications = _record(benchmark, backend_name, step)
    # Every report was a genuine escape: all 400 sessions recomputed.
    assert sum(n is not None for n in notifications) == N_SESSIONS


def test_wave_enters_each_involved_shard_once_by_the_front_gate(monkeypatch):
    """Counted, not timed: what a wave and an open cost the shards."""
    import repro.cluster.cluster as front_door

    cluster = MPNCluster(
        N_SHARDS,
        lambda: as_space(build_poi_tree(clustered_pois(500, WORLD, seed=31))),
    )
    shard_of = {
        id(shard): shard_id
        for shard_id, shard in zip(cluster.shard_ids(), cluster.shards)
    }
    calls: list[tuple[str, int]] = []

    def spy(owner, name, label, key):
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append((label, key(args[0])))
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    spy(MPNService, "open_session", "open", lambda shard: shard_of[id(shard)])
    spy(MPNService, "report_many", "wave", lambda shard: shard_of[id(shard)])
    spy(front_door, "validate_report_events", "validate", len)

    ids = _open_fleet(cluster, 12)
    assert calls == [("open", cluster.shard_for(sid)) for sid in ids]

    idle = cluster.shard_for(ids[0])
    rng = random.Random(9)
    events = [
        ReportEvent(sid, 0, MemberState(WORLD.sample(rng)))
        for sid in ids
        if cluster.shard_for(sid) != idle
    ]
    involved = sorted({cluster.shard_for(e.session_id) for e in events})
    assert len(involved) >= 2, "the wave must span shards"
    calls.clear()
    answers = cluster.report_many(events)
    assert sum(n is not None for n in answers) > len(events) // 2
    # Validated once, at the door, before any shard is entered; then one
    # public report_many per involved shard and none on the idle one.
    assert calls == [("validate", len(events))] + [
        ("wave", shard_id) for shard_id in involved
    ]


def test_sharded_throughput_scaling():
    """The tentpole's headline numbers, computed from the runs above."""
    if set(BACKENDS) - set(RECORDED):
        pytest.skip("cluster fleet-step benchmarks did not all run")
    single, _ = RECORDED["single"]
    sharded, _ = RECORDED["sharded"]
    scalar, _ = RECORDED["sharded-scalar"]
    batching_kept = scalar / sharded
    overhead = sharded / single
    print(
        f"\nsharded fleet step at {N_SESSIONS} sessions / {N_SHARDS} shards:"
    )
    print(f"  batched-cluster over scalar-cluster  {batching_kept:5.2f}x")
    print(f"  sharded over single (overhead)       {overhead:5.2f}x")
    samples = min(s for _, s in RECORDED.values())
    if samples < 3:
        pytest.skip("single-shot run (--benchmark-disable): ratios too noisy")
    if os.environ.get("CI"):
        pytest.skip("shared CI runner: ratios reported above, not gated")
    assert batching_kept >= 2.0, (
        f"sharding lost the batched fleet path: batched cluster only "
        f"{batching_kept:.2f}x faster than scalar cluster at "
        f"{N_SESSIONS} sessions (gate: >= 2x)"
    )
    assert overhead <= 2.0, (
        f"cluster front door too thick: {overhead:.2f}x a single batched "
        f"service per fleet step (gate: <= 2x)"
    )
