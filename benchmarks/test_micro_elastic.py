"""Micro-benchmark: live reshard cost — migration latency, remap size.

Two shapes:

* ``elastic_migration`` — an in-process :class:`~repro.cluster.MPNCluster`
  with ``N_SESSIONS`` live sessions grows by one shard: recorded are
  the wall-clock cost of ``add_shard()`` (which migrates the ring's
  minimal remap set by snapshot), the per-moved-session cost, and the
  remap fraction.  Structural gates armed on every run: sessions move
  *only* to the newcomer, the remap fraction stays near the ideal
  ``1/(n+1)`` (< ``REMAP_FRACTION_SLACK``×), migration charges no
  metrics, and removing the shard we just added restores the exact
  prior placement.
* ``elastic_wire_handoff`` — sessions hand off one by one between two
  live wire servers (export → import → close: two control round-trips
  plus a parked close): p50/p99 per-session handoff latency over TCP.

Absolute timings are not asserted (CI runners are noisy); the
structural facts always arm.  Recorded numbers are appended to
``BENCH_elastic.json`` by ``record_bench.py --suite elastic``.
"""

from __future__ import annotations

import random
import statistics
import time

from repro.cluster import MPNCluster
from repro.service import MPNService
from repro.simulation.policies import circle_policy
from repro.transport import (
    RemoteBackend,
    ThreadedWireServer,
    UniformPoiSpaceFactory,
)

N_POIS = 1_000
N_SHARDS = 4
N_SESSIONS = 200
WIRE_SESSIONS = 30
# growth n -> n+1 ideally remaps 1/(n+1) of the keys; 64 ring replicas
# leave variance, so gate on a slack multiple of the ideal
REMAP_FRACTION_SLACK = 2.5

FACTORY = UniformPoiSpaceFactory(n_pois=N_POIS, seed=13)

# op -> recorded numbers; consumed by record_bench.py --suite elastic.
RECORDED: dict[str, dict] = {}


def _world():
    from repro.geometry.rect import Rect

    return Rect(*FACTORY.world)


def _counters(metrics) -> dict:
    import dataclasses

    data = dataclasses.asdict(metrics)
    data.pop("server_cpu_seconds", None)
    return data


def _quantiles_ms(latencies: list[float]) -> tuple[float, float]:
    ordered = sorted(latencies)
    grid = statistics.quantiles(ordered, n=100, method="inclusive")
    return grid[49] * 1000.0, grid[98] * 1000.0


def _open_fleet(backend, n_sessions: int, seed: int) -> list[int]:
    rng = random.Random(seed)
    world = _world()
    return [
        backend.open_session(
            [world.sample(rng) for _ in range(2)], circle_policy()
        ).session_id
        for _ in range(n_sessions)
    ]


def test_elastic_migration_latency(benchmark):
    best: dict = {}

    def schedule():
        cluster = MPNCluster(N_SHARDS, FACTORY)
        ids = _open_fleet(cluster, N_SESSIONS, seed=5)
        placement = {sid: cluster.shard_for(sid) for sid in ids}
        before = _counters(cluster.metrics)

        t0 = time.perf_counter()
        new_id = cluster.add_shard()
        grow_s = time.perf_counter() - t0

        moved = [sid for sid in ids if cluster.shard_for(sid) != placement[sid]]
        # the consistent-hash gates, armed on every run
        assert moved, "a 64-replica newcomer always takes some sessions"
        assert all(cluster.shard_for(sid) == new_id for sid in moved), (
            "sessions moved between incumbents — remap is not minimal"
        )
        fraction = len(moved) / len(ids)
        assert fraction <= REMAP_FRACTION_SLACK / (N_SHARDS + 1), (
            f"remap fraction {fraction:.3f} far above the 1/(n+1) ideal"
        )
        assert _counters(cluster.metrics) == before, "migration charged metrics"

        t0 = time.perf_counter()
        cluster.remove_shard(new_id)
        shrink_s = time.perf_counter() - t0
        assert {sid: cluster.shard_for(sid) for sid in ids} == placement, (
            "add-then-remove must restore the exact prior placement"
        )
        assert _counters(cluster.metrics) == before

        per_session_ms = grow_s * 1000.0 / len(moved)
        if not best or per_session_ms < best["grow_per_session_ms"]:
            best.update(
                grow_seconds=grow_s,
                shrink_seconds=shrink_s,
                grow_per_session_ms=per_session_ms,
                moved_sessions=len(moved),
                remap_fraction=fraction,
            )
        best["samples"] = best.get("samples", 0) + 1

    benchmark(schedule)
    RECORDED["elastic_migration"] = dict(best)
    print(
        f"\nelastic_migration: {N_SHARDS}->{N_SHARDS + 1} shards moved "
        f"{best['moved_sessions']}/{N_SESSIONS} sessions "
        f"({best['remap_fraction']:.3f} of keys) in "
        f"{best['grow_seconds'] * 1000.0:.1f} ms "
        f"({best['grow_per_session_ms']:.2f} ms/session); "
        f"shrink back {best['shrink_seconds'] * 1000.0:.1f} ms"
    )


def test_elastic_wire_handoff_latency(benchmark):
    best: dict = {}

    def schedule():
        a = MPNService(FACTORY())
        b = MPNService(FACTORY())
        with ThreadedWireServer(a) as sa, ThreadedWireServer(b) as sb:
            ra = RemoteBackend(*sa.address, space=FACTORY())
            rb = RemoteBackend(*sb.address, space=FACTORY())
            try:
                ids = _open_fleet(ra, WIRE_SESSIONS, seed=9)
                latencies = []
                for sid in ids:
                    t0 = time.perf_counter()
                    rb.import_session(ra.export_session(sid))
                    ra.close_session(sid)
                    latencies.append(time.perf_counter() - t0)
                assert ra.session_ids() == []
                assert rb.session_ids() == sorted(ids)
            finally:
                ra.close()
                rb.close()
        p50, p99 = _quantiles_ms(latencies)
        if not best or p50 < best["p50_ms"]:
            best.update(p50_ms=p50, p99_ms=p99)
        best["samples"] = best.get("samples", 0) + 1

    benchmark(schedule)
    best["sessions"] = WIRE_SESSIONS
    RECORDED["elastic_wire_handoff"] = dict(best)
    print(
        f"\nelastic_wire_handoff: p50 {best['p50_ms']:.3f} ms, "
        f"p99 {best['p99_ms']:.3f} ms per session "
        f"over {WIRE_SESSIONS} live TCP handoffs"
    )


def test_report_elastic_summary():
    """Both shapes recorded with their structural gates armed."""
    assert {"elastic_migration", "elastic_wire_handoff"} <= set(RECORDED)
    migration = RECORDED["elastic_migration"]
    assert migration["moved_sessions"] > 0
    assert 0.0 < migration["remap_fraction"] <= (
        REMAP_FRACTION_SLACK / (N_SHARDS + 1)
    )
