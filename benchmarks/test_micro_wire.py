"""Micro-benchmark: wire-serving latency and concurrent throughput.

Two shapes against a live :class:`~repro.transport.WireServer` on
loopback TCP:

* ``wire_sequential`` — one blocking :class:`WireClient` driving
  refresh round-trips back to back: the per-request latency floor
  (p50/p99 in milliseconds).
* ``wire_concurrent`` — ``N_CLIENTS`` (>= 8) pipelining
  :class:`AsyncWireClient` connections, each firing
  ``REQUESTS_PER_CLIENT`` requests at once against a deliberately
  small ``max_inflight``, so the per-connection backpressure brake
  *must* engage (asserted structurally, never skipped).  Recorded:
  total throughput (requests/s) plus p50/p99 under contention.

* ``cluster_wave`` — one ``report_many`` wave spanning both workers of
  a ``ProcessCluster(2)``.  Structural, always armed: the wave costs
  each involved worker exactly **one** served request and no control
  op (validation happens at the front door).  Timed: the scattered
  wave against the same sub-batches sent to the workers one after
  another; off CI the scatter must not be slower.

* ``dispatch_hop`` — a default server serves on the thread that read
  the bytes.  Structural, always armed: a request and a dispatched
  control op (``session_ids``) reach the backend on the server's loop
  thread and no executor exists.  Timed, off CI: ``session_ids`` and
  ``ping`` (answered without touching the backend) interleaved on one
  connection — their p50 ratio must stay <= 1.5 (it reads ~1.0; it was
  1.7-7x when every dispatch crossed to an executor thread and back).

Latency numbers print on every run and are appended to
``BENCH_wire.json`` by ``record_bench.py --suite wire``.  Absolute
timings are not asserted (shared CI runners are noisy); the structural
facts — every request answered, correct answers, backpressure engaged,
one request per worker per wave, no thread hop per request — always arm.
"""

from __future__ import annotations

import asyncio
import os
import random
import statistics
import threading
import time

import pytest

from repro.service import (
    MemberState,
    MPNService,
    ReportEvent,
    UpdateLocationsRequest,
)
from repro.simulation.policies import circle_policy
from repro.transport import (
    ProcessCluster,
    RemoteBackend,
    ThreadedWireServer,
    UniformPoiSpaceFactory,
    WireClient,
)
from tests.async_wire_client import AsyncWireClient

N_POIS = 2_000
N_CLIENTS = 8  # the ISSUE's ">= 8 concurrent clients" bar
REQUESTS_PER_CLIENT = 40
MAX_INFLIGHT = 4  # small on purpose: the brake must engage
SEQUENTIAL_REQUESTS = 120
WAVE_SESSIONS = 80  # one event each per wave, split over two workers
WAVES = 30  # per mode (scattered / one worker after another), interleaved
HOP_ROUNDTRIPS = 300  # per op (session_ids / ping), interleaved

FACTORY = UniformPoiSpaceFactory(n_pois=N_POIS, seed=13)


def _world():
    from repro.geometry.rect import Rect

    return Rect(*FACTORY.world)

# op -> {"p50_ms": ..., "p99_ms": ..., ...}; consumed by the summary
# test below and by record_bench.py --suite wire.
RECORDED: dict[str, dict] = {}


def _quantiles_ms(latencies: list[float]) -> tuple[float, float]:
    ordered = sorted(latencies)
    grid = statistics.quantiles(ordered, n=100, method="inclusive")
    return grid[49] * 1000.0, grid[98] * 1000.0


def _fleet(backend, n_sessions: int, seed: int):
    """``n_sessions`` two-member circle sessions, one per client."""
    import random

    rng = random.Random(seed)
    world = _world()
    sessions = []
    for _ in range(n_sessions):
        members = [world.sample(rng) for _ in range(2)]
        handle = backend.open_session(members, circle_policy())
        sessions.append((handle.session_id, members))
    return sessions


def test_wire_sequential_latency(benchmark):
    service = MPNService(FACTORY())
    with ThreadedWireServer(service) as server:
        backend = RemoteBackend(*server.address)
        [(sid, members)] = _fleet(backend, 1, seed=3)
        request = UpdateLocationsRequest(
            session_id=sid,
            members=tuple(MemberState(p) for p in members),
        )

        def schedule():
            latencies = []
            with WireClient(*server.address) as client:
                for _ in range(SEQUENTIAL_REQUESTS):
                    t0 = time.perf_counter()
                    response = client.call(request)
                    latencies.append(time.perf_counter() - t0)
                    assert response.notification.cause == "refresh"
            return latencies

        best: dict = {}

        def wrapper():
            latencies = schedule()
            p50, p99 = _quantiles_ms(latencies)
            if not best or p50 < best["p50_ms"]:
                best.update(p50_ms=p50, p99_ms=p99)
            best["samples"] = best.get("samples", 0) + 1
            return latencies

        benchmark(wrapper)
        backend.close()
    best["requests"] = SEQUENTIAL_REQUESTS
    RECORDED["wire_sequential"] = dict(best)
    print(
        f"\nwire_sequential: p50 {best['p50_ms']:.3f} ms, "
        f"p99 {best['p99_ms']:.3f} ms over {SEQUENTIAL_REQUESTS} round-trips"
    )


async def _pipelined_client(address, sid, members, latencies):
    client = AsyncWireClient()
    await client.connect(*address)
    request = UpdateLocationsRequest(
        session_id=sid, members=tuple(MemberState(p) for p in members)
    )

    async def timed():
        t0 = time.perf_counter()
        response = await client.call(request)
        latencies.append(time.perf_counter() - t0)
        assert response.notification.cause == "refresh"

    try:
        # Fire the whole budget at once: far past max_inflight, so the
        # server's read loop must stall this connection repeatedly.
        await asyncio.gather(*(timed() for _ in range(REQUESTS_PER_CLIENT)))
    finally:
        await client.close()


def test_wire_concurrent_throughput_with_backpressure(benchmark):
    service = MPNService(FACTORY())
    with ThreadedWireServer(service, max_inflight=MAX_INFLIGHT) as server:
        backend = RemoteBackend(*server.address)
        sessions = _fleet(backend, N_CLIENTS, seed=7)

        def schedule():
            latencies: list[float] = []

            async def fleet():
                await asyncio.gather(
                    *(
                        _pipelined_client(
                            server.address, sid, members, latencies
                        )
                        for sid, members in sessions
                    )
                )

            t0 = time.perf_counter()
            asyncio.run(fleet())
            wall = time.perf_counter() - t0
            return latencies, wall

        best: dict = {}

        def wrapper():
            latencies, wall = schedule()
            assert len(latencies) == N_CLIENTS * REQUESTS_PER_CLIENT
            throughput = len(latencies) / wall
            if not best or throughput > best["throughput_rps"]:
                p50, p99 = _quantiles_ms(latencies)
                best.update(
                    throughput_rps=throughput, p50_ms=p50, p99_ms=p99
                )
            best["samples"] = best.get("samples", 0) + 1
            return latencies

        benchmark(wrapper)
        # The structural bar, armed on every run: with 8 clients
        # pipelining 40 requests each into max_inflight=4, the brake
        # must have engaged.
        assert server.server.backpressure_waits > 0, (
            "backpressure never engaged; the concurrency benchmark is "
            "not exercising the brake"
        )
        best["requests"] = N_CLIENTS * REQUESTS_PER_CLIENT
        best["clients"] = N_CLIENTS
        best["max_inflight"] = MAX_INFLIGHT
        best["backpressure_waits"] = server.server.backpressure_waits
        backend.close()
    RECORDED["wire_concurrent"] = dict(best)
    print(
        f"\nwire_concurrent: {best['throughput_rps']:.0f} req/s, "
        f"p50 {best['p50_ms']:.3f} ms, p99 {best['p99_ms']:.3f} ms, "
        f"{best['backpressure_waits']} backpressure waits "
        f"({N_CLIENTS} clients x {REQUESTS_PER_CLIENT} requests)"
    )


def test_cluster_wave_is_one_request_per_worker():
    """A wave through ``ProcessCluster(2)``: what it costs the workers
    (counted, always armed) and the driver (timed, armed off CI)."""
    rng = random.Random(19)
    world = _world()
    with ProcessCluster(2, FACTORY) as cluster:
        sessions = _fleet(cluster, WAVE_SESSIONS, seed=5)
        by_shard: dict[int, list[int]] = {}
        for sid, _ in sessions:
            by_shard.setdefault(cluster.shard_for(sid), []).append(sid)
        assert sorted(by_shard) == [0, 1], "wave must span both workers"

        def wave() -> dict[int, list[ReportEvent]]:
            return {
                shard_id: [
                    ReportEvent(sid, 0, MemberState(world.sample(rng)))
                    for sid in sids
                ]
                for shard_id, sids in sorted(by_shard.items())
            }

        # Structural gate.  `requests_served` counts requests and
        # control ops alike, and the first stats read is itself one; so
        # between two reads a wave may add exactly one more to each
        # worker — its sub-batch.  Anything above that is a control op.
        before = [s["requests_served"] for s in cluster.server_stats()]
        answers = cluster.report_many(
            [event for events in wave().values() for event in events]
        )
        after = [s["requests_served"] for s in cluster.server_stats()]
        assert sum(n is not None for n in answers) > WAVE_SESSIONS // 2
        served = [b - a - 1 for a, b in zip(before, after)]
        assert served == [1, 1], (
            f"a wave must cost each involved worker one request and no "
            f"control op; workers served {served}"
        )

        scattered: list[float] = []
        one_by_one: list[float] = []
        for _ in range(WAVES):
            events = wave()
            t0 = time.perf_counter()
            cluster.report_many([e for sub in events.values() for e in sub])
            scattered.append(time.perf_counter() - t0)
            events = wave()
            t0 = time.perf_counter()
            for shard_id, sub in events.items():
                cluster.shard(shard_id).report_many(sub)
            one_by_one.append(time.perf_counter() - t0)
    assert cluster.worker_exitcodes() == [0, 0]
    p50, p99 = _quantiles_ms(scattered)
    serial_p50, _ = _quantiles_ms(one_by_one)
    RECORDED["cluster_wave"] = {
        "p50_ms": p50,
        "p99_ms": p99,
        "one_worker_after_another_p50_ms": serial_p50,
        "speedup": serial_p50 / p50,
        "events": WAVE_SESSIONS,
        "waves": WAVES,
        "requests_per_worker": served[0],
        "control_ops": served[0] - 1,
    }
    print(
        f"\ncluster_wave: {WAVE_SESSIONS} events over 2 workers, scattered "
        f"p50 {p50:.3f} ms (p99 {p99:.3f} ms) vs one worker after another "
        f"p50 {serial_p50:.3f} ms -> {serial_p50 / p50:.2f}x"
    )
    if os.environ.get("CI"):
        pytest.skip("shared CI runner: ratio reported above, not gated")
    assert p50 <= serial_p50, (
        "a scattered wave must not be slower than visiting the workers "
        "one after another"
    )


class _ThreadProbe:
    """A backend wrapper noting the thread each backend call runs on."""

    def __init__(self, inner):
        self.inner = inner
        self.threads: list[int] = []

    def dispatch(self, request):
        self.threads.append(threading.get_ident())
        return self.inner.dispatch(request)

    def session_ids(self):
        self.threads.append(threading.get_ident())
        return self.inner.session_ids()


def test_dispatch_crosses_no_thread_boundary():
    """A default server: what it costs in threads (counted, always
    armed) and in time against a backend-free ping (armed off CI)."""
    probe = _ThreadProbe(MPNService(FACTORY()))
    with ThreadedWireServer(probe) as server:
        with RemoteBackend(*server.address) as backend:
            client = backend.client
            [(sid, _)] = _fleet(backend, 1, seed=11)  # a served request
            assert client.control("session_ids") == [sid]
            assert server.server._executor is None, (
                "a default server must not own a dispatch executor"
            )
            assert set(probe.threads) == {server._thread.ident}, (
                "a request or control op left the server's loop thread"
            )

            dispatched: list[float] = []
            inline: list[float] = []
            for _ in range(HOP_ROUNDTRIPS):
                t0 = time.perf_counter()
                client.control("session_ids")
                dispatched.append(time.perf_counter() - t0)
                t0 = time.perf_counter()
                client.control("ping")
                inline.append(time.perf_counter() - t0)
    ids_p50, _ = _quantiles_ms(dispatched)
    ping_p50, _ = _quantiles_ms(inline)
    print(
        f"\ndispatch_hop: session_ids p50 {ids_p50 * 1000:.0f} us vs ping "
        f"p50 {ping_p50 * 1000:.0f} us -> {ids_p50 / ping_p50:.2f}x"
    )
    if os.environ.get("CI"):
        pytest.skip("shared CI runner: ratio reported above, not gated")
    assert ids_p50 <= 1.5 * ping_p50, (
        "a dispatched control op must cost about what a ping costs; "
        "is every dispatch crossing a thread boundary again?"
    )


def test_report_wire_ratios():
    """Summary + sanity: every shape recorded, answers consistent."""
    needed = {"wire_sequential", "wire_concurrent", "cluster_wave"}
    assert needed <= set(RECORDED), "benchmark ordering broke"
    seq = RECORDED["wire_sequential"]
    conc = RECORDED["wire_concurrent"]
    wave = RECORDED["cluster_wave"]
    print(
        f"\nwire summary: sequential p50 {seq['p50_ms']:.3f} ms | "
        f"concurrent {conc['throughput_rps']:.0f} req/s "
        f"p99 {conc['p99_ms']:.3f} ms "
        f"({conc['backpressure_waits']} brake engagements) | "
        f"cluster wave p50 {wave['p50_ms']:.3f} ms "
        f"({wave['speedup']:.2f}x over one worker after another)"
    )
    assert conc["backpressure_waits"] > 0
    assert seq["p50_ms"] > 0 and conc["p99_ms"] >= conc["p50_ms"]
