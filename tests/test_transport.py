"""The wire stack end to end: framing, server, clients, controls.

Everything here runs the real :class:`~repro.transport.WireServer` on
a background thread (:class:`~repro.transport.ThreadedWireServer`) and
talks to it over real TCP sockets on loopback — no mocks.  The
socket-abuse battery lives in ``tests/test_transport_robustness.py``;
answer-equivalence proofs live in ``tests/test_wire_equivalence.py``.
"""

from __future__ import annotations

import asyncio
import gc
import logging
import sys
import threading
import time
import warnings

import pytest

from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.service import (
    CloseSessionRequest,
    CloseSessionResponse,
    ErrorResponse,
    MemberState,
    MPNService,
    OpenSessionResponse,
    ReportEvent,
    ReportRequest,
    UnknownSessionError,
    UnknownSpaceError,
)
from repro.simulation.policies import circle_policy, tile_policy
from repro.space import Space, share_space
from repro.transport import (
    ConnectionClosed,
    FrameDecodeError,
    FrameTooLargeError,
    ProcessCluster,
    RemoteBackend,
    ThreadedWireServer,
    UniformPoiSpaceFactory,
    WireClient,
    decode_body,
    encode_frame,
)
from tests.async_wire_client import AsyncWireClient
from tests.conftest import SMALL_WORLD

FACTORY = UniformPoiSpaceFactory(n_pois=250, seed=9)


# ----------------------------------------------------------------------
# Framing (pure units)
# ----------------------------------------------------------------------


class TestFraming:
    def test_frame_round_trips(self):
        frame = encode_frame({"id": 3, "control": {"op": "ping"}})
        size = int.from_bytes(frame[:4], "big")
        assert len(frame) == 4 + size
        assert decode_body(frame[4:]) == {"id": 3, "control": {"op": "ping"}}

    def test_oversized_frame_refused_at_encode_time(self):
        with pytest.raises(FrameTooLargeError) as caught:
            encode_frame({"blob": "x" * 100}, max_bytes=50)
        assert caught.value.limit == 50
        assert caught.value.size > 50

    def test_junk_body_raises_decode_error(self):
        with pytest.raises(FrameDecodeError):
            decode_body(b"{not json")
        with pytest.raises(FrameDecodeError):
            decode_body(b"\xff\xfe\x00")


# ----------------------------------------------------------------------
# The request/control surface over a live server
# ----------------------------------------------------------------------


@pytest.fixture(scope="class")
def served():
    service = MPNService(share_space(FACTORY()))
    with ThreadedWireServer(service) as server:
        yield server, service


class TestWireClient:
    def test_dispatch_returns_envelopes_call_raises(self, served, rng):
        server, _ = served
        with WireClient(*server.address) as client:
            opened = client.call(
                _open_request([SMALL_WORLD.sample(rng) for _ in range(2)])
            )
            assert isinstance(opened, OpenSessionResponse)
            closed = client.call(CloseSessionRequest(opened.session_id))
            assert closed == CloseSessionResponse(session_id=opened.session_id)

            # dispatch() hands back the error envelope...
            error = client.dispatch(CloseSessionRequest(opened.session_id))
            assert isinstance(error, ErrorResponse)
            assert error.code == "unknown_session"
            # ...call() raises it as the typed exception.
            with pytest.raises(UnknownSessionError):
                client.call(CloseSessionRequest(opened.session_id))

    def test_control_surface(self, served, rng):
        server, service = served
        backend = RemoteBackend(*server.address)
        try:
            assert backend.ping()
            handle = backend.open_session(
                [SMALL_WORLD.sample(rng) for _ in range(2)], circle_policy()
            )
            assert backend.session_ids() == service.session_ids()
            assert backend.space_names() == service.space_names()
            assert backend.space_epoch() == service.space.epoch
            assert backend.metrics == service.metrics
            assert backend.session_metrics(
                handle.session_id
            ) == service.session_metrics(handle.session_id)
            stats = backend.server_stats()
            assert stats["sessions"] == len(service.session_ids())
            assert stats["requests_served"] > 0
            assert stats["max_inflight"] == server.server.max_inflight
            backend.close_session(handle.session_id)
        finally:
            backend.close()

    def test_unknown_control_op_is_an_error(self, served):
        server, _ = served
        with WireClient(*server.address) as client:
            with pytest.raises(ValueError, match="unknown control op"):
                client.control("warp_drive")

    def test_unknown_space_epoch_is_typed(self, served):
        server, _ = served
        backend = RemoteBackend(*server.address)
        try:
            with pytest.raises((UnknownSpaceError, ValueError)):
                backend.space_epoch("mars")
        finally:
            backend.close()


def _open_request(points, policy=None):
    from repro.service import OpenSessionRequest

    return OpenSessionRequest(
        members=tuple(MemberState(p) for p in points),
        policy=policy or circle_policy(),
    )


# ----------------------------------------------------------------------
# RemoteBackend: the drop-in ServiceBackend
# ----------------------------------------------------------------------


class TestRemoteBackend:
    def test_full_lifecycle_with_live_regions(self, served, rng):
        server, service = served
        backend = RemoteBackend(*server.address, space=FACTORY())
        try:
            members = [SMALL_WORLD.sample(rng) for _ in range(3)]
            handle = backend.open_session(members, circle_policy())
            # Regions arrive decoded into live geometry: the client can
            # run contains_point locally — the paper's Fig. 3 client role.
            assert handle.notification.regions
            for region, member in zip(handle.notification.regions, members):
                assert isinstance(region, Circle)
                assert region.contains_point(member)

            notification = backend.report(
                handle.session_id, 0, SMALL_WORLD.sample(rng)
            )
            assert notification is not None and notification.cause == "report"
            wave = backend.report_many(
                [
                    ReportEvent(
                        handle.session_id,
                        1,
                        MemberState(SMALL_WORLD.sample(rng)),
                    )
                ]
            )
            assert len(wave) == 1

            refreshed = backend.update_locations(
                handle.session_id,
                [MemberState(SMALL_WORLD.sample(rng)) for _ in range(3)],
            )
            assert refreshed.cause == "refresh"
            backend.update_policy(
                handle.session_id, tile_policy(alpha=5, split_level=1)
            )
            assert (
                service.session(handle.session_id).policy.strategy_name
                == "tile"
            )

            victim = service.session(handle.session_id).po
            churn = backend.remove_poi(victim)
            assert [n.session_id for n in churn] == [handle.session_id]
            backend.add_poi(SMALL_WORLD.sample(rng))
            backend.close_session(handle.session_id)
            assert handle.session_id not in backend.session_ids()
        finally:
            backend.close()

    def test_mirror_space_tracks_server_churn(self, served, rng):
        server, service = served
        backend = RemoteBackend(*server.address, space=FACTORY())
        try:
            epoch_before = backend.space_epoch()
            add = SMALL_WORLD.sample(rng)
            backend.update_pois(adds=[(add, None)])
            # The server's shared space published a new epoch...
            assert backend.space_epoch() != epoch_before
            # ...and the local mirror absorbed the same batch, so both
            # sides answer GNN queries identically.
            probe = SMALL_WORLD.sample(rng)
            assert backend.space.poi_count() == service.space.poi_count()
            assert backend.space.gnn([probe]) == service.space.gnn([probe])
        finally:
            backend.close()

    def test_prober_is_kept_client_side(self, served, rng):
        server, service = served
        backend = RemoteBackend(*server.address)
        try:
            fresh = [MemberState(SMALL_WORLD.sample(rng)) for _ in range(3)]
            probed = []

            def prober(i):
                probed.append(i)
                return fresh[i]

            handle = backend.open_session(
                [SMALL_WORLD.sample(rng) for _ in range(3)],
                circle_policy(),
                prober=prober,
            )
            backend.report(handle.session_id, 0, SMALL_WORLD.sample(rng))
            assert sorted(probed) == [1, 2]
            # The server observed the probed states by value.
            session = service.session(handle.session_id)
            assert session.members[1].point == fresh[1].point
            backend.close_session(handle.session_id)
        finally:
            backend.close()

    def test_live_space_refuses_the_wire(self, served):
        server, _ = served
        backend = RemoteBackend(*server.address)
        try:
            with pytest.raises(ValueError, match="cannot cross the wire"):
                backend.update_pois(
                    adds=[(Point(1.0, 1.0), None)], space=FACTORY()
                )
        finally:
            backend.close()

    def test_missing_mirror_is_a_clear_error(self, served):
        server, _ = served
        backend = RemoteBackend(*server.address)
        try:
            with pytest.raises(ValueError, match="local mirror"):
                _ = backend.space
            with pytest.raises(ValueError, match="local mirror"):
                backend.get_space("roads")
        finally:
            backend.close()


# ----------------------------------------------------------------------
# Degradation knobs: timeouts, backpressure, drain
# ----------------------------------------------------------------------


class SlowBackend:
    """A backend whose dispatch blocks — for timeout/backpressure tests."""

    def __init__(self, delay: float):
        self.delay = delay

    def dispatch(self, request):
        time.sleep(self.delay)
        return CloseSessionResponse(session_id=request.session_id)

    def session_ids(self):
        return []


class TestDegradation:
    def test_request_timeout_becomes_an_error_envelope(self):
        with ThreadedWireServer(
            SlowBackend(0.5), request_timeout=0.05
        ) as server:
            with WireClient(*server.address, timeout=10.0) as client:
                error = client.dispatch(CloseSessionRequest(session_id=1))
                assert isinstance(error, ErrorResponse)
                assert error.code == "timeout"
                with pytest.raises(TimeoutError):
                    client.call(CloseSessionRequest(session_id=2))

    def test_backpressure_brake_engages_and_recovers(self):
        """Pipelining past max_inflight stalls the read loop (counted in
        stats) but every request is still answered, in order."""
        n_requests = 12
        with ThreadedWireServer(
            SlowBackend(0.01), max_inflight=2
        ) as server:

            async def pipeline():
                client = AsyncWireClient()
                await client.connect(*server.address)
                try:
                    return await asyncio.gather(
                        *(
                            client.call(CloseSessionRequest(session_id=i))
                            for i in range(n_requests)
                        )
                    )
                finally:
                    await client.close()

            replies = asyncio.run(pipeline())
            assert [r.session_id for r in replies] == list(range(n_requests))
            assert server.server.backpressure_waits > 0
            assert server.server.requests_served == n_requests

    def test_errors_sent_counter_tracks_error_envelopes(self):
        service = MPNService(share_space(FACTORY()))
        with ThreadedWireServer(service) as server:
            with WireClient(*server.address) as client:
                client.dispatch(CloseSessionRequest(session_id=404))
                client.dispatch(CloseSessionRequest(session_id=405))
            assert server.server.errors_sent == 2

    def test_shutdown_control_drains_and_refuses_new_connections(self, rng):
        service = MPNService(share_space(FACTORY()))
        server = ThreadedWireServer(service)
        address = server.start()
        try:
            backend = RemoteBackend(*address)
            handle = backend.open_session(
                [SMALL_WORLD.sample(rng) for _ in range(2)], circle_policy()
            )
            assert handle.notification is not None
            backend.shutdown_server()
            backend.close()
            # The listener is gone: a fresh dial must fail.
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                try:
                    WireClient(*address, timeout=0.2).close()
                except (ConnectionError, OSError, ConnectionClosed):
                    break
                time.sleep(0.05)
            else:
                pytest.fail("server still accepting after shutdown")
        finally:
            server.stop()


# ----------------------------------------------------------------------
# Which thread serves: the loop's own, unless a timeout must be kept
# ----------------------------------------------------------------------


class ProbeBackend:
    """Records who served what, when — and refuses to be re-entered."""

    def __init__(self, delay: float = 0.0):
        self.delay = delay
        self.threads: set[str] = set()
        self.served: list[int] = []
        self.started = threading.Event()
        self.finished_at = None
        self._busy = False

    def _enter(self):
        assert not self._busy, "backend entered by two threads at once"
        self._busy = True
        self.threads.add(threading.current_thread().name)

    def dispatch(self, request):
        self._enter()
        self.started.set()
        try:
            time.sleep(self.delay)  # lets another thread in, if one exists
            self.served.append(request.session_id)
            return CloseSessionResponse(session_id=request.session_id)
        finally:
            self.finished_at = time.monotonic()
            self._busy = False

    def session_ids(self):
        self._enter()
        self._busy = False
        return list(self.served)


# request_timeout -> the thread every backend call must be seen on
DISPATCH_THREADS = [(None, "wire-server"), (30.0, "wire-dispatch_0")]


class TestDispatchThread:
    @pytest.mark.parametrize("request_timeout, thread", DISPATCH_THREADS)
    def test_requests_and_control_ops_share_one_thread(
        self, request_timeout, thread
    ):
        backend = ProbeBackend()
        with ThreadedWireServer(
            backend, request_timeout=request_timeout
        ) as server:
            with WireClient(*server.address) as client:
                client.call(CloseSessionRequest(session_id=1))
                assert client.control("session_ids") == [1]
                assert client.control("stats")["sessions"] == 1
            # No timeout to keep, no second thread to keep it with.
            assert (server.server._executor is None) == (
                request_timeout is None
            )
        assert backend.threads == {thread}

    @pytest.mark.parametrize("request_timeout, thread", DISPATCH_THREADS)
    def test_connections_never_overlap_in_the_backend(
        self, request_timeout, thread
    ):
        """Three clients (one more than this box has cores) hammer one
        backend; ProbeBackend raises if two calls are ever inside it."""
        backend = ProbeBackend(delay=0.0002)
        n_clients, n_requests = 3, 60
        failures: list[BaseException] = []

        def hammer(base: int) -> None:
            try:
                with WireClient(*server.address, timeout=30.0) as client:
                    for i in range(n_requests):
                        client.call(CloseSessionRequest(session_id=base + i))
                        client.control("session_ids")
            except BaseException as exc:  # noqa: BLE001 - reported below
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadedWireServer(
                backend, request_timeout=request_timeout
            ) as server:
                clients = [
                    threading.Thread(target=hammer, args=(1000 * k,))
                    for k in range(n_clients)
                ]
                for t in clients:
                    t.start()
                for t in clients:
                    t.join(timeout=60.0)
                assert not any(t.is_alive() for t in clients)
        finally:
            sys.setswitchinterval(interval)
        assert failures == []
        assert len(backend.served) == n_clients * n_requests
        assert backend.threads == {thread}

    @pytest.mark.parametrize("request_timeout", [None, 30.0])
    def test_ping_waits_for_an_inline_dispatch_only(self, request_timeout):
        """The documented trade: on a default server a ping from another
        connection is answered after the running dispatch; a server
        keeping a request_timeout answers it meanwhile."""
        backend = ProbeBackend(delay=0.2)
        with ThreadedWireServer(
            backend, request_timeout=request_timeout
        ) as server:
            with WireClient(*server.address) as busy, WireClient(
                *server.address
            ) as other:
                ticket = busy.submit_request(CloseSessionRequest(session_id=1))
                assert backend.started.wait(5.0)
                assert other.control("ping") == {"ok": True}
                finished_at, ponged_at = backend.finished_at, time.monotonic()
                ticket.result()
        if request_timeout is None:
            assert finished_at is not None and finished_at <= ponged_at
        else:
            assert finished_at is None  # overtook the dispatch


class TestDrain:
    def _no_pending_task_log(self, caplog):
        gc.collect()  # "Task was destroyed ..." is logged from __del__
        assert not [
            r for r in caplog.records if "was destroyed" in r.getMessage()
        ]

    def test_frame_arriving_during_the_drain_is_refused(self, caplog):
        """Executor mode, so the loop is free while request 1 runs:
        request 2 lands on the connection the drain holds open for
        request 1 — answered ``shutting_down``, never dispatched."""
        backend = ProbeBackend(delay=0.4)
        server = ThreadedWireServer(backend, request_timeout=30.0)
        with caplog.at_level(logging.INFO):
            server.start()
            with WireClient(*server.address) as a, WireClient(
                *server.address
            ) as b:
                first = a.submit_request(CloseSessionRequest(session_id=1))
                assert backend.started.wait(5.0)
                assert b.control("shutdown") == {"ok": True}
                second = a.submit_request(CloseSessionRequest(session_id=2))
                assert first.result() == CloseSessionResponse(session_id=1)
                with pytest.raises(ConnectionError, match="shutting down"):
                    second.result()
            server.stop()
            assert backend.served == [1]
            self._no_pending_task_log(caplog)
        messages = [
            (r.levelname, r.getMessage())
            for r in caplog.records
            if r.name == "repro.transport"
        ]
        levels = [level for level, _ in messages]
        text = "\n".join(message for _, message in messages)
        assert "dispatch=executor, timeout=30.0s" in text
        assert text.index("drain begins") < text.index("drain ends")
        assert levels.count("WARNING") == 1  # the refused frame, once

    def test_late_frame_on_an_idle_connection_is_never_dispatched(
        self, caplog
    ):
        """The inline twin: nothing is in flight once the loop gets to
        the shutdown, so every connection is idle and closes as the
        drain begins; the late frame meets a closed door."""
        backend = ProbeBackend()
        server = ThreadedWireServer(backend)
        server.start()
        with WireClient(*server.address) as a, WireClient(
            *server.address
        ) as b:
            assert a.control("ping") == {"ok": True}
            assert b.control("shutdown") == {"ok": True}
            with pytest.raises(ConnectionError):
                a.call(CloseSessionRequest(session_id=2))
        server.stop()
        assert backend.served == []
        self._no_pending_task_log(caplog)

    def test_stop_racing_the_exit_path_leaves_nothing_on_the_loop(
        self, monkeypatch
    ):
        """The ``shutdown`` op ended serving; ``stop()`` runs while the
        serve thread is held in its exit path with the loop still open.
        Nothing may be scheduled onto that loop — no coroutine dropped
        unawaited, no future that will never resolve."""
        server = ThreadedWireServer(ProbeBackend())
        server.start()
        loop, thread = server._loop, server._thread
        in_exit_path, release = threading.Event(), threading.Event()
        close, join = loop.close, thread.join

        def held_close():
            in_exit_path.set()
            release.wait()
            close()

        def join_releasing(timeout=None):
            release.set()  # stop() got as far as waiting for the thread
            join(timeout)

        loop.close, thread.join = held_close, join_releasing
        with WireClient(*server.address) as client:
            assert client.control("shutdown") == {"ok": True}
        assert in_exit_path.wait(10.0)

        scheduled = []
        call_soon_threadsafe = loop.call_soon_threadsafe

        def spy(callback, *args, **kwargs):
            scheduled.append(callback)
            return call_soon_threadsafe(callback, *args, **kwargs)

        loop.call_soon_threadsafe = spy
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            server.stop()
            gc.collect()  # an unawaited coroutine warns from __del__
        assert scheduled == []
        assert loop.is_closed() and not thread.is_alive()
        assert unraisable == []


# ----------------------------------------------------------------------
# The async client multiplexes one connection
# ----------------------------------------------------------------------


class TestAsyncWireClient:
    def test_concurrent_requests_multiplex_correctly(self, served, rng):
        server, _ = served
        points = [SMALL_WORLD.sample(rng) for _ in range(2)]

        async def drive():
            client = AsyncWireClient()
            await client.connect(*server.address)
            try:
                opened = await client.call(_open_request(points))
                sid = opened.session_id
                pings, report = await asyncio.gather(
                    asyncio.gather(
                        *(client.control("ping") for _ in range(16))
                    ),
                    client.call(
                        ReportRequest(
                            session_id=sid,
                            member_id=0,
                            state=MemberState(SMALL_WORLD.sample(rng)),
                        )
                    ),
                )
                await client.call(CloseSessionRequest(sid))
                return pings, report
            finally:
                await client.close()

        pings, report = asyncio.run(drive())
        assert all(p == {"ok": True} for p in pings)
        assert report.session_id is not None

    def test_connection_loss_fails_pending_futures(self):
        with ThreadedWireServer(SlowBackend(0.5)) as server:

            async def drive():
                client = AsyncWireClient()
                await client.connect(*server.address)
                pending = asyncio.ensure_future(
                    client.call(CloseSessionRequest(session_id=1))
                )
                await asyncio.sleep(0.05)
                client._writer.close()
                with pytest.raises((ConnectionClosed, ConnectionError)):
                    await pending
                await client.close()

            asyncio.run(drive())


def test_space_factories_are_picklable_and_deterministic():
    """The replicas-by-construction contract ProcessCluster relies on."""
    import pickle

    factory = pickle.loads(pickle.dumps(FACTORY))
    a, b = factory(), FACTORY()
    assert isinstance(a, Space)
    probe = Point(123.0, 456.0)
    assert a.poi_count() == b.poi_count()
    assert a.gnn([probe]) == b.gnn([probe])


# ----------------------------------------------------------------------
# Lifecycle: idempotent close everywhere, worker exits surfaced,
# session migration over the wire, burn-free numbering through errors.
# ----------------------------------------------------------------------


class TestLifecycle:
    def test_wire_client_double_close_is_idempotent(self, served):
        server, _ = served
        client = WireClient(*server.address)
        assert client.control("ping") == {"ok": True}
        assert not client.closed
        client.close()
        assert client.closed
        client.close()  # second close: a no-op, not an error
        assert client.closed

    def test_async_wire_client_double_close_is_idempotent(self, served):
        server, _ = served

        async def drive():
            client = AsyncWireClient()
            await client.connect(*server.address)
            assert await client.control("ping") == {"ok": True}
            await client.close()
            await client.close()

        asyncio.run(drive())

    def test_failed_open_burns_no_id_over_the_wire(self, served, rng):
        """The numbering contract crosses the wire: a rejected open —
        validation or unknown strategy — consumes nothing server-side."""
        from repro.simulation.policies import custom_policy

        server, _ = served
        with RemoteBackend(*server.address, space=FACTORY()) as remote:
            with pytest.raises(KeyError):
                remote.open_session(
                    [SMALL_WORLD.sample(rng)], custom_policy("nope", "no-such")
                )
            with pytest.raises(ValueError, match="at least one member"):
                remote.open_session([], circle_policy())
            handle = remote.open_session([SMALL_WORLD.sample(rng)], circle_policy())
            assert handle.session_id == 0

    def test_handoff_session_migrates_between_servers(self, rng):
        """export -> import across two live servers: the session keeps
        answering on the target exactly where the source left off."""
        twin = MPNService(share_space(FACTORY()))
        a = MPNService(share_space(FACTORY()))
        b = MPNService(share_space(FACTORY()))
        with ThreadedWireServer(a) as sa, ThreadedWireServer(b) as sb:
            ra = RemoteBackend(*sa.address, space=FACTORY())
            rb = RemoteBackend(*sb.address, space=FACTORY())
            try:
                points = [SMALL_WORLD.sample(rng) for _ in range(3)]
                h_twin = twin.open_session(points, circle_policy())
                h_wire = ra.open_session(points, circle_policy())
                assert h_twin.session_id == h_wire.session_id
                sid = h_wire.session_id
                step = SMALL_WORLD.sample(rng)
                n_twin = twin.report(sid, 0, step)
                n_wire = ra.report(sid, 0, step)
                assert (n_twin is None) == (n_wire is None)

                snapshot = ra.handoff_session(sid, rb)
                assert snapshot.session_id == sid
                assert ra.session_ids() == [] and rb.session_ids() == [sid]
                # migration charged nothing
                assert b.session_metrics(sid).update_events == (
                    twin.session_metrics(sid).update_events
                )
                # ... and the session answers on the target bit-for-bit
                for _ in range(4):
                    escape = SMALL_WORLD.sample(rng)
                    want = twin.report(sid, 1, escape)
                    got = rb.report(sid, 1, escape)
                    assert (want is None) == (got is None)
                    if want is not None:
                        assert want.po == got.po
                        assert len(want.regions) == len(got.regions)
            finally:
                ra.close()
                rb.close()

    def test_process_cluster_double_close_is_idempotent(self, caplog):
        with caplog.at_level(logging.INFO, logger="repro.transport"):
            cluster = ProcessCluster(2, FACTORY)
            cluster.close()
            cluster.close()
        assert cluster.worker_exitcodes() == [0, 0]
        # ...and the workers' lives are on the record, once each.
        for shard_id in (0, 1):
            for event in ("spawned", "ready on 127.0.0.1", "exited with code 0"):
                assert caplog.text.count(f"worker {shard_id} {event}") == 1

    def test_killed_worker_surfaces_on_close(self):
        """The regression: a worker that died (or hangs) no longer
        vanishes silently — close() reports it, with exit codes."""
        from repro.transport import WorkerShutdownError

        cluster = ProcessCluster(2, FACTORY)
        victim = cluster._processes[0]
        victim.kill()
        victim.join(timeout=10)
        with pytest.raises(WorkerShutdownError) as err:
            cluster.close()
        assert 0 in err.value.exitcodes
        assert err.value.exitcodes[0] not in (0, None)
        assert "exit code" in str(err.value)
        cluster.close()  # still idempotent after the report
        codes = cluster.worker_exitcodes()
        assert codes[0] not in (0, None) and codes[1] == 0

    def test_context_manager_does_not_mask_inflight_errors(self):
        """__exit__ reports shutdown failures only on the clean path."""
        with pytest.raises(RuntimeError, match="the real problem"):
            with ProcessCluster(2, FACTORY) as cluster:
                cluster._processes[1].kill()
                cluster._processes[1].join(timeout=10)
                raise RuntimeError("the real problem")
        assert cluster.worker_exitcodes()[1] not in (0, None)


# ----------------------------------------------------------------------
# Oracle stats over the wire
# ----------------------------------------------------------------------


class TestOracleStatsRoundTrip:
    def test_remote_backend_reads_oracle_counters(self):
        """The distance oracle's counters ride the `stats` control op:
        served from the live index, JSON over TCP, per-space keys."""
        from repro.index.oracle import OracleConfig
        from repro.network_ext.space import NetworkSpace
        from repro.simulation import net_circle_policy
        from repro.space.network import NetworkPOISpace

        net_space = NetworkSpace.from_grid(grid_size=5, seed=23)
        import random as _random

        pois = _random.Random(3).sample(list(net_space.graph.nodes), 8)
        poi_space = NetworkPOISpace(
            net_space,
            pois,
            oracle_config=OracleConfig(
                landmarks=4, alt_mode="on", bounded_mode="on"
            ),
        )
        service = MPNService(poi_space)
        rng = _random.Random(6)
        with ThreadedWireServer(service) as server:
            # The local mirror lets the client decode net_ball regions.
            backend = RemoteBackend(*server.address, space=poi_space)
            try:
                handle = backend.open_session(
                    [net_space.random_position(rng) for _ in range(3)],
                    net_circle_policy(),
                )
                remote = backend.oracle_stats()
                assert set(remote) == {"default"}
                stats = remote["default"]
                assert stats == poi_space.index.oracle.stats()
                assert stats["rows_computed"] > 0
                assert stats["landmarks"] == 4
                # Counters move with traffic and the next read sees it.
                backend.report(
                    handle.session_id,
                    0,
                    net_space.random_position(rng),
                )
                after = backend.oracle_stats()["default"]
                assert after == poi_space.index.oracle.stats()
            finally:
                backend.close()

    def test_euclidean_only_service_reports_empty(self, served):
        _, _ = served
        backend = RemoteBackend(*served[0].address)
        try:
            assert backend.oracle_stats() == {}
        finally:
            backend.close()
