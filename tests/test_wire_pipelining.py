"""The wire client's one pipelining primitive, and the three ways the
process cluster uses it.

:meth:`WireClient.submit` sends a frame and hands back a
:class:`~repro.transport.client.Ticket`; everything else — sequential
calls, scatter-gather waves and churn, parked close acknowledgements —
is tickets resolved at different moments.  These tests pin what that
must mean at the edges: out-of-order resolution, an error in the middle
of a pipeline, a lost connection, a burst of parked closes against the
server's in-flight bound, a worker failing mid-wave, and shutdown with
acknowledgements still unread.
"""

from __future__ import annotations

import random
import socket
import threading
from dataclasses import dataclass

import pytest

from repro.geometry.point import Point
from repro.service import (
    CloseSessionRequest,
    CloseSessionResponse,
    MemberState,
    MPNService,
    OpenSessionRequest,
    ReportEvent,
    UnknownSessionError,
)
from repro.service.strategies import CircleMSRStrategy, register_strategy
from repro.simulation.policies import circle_policy, custom_policy
from repro.transport import (
    DEFAULT_MAX_INFLIGHT,
    ConnectionClosed,
    ProcessCluster,
    RemoteBackend,
    ThreadedWireServer,
    UniformPoiSpaceFactory,
    WireClient,
)
from tests.conftest import SMALL_WORLD

FACTORY = UniformPoiSpaceFactory(n_pois=350, seed=11)


@pytest.fixture
def served():
    service = MPNService(FACTORY())
    with ThreadedWireServer(service) as server:
        yield server, service


def _open_request(rng) -> OpenSessionRequest:
    return OpenSessionRequest(
        members=tuple(MemberState(SMALL_WORLD.sample(rng)) for _ in range(2)),
        policy=circle_policy(),
    )


class TestTickets:
    def test_out_of_order_resolution_keeps_replies_apart(self, served, rng):
        server, service = served
        with WireClient(*server.address) as client:
            ids = [client.call(_open_request(rng)).session_id for _ in range(4)]
            tickets = [
                client.submit_request(CloseSessionRequest(sid)) for sid in ids
            ]
            ping = client.submit({"control": {"op": "ping"}})
            listing = client.submit({"control": {"op": "session_ids"}})
            # Last first: resolving one ticket reads (and keeps) the
            # replies queued ahead of it.
            assert listing.result() == []
            assert ping.result() == {"ok": True}
            for sid, ticket in reversed(list(zip(ids, tickets))):
                assert ticket.result() == CloseSessionResponse(session_id=sid)
            assert tickets[0].result() == tickets[0].result()  # re-readable
            assert service.session_ids() == []

    def test_error_mid_pipeline_raises_on_its_own_ticket(self, served, rng):
        server, _ = served
        with WireClient(*server.address) as client:
            sid = client.call(_open_request(rng)).session_id
            first = client.submit_request(CloseSessionRequest(sid))
            bad = client.submit_request(CloseSessionRequest(sid))  # now unknown
            unknown_op = client.submit({"control": {"op": "warp_drive"}})
            last = client.submit({"control": {"op": "ping"}})
            assert last.result() == {"ok": True}
            assert first.result() == CloseSessionResponse(session_id=sid)
            with pytest.raises(UnknownSessionError):
                bad.result()
            assert bad.envelope().code == "unknown_session"  # not raised
            with pytest.raises(ValueError, match="unknown control op"):
                unknown_op.result()
            assert client.control("ping") == {"ok": True}

    def test_connection_loss_fails_every_outstanding_ticket(self):
        listener = socket.create_server(("127.0.0.1", 0))
        submitted = threading.Event()
        hung_up = threading.Event()

        def accept_then_hang_up():
            conn, _ = listener.accept()
            submitted.wait(10.0)  # take every frame, answer none
            conn.close()
            hung_up.set()

        thread = threading.Thread(target=accept_then_hang_up, daemon=True)
        thread.start()
        try:
            client = WireClient(*listener.getsockname(), timeout=10.0)
            tickets = [
                client.submit({"control": {"op": "ping"}}) for _ in range(3)
            ]
            submitted.set()
            assert hung_up.wait(10.0)
            for ticket in reversed(tickets):
                with pytest.raises(ConnectionClosed):
                    ticket.result()
            client.close()
        finally:
            thread.join(10.0)
            listener.close()
        assert not thread.is_alive()

    def test_parked_failure_surfaces_on_the_next_call(self, served, rng):
        """An ack nobody waited for still gets read — and a failed one
        raises on whichever call reads it, after that call's own reply
        is off the wire (the connection stays in step)."""
        server, service = served
        with WireClient(*server.address) as client:
            sid = client.call(_open_request(rng)).session_id
            client.submit_request(CloseSessionRequest(sid)).park()
            client.submit_request(CloseSessionRequest(sid)).park()  # fails
            with pytest.raises(UnknownSessionError):
                client.control("ping")
            assert client.control("ping") == {"ok": True}
            assert service.session_ids() == []


class TestParkedCloses:
    def test_close_burst_stays_under_the_inflight_bound(self, rng):
        n = 3 * DEFAULT_MAX_INFLIGHT
        with ProcessCluster(2, FACTORY) as cluster:
            ids = []
            while len(ids) < n:
                handle = cluster.open_session(
                    [SMALL_WORLD.sample(rng) for _ in range(2)],
                    circle_policy(),
                )
                if cluster.shard_for(handle.session_id) == 0:
                    ids.append(handle.session_id)
            shard = cluster.shard(0)
            for sid in ids:
                cluster.close_session(sid)  # back to back, no waiting
                assert not shard.owns_session(sid)
            assert not set(ids) & set(shard.session_ids())
            assert not set(ids) & set(cluster.session_ids())
            stats = cluster.server_stats()
            assert [s["backpressure_waits"] for s in stats] == [0, 0]
            assert stats[0]["max_inflight"] == DEFAULT_MAX_INFLIGHT
            # Closed is closed: a second close is unknown, at once.
            with pytest.raises(UnknownSessionError):
                cluster.close_session(ids[0])
        assert cluster.worker_exitcodes() == [0, 0]

    def test_unregistered_id_is_the_servers_to_judge(self, served, rng):
        """A session another client opened is closed synchronously; an
        id nobody opened raises at once — both as before parking."""
        server, service = served
        with RemoteBackend(*server.address) as opener:
            sid = opener.open_session(
                [SMALL_WORLD.sample(rng) for _ in range(2)], circle_policy()
            ).session_id
            with RemoteBackend(*server.address) as other:
                other.close_session(sid)
                assert service.session_ids() == []
                with pytest.raises(UnknownSessionError):
                    other.close_session(sid)

    def test_cluster_close_drains_parked_acks(self, rng):
        cluster = ProcessCluster(2, FACTORY)
        ids = [
            cluster.open_session(
                [SMALL_WORLD.sample(rng) for _ in range(2)], circle_policy()
            ).session_id
            for _ in range(12)
        ]
        assert {cluster.shard_for(sid) for sid in ids} == {0, 1}
        for sid in ids:
            cluster.close_session(sid)
        # Straight to shutdown, acks unread on both connections.
        cluster.close()
        assert cluster.worker_exitcodes() == [0, 0]

    def test_cluster_close_raises_a_failed_parked_ack(self, rng):
        """Shutdown is a connection's last read, so a close that failed
        server-side after its ack was parked surfaces there — once
        every worker has drained."""
        cluster = ProcessCluster(2, FACTORY)
        sid = cluster.open_session(
            [SMALL_WORLD.sample(rng) for _ in range(2)], circle_policy()
        ).session_id
        client = cluster.shard(cluster.shard_for(sid)).client
        with RemoteBackend(client.host, client.port) as behind_the_back:
            behind_the_back.close_session(sid)
        cluster.close_session(sid)  # parked; the worker will refuse it
        with pytest.raises(UnknownSessionError):
            cluster.close()
        assert cluster.worker_exitcodes() == [0, 0]
        cluster.close()  # idempotent after the report


class FuseStrategy(CircleMSRStrategy):
    """Circle-MSR that serves a session's first result and fails after."""

    def __init__(self, policy):
        super().__init__(policy)
        self.blown = False

    def compute(self, users, tree, headings=None, thetas=None):
        if self.blown:
            raise RuntimeError("fuse blown")
        self.blown = True
        return super().compute(users, tree, headings, thetas)

    def batch_key(self):
        return None  # always the scalar path


@dataclass(frozen=True)
class FuseWorkerFactory:
    """A space factory that registers ``fuse`` wherever it is called —
    which is how a test strategy reaches a spawned worker's registry."""

    inner: UniformPoiSpaceFactory = FACTORY

    def __call__(self):
        register_strategy("fuse", FuseStrategy, replace=True)
        return self.inner()


class TestWaveFailure:
    def test_strategy_error_on_one_shard_leaves_the_other_usable(self):
        rng = random.Random(21)
        with ProcessCluster(2, FuseWorkerFactory()) as cluster:
            ids = [
                cluster.open_session(
                    [SMALL_WORLD.sample(rng) for _ in range(2)],
                    circle_policy(),
                ).session_id
                for _ in range(8)
            ]
            start = SMALL_WORLD.sample(rng)
            fused = cluster.open_session(
                [start, SMALL_WORLD.sample(rng)], custom_policy("fuse", "fuse")
            ).session_id
            # The far corner of the world: outside any safe circle.
            escape = Point(
                0.0 if start.x > 500.0 else 1000.0,
                0.0 if start.y > 500.0 else 1000.0,
            )
            assert {cluster.shard_for(sid) for sid in ids} == {0, 1}

            def wave(session_ids):
                return [
                    ReportEvent(sid, 0, MemberState(SMALL_WORLD.sample(rng)))
                    for sid in session_ids
                ]

            with pytest.raises(RuntimeError, match="fuse blown"):
                cluster.report_many(
                    wave(ids) + [ReportEvent(fused, 0, MemberState(escape))]
                )
            # Both replies were read before the error was raised, so
            # both connections are in step: the next wave is served by
            # both workers, and control reads answer.
            served = [s["requests_served"] for s in cluster.server_stats()]
            answers = cluster.report_many(wave(ids))
            assert len(answers) == len(ids)
            assert any(n is not None for n in answers)
            after = [s["requests_served"] for s in cluster.server_stats()]
            assert after == [n + 2 for n in served]  # stats read + wave, each
        assert cluster.worker_exitcodes() == [0, 0]
