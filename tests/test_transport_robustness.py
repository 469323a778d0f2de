"""Socket-level robustness: the wire server under hostile input.

Each test abuses a raw socket — partial frames, oversized frames, junk
bytes, wrong schema versions, mid-request disconnects — and then
proves two things: the abused connection got the documented answer
(a clean :class:`~repro.service.api.ErrorResponse` or a clean close),
and the *server* survived — a well-behaved sibling session keeps
getting correct answers and a fresh client can still connect.
"""

from __future__ import annotations

import socket
import struct
import time

import pytest

from repro.geometry.point import Point
from repro.service import (
    SCHEMA_VERSION,
    CloseSessionRequest,
    ErrorResponse,
    MemberState,
    MPNService,
    OpenSessionRequest,
    ReportRequest,
)
from repro.simulation.policies import circle_policy
from repro.transport import (
    ConnectionClosed,
    RemoteBackend,
    SyncFrameStream,
    ThreadedWireServer,
    UniformPoiSpaceFactory,
    connect_stream,
    encode_frame,
)
from tests.conftest import SMALL_WORLD

FACTORY = UniformPoiSpaceFactory(n_pois=200, seed=5)

SERVER_MAX_FRAME = 64 * 1024


@pytest.fixture()
def served():
    service = MPNService(FACTORY())
    with ThreadedWireServer(service, max_frame_bytes=SERVER_MAX_FRAME) as server:
        yield server, service


@pytest.fixture()
def sibling(served, rng):
    """A well-behaved session that must survive every abuse untouched."""
    server, service = served
    backend = RemoteBackend(*server.address, space=FACTORY())
    handle = backend.open_session(
        [SMALL_WORLD.sample(rng) for _ in range(2)], circle_policy()
    )

    def still_healthy():
        notification = backend.report(
            handle.session_id, 0, SMALL_WORLD.sample(rng)
        )
        assert notification is not None
        assert notification.session_id == handle.session_id
        twin = service.session(handle.session_id)
        assert twin.members[0].point == notification.regions[0].center

    yield still_healthy
    backend.close()


def _raw(server) -> socket.socket:
    sock = socket.create_connection(server.address, timeout=5.0)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def _error_frame(stream: SyncFrameStream) -> tuple[object, ErrorResponse]:
    reply = stream.recv()
    assert isinstance(reply, dict) and "response" in reply, reply
    return reply.get("id"), ErrorResponse.from_dict(reply["response"])


class TestHostileFrames:
    def test_partial_header_then_disconnect(self, served, sibling):
        server, _ = served
        sock = _raw(server)
        sock.sendall(b"\x00\x00")  # 2 of 4 header bytes
        sock.close()
        sibling()

    def test_partial_body_then_disconnect(self, served, sibling):
        server, _ = served
        sock = _raw(server)
        sock.sendall(struct.pack(">I", 500) + b"only a few bytes")
        sock.close()
        sibling()

    def test_oversized_frame_gets_error_then_close(self, served, sibling):
        server, _ = served
        stream = SyncFrameStream(_raw(server), max_frame_bytes=2**26)
        stream.send({"id": 9, "blob": "x" * (SERVER_MAX_FRAME + 1)})
        frame_id, error = _error_frame(stream)
        # Unattributable (the body was never read) -> id null, then the
        # connection must close: there is no way to resync the stream.
        assert frame_id is None
        assert error.code == "frame_too_large"
        with pytest.raises(ConnectionClosed):
            stream.recv()
        stream.close()
        sibling()

    def test_junk_json_body_reports_and_keeps_reading(self, served, sibling):
        server, _ = served
        sock = _raw(server)
        stream = SyncFrameStream(sock)
        body = b"{this is not json"
        sock.sendall(struct.pack(">I", len(body)) + body)
        frame_id, error = _error_frame(stream)
        assert frame_id is None
        assert error.code == "malformed_envelope"
        # Framing stayed intact: the same connection still works.
        stream.send({"id": 1, "control": {"op": "ping"}})
        reply = stream.recv()
        assert reply == {"id": 1, "result": {"ok": True}}
        stream.close()
        sibling()

    def test_non_object_frame_is_malformed(self, served, sibling):
        server, _ = served
        stream = SyncFrameStream(_raw(server))
        stream.send([1, 2, 3])
        frame_id, error = _error_frame(stream)
        assert frame_id is None
        assert error.code == "malformed_envelope"
        stream.send({"id": 4, "control": {"op": "ping"}})
        assert stream.recv()["result"] == {"ok": True}
        stream.close()
        sibling()

    def test_frame_without_request_or_control(self, served, sibling):
        server, _ = served
        stream = SyncFrameStream(_raw(server))
        stream.send({"id": 5})
        frame_id, error = _error_frame(stream)
        assert frame_id == 5
        assert error.code == "invalid_request"
        stream.close()
        sibling()

    def test_wrong_schema_version_is_a_typed_error(self, served, sibling):
        server, _ = served
        stream = SyncFrameStream(_raw(server))
        envelope = CloseSessionRequest(session_id=0).to_dict()
        envelope["v"] = SCHEMA_VERSION + 7
        stream.send({"id": 11, "request": envelope})
        frame_id, error = _error_frame(stream)
        assert frame_id == 11
        assert error.code == "schema_version"
        assert error.details["version"] == SCHEMA_VERSION + 7
        assert error.details["supported"] == SCHEMA_VERSION
        # Recoverable: same connection, correct version, real answer.
        stream.send(
            {"id": 12, "request": CloseSessionRequest(session_id=99).to_dict()}
        )
        reply = stream.recv()
        assert reply["id"] == 12
        assert reply["response"]["op"] == "error"  # unknown session 99
        assert reply["response"]["code"] == "unknown_session"
        stream.close()
        sibling()

    def test_malformed_request_envelope(self, served, sibling):
        server, _ = served
        stream = SyncFrameStream(_raw(server))
        stream.send({"id": 2, "request": {"op": "no_such_op", "v": SCHEMA_VERSION}})
        frame_id, error = _error_frame(stream)
        assert frame_id == 2
        assert error.code == "malformed_envelope"
        stream.close()
        sibling()

    def test_float_session_id_is_malformed_not_truncated(self, served, sibling, rng):
        """``session_id`` 2.9 must not close session 2 (``int(2.9)``)."""
        server, service = served
        while 2 not in service.session_ids():
            service.open_session(
                [SMALL_WORLD.sample(rng) for _ in range(2)], circle_policy()
            )
        stream = SyncFrameStream(_raw(server))
        stream.send(
            {
                "id": 21,
                "request": {"op": "close_session", "v": SCHEMA_VERSION, "session_id": 2.9},
            }
        )
        frame_id, error = _error_frame(stream)
        assert frame_id == 21
        assert error.code == "malformed_envelope"
        assert 2 in service.session_ids()
        stream.close()
        sibling()

    def test_hostile_churn_mutates_nothing(self, served, sibling):
        """A dict payload or a list ``space`` is malformed before any
        POI is inserted."""
        server, service = served
        before = service.space.poi_count()
        position = {"space": "euclidean", "x": 5.0, "y": 5.0}
        stream = SyncFrameStream(_raw(server))
        for frame_id, extra in (
            (31, {"adds": [{"position": position, "payload": {"k": [1]}}]}),
            (32, {"adds": [{"position": position, "payload": None}], "space": ["x"]}),
        ):
            envelope = {"op": "update_pois", "v": SCHEMA_VERSION, "removes": [], **extra}
            stream.send({"id": frame_id, "request": envelope})
            got_id, error = _error_frame(stream)
            assert got_id == frame_id
            assert error.code == "malformed_envelope"
        assert service.space.poi_count() == before
        stream.close()
        sibling()

    def test_disconnect_with_request_in_flight(self, served, sibling, rng):
        """The client dies after sending; the server must finish the
        dispatch, swallow the failed write and move on."""
        server, service = served
        before = set(service.session_ids())
        stream = SyncFrameStream(_raw(server))
        request = OpenSessionRequest(
            members=(MemberState(SMALL_WORLD.sample(rng)),),
            policy=circle_policy(),
        )
        stream.send({"id": 1, "request": request.to_dict()})
        stream.close()  # gone before the reply can be written
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if set(service.session_ids()) - before:
                break
            time.sleep(0.01)
        # The dispatch completed server-side even though nobody heard.
        assert set(service.session_ids()) - before
        sibling()

    def test_oversized_response_is_an_internal_error(self, rng):
        """A response the server itself cannot frame comes back as an
        ``internal`` error on the request's id; the connection lives."""

        class BloatedBackend:
            def dispatch(self, request):
                from repro.service import UpdatePolicyResponse

                return UpdatePolicyResponse(session_id=10**400)

            def session_ids(self):
                return []

        with ThreadedWireServer(
            BloatedBackend(), max_frame_bytes=256
        ) as server:
            stream = connect_stream(*server.address, max_frame_bytes=2**20)
            try:
                stream.send(
                    {
                        "id": 3,
                        "request": CloseSessionRequest(session_id=1).to_dict(),
                    }
                )
                reply = stream.recv()
                assert reply["id"] == 3
                assert reply["response"]["code"] == "internal"
                # Connection intact: a ping still answers.
                stream.send({"id": 4, "control": {"op": "ping"}})
                assert stream.recv()["result"] == {"ok": True}
            finally:
                stream.close()

    def test_bad_ids_are_not_trusted(self, served, sibling):
        """A non-integer id is answered with id null, not echoed back."""
        server, _ = served
        stream = SyncFrameStream(_raw(server))
        stream.send({"id": {"nested": "object"}, "control": {"op": "ping"}})
        reply = stream.recv()
        assert reply["id"] is None
        assert reply["result"] == {"ok": True}
        stream.close()
        sibling()

    def test_abuse_volley_never_wedges_the_server(self, served, sibling, rng):
        """Everything at once, then a full healthy session lifecycle."""
        server, _ = served
        # partial header
        sock = _raw(server)
        sock.sendall(b"\x00")
        sock.close()
        # junk body + disconnect
        sock = _raw(server)
        sock.sendall(struct.pack(">I", 4) + b"????")
        sock.close()
        # oversized
        sock = _raw(server)
        sock.sendall(
            encode_frame({"id": 1, "blob": "y" * (SERVER_MAX_FRAME + 1)}, 2**26)
        )
        sock.close()
        sibling()
        backend = RemoteBackend(*server.address, space=FACTORY())
        try:
            handle = backend.open_session(
                [SMALL_WORLD.sample(rng) for _ in range(2)], circle_policy()
            )
            assert (
                backend.report(handle.session_id, 0, SMALL_WORLD.sample(rng))
                is not None
            )
            backend.close_session(handle.session_id)
        finally:
            backend.close()

    def test_dispatch_error_returns_envelope_not_disconnect(self, served, sibling):
        server, _ = served
        stream = SyncFrameStream(_raw(server))
        request = ReportRequest(
            session_id=12345, member_id=0, state=MemberState(Point(0.0, 0.0))
        )
        stream.send({"id": 8, "request": request.to_dict()})
        reply = stream.recv()
        assert reply["id"] == 8
        assert reply["response"]["op"] == "error"
        assert reply["response"]["code"] == "unknown_session"
        stream.close()
        sibling()
