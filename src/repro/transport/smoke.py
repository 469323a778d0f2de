"""``python -m repro.transport.smoke`` — the CI transport smoke check.

End-to-end, across a real process boundary:

1. start ``python -m repro.transport.serve`` as a subprocess on an
   OS-assigned port and parse the bound address from its stdout;
2. drive one round-trip through **every** request op — open_session,
   report, report_many, update_locations, update_policy, update_pois,
   close_session — plus the control surface (ping / stats / metrics);
3. send five hostile raw frames — a float ``session_id``, a list
   ``space``, a dict POI payload and a policy with an undeclared key,
   each of which must come back as ``malformed_envelope``, and a
   ``"v": 2`` envelope, which must come back as ``schema_version`` —
   while the session stays open and the server keeps serving;
4. trigger one :class:`~repro.service.api.ErrorResponse` (a report
   against the just-closed session must come back as an
   ``unknown_session`` envelope, not a dead connection);
5. send the ``shutdown`` control op and assert the server drains and
   exits **0**.

Any assertion failure or non-zero server exit makes this script exit
non-zero, which fails the CI job.  Runs in a couple of seconds; it is
a liveness check for the wire stack, not a benchmark.
"""

from __future__ import annotations

import subprocess
import sys

from repro.geometry.point import Point
from repro.service.api import SCHEMA_VERSION, ErrorResponse, ReportRequest, encode_policy
from repro.service.messages import MemberState, ReportEvent
from repro.simulation.policies import circle_policy
from repro.transport.client import RemoteBackend
from repro.transport.framing import connect_stream


def _start_server() -> tuple[subprocess.Popen, str, int]:
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.transport.serve",
            "--port",
            "0",
            "--pois",
            "150",
        ],
        stdout=subprocess.PIPE,
        text=True,
    )
    line = process.stdout.readline().strip()
    if not line.startswith("listening on "):
        process.kill()
        raise RuntimeError(f"unexpected server banner: {line!r}")
    host, _, port = line.removeprefix("listening on ").rpartition(":")
    return process, host, int(port)


def _hostile_frames(host: str, port: int, session_id: int) -> None:
    """Envelopes the encoder never emits must be refused, not served:
    a float id would otherwise address ``int(id)``, a list ``space``
    crash as ``internal``, a dict payload reach the index and a stray
    policy key be dropped; a v2 envelope is a schema no longer spoken."""
    poi = {"position": {"space": "euclidean", "x": 310.0, "y": 305.0}, "payload": {"k": [1]}}
    policy = {**encode_policy(circle_policy()), "bogus": 1}
    close = {"op": "close_session", "session_id": session_id}
    bad = "malformed_envelope"
    frames = [
        ("float session_id", {**close, "session_id": session_id + 0.9}, bad),
        ("list space", {"op": "update_pois", "space": ["x"]}, bad),
        ("dict payload", {"op": "update_pois", "adds": [poi]}, bad),
        ("undeclared policy key", {**close, "op": "update_policy", "policy": policy}, bad),
        ("v2 envelope", {**close, "v": 2}, "schema_version"),
    ]
    stream = connect_stream(host, port)
    try:
        for frame_id, (what, envelope, code) in enumerate(frames):
            stream.send(
                {"id": frame_id, "request": {"v": SCHEMA_VERSION, **envelope}}
            )
            reply = stream.recv()
            error = ErrorResponse.from_dict(reply["response"])
            assert reply["id"] == frame_id, reply
            assert error.code == code, (what, error)
            print(f"hostile {what} -> {error.code}")
    finally:
        stream.close()


def main() -> int:
    process, host, port = _start_server()
    try:
        backend = RemoteBackend(host, port, timeout=30.0)
        assert backend.ping()

        policy = circle_policy()
        members = [Point(100.0, 100.0), Point(140.0, 120.0)]
        handle = backend.open_session(members, policy)
        assert handle.size == 2
        assert handle.notification.regions, "registration ships regions"
        print(f"open_session -> session {handle.session_id}")

        notification = backend.report(
            handle.session_id, 0, Point(900.0, 900.0)
        )
        assert notification is not None and notification.cause == "report"
        print(f"report -> po {notification.po}")

        wave = backend.report_many(
            [ReportEvent(handle.session_id, 1, MemberState(Point(880.0, 870.0)))]
        )
        assert len(wave) == 1
        print("report_many -> 1 event served")

        refreshed = backend.update_locations(
            handle.session_id,
            [MemberState(Point(300.0, 300.0)), MemberState(Point(320.0, 310.0))],
        )
        assert refreshed.cause == "refresh"
        print("update_locations -> refreshed")

        backend.update_policy(handle.session_id, circle_policy())
        print("update_policy -> ok")

        churn = backend.update_pois(adds=[(Point(310.0, 305.0), "new-poi")])
        print(f"update_pois -> {len(churn)} re-notification(s)")

        _hostile_frames(host, port, handle.session_id)
        assert backend.ping()
        assert handle.session_id in backend.session_ids()

        metrics = backend.metrics
        assert metrics.messages_up > 0 and metrics.messages_down > 0
        assert backend.session_metrics(handle.session_id).update_events > 0
        stats = backend.server_stats()
        assert stats["sessions"] == 1 and stats["requests_served"] > 0

        backend.close_session(handle.session_id)
        error = backend.dispatch(
            ReportRequest(
                session_id=handle.session_id,
                member_id=0,
                state=MemberState(Point(0.0, 0.0)),
            )
        )
        assert isinstance(error, ErrorResponse), error
        assert error.code == "unknown_session", error
        print(f"error envelope -> {error.code}: {error.message}")

        backend.shutdown_server()
        backend.close()
    except BaseException:
        process.kill()
        raise
    exit_code = process.wait(timeout=30)
    print(f"server exit code: {exit_code}")
    assert exit_code == 0, "graceful drain must exit 0"
    print("transport smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
