"""Wire clients: the blocking driver-side backend and its connection.

:class:`RemoteBackend` is the headline piece — a drop-in
:class:`~repro.service.api.ServiceBackend` whose methods speak TCP
instead of calling into a local service.  It implements the same
convenience surface :func:`repro.simulation.run_service` drives
(``open_session`` / ``report`` / ``report_many`` / ``update_pois`` /
``session_metrics`` / ``metrics`` / ``get_space``), so an existing
fleet driver runs unchanged against a remote server::

    backend = RemoteBackend(host, port, space=local_mirror_space)
    run_service(groups, policies, backend=backend, check_every=5)

Two in-process conveniences need a client-side stand-in:

* **Live regions.**  Responses carry region geometry by value; the
  backend decodes it (:func:`repro.service.regions.decode_region`)
  into live objects, so ``notification.regions[i].contains_point``
  works client-side — the paper's actual client role.
* **Spaces.**  A live space cannot cross the wire, but the driver's
  exactness checks (and network-region decoding) need one.  The
  backend holds local *mirror* spaces — built the same way the
  server's were — and applies every ``update_pois`` batch to the
  mirror too, so ``backend.get_space(...)`` always answers with the
  server's current POI set.

Server-side failures arrive as
:class:`~repro.service.api.ErrorResponse` envelopes and are re-raised
as their original exception types
(:func:`~repro.service.api.raise_error_response`), so
``UnknownSessionError`` et al. behave exactly as in-process.

Pipelining
----------

Underneath sits :class:`WireClient`, whose one primitive is
:meth:`~WireClient.submit`: send a frame, get a :class:`Ticket`, read
the reply when it is wanted (``ticket.result()``).  It rests on two
facts only — :class:`~repro.transport.framing.SyncFrameStream`'s
``send``/``recv``, and the server dispatching one connection's requests
in arrival order — and everything else is tickets resolved at
different moments:

* ``call`` / ``control`` / ``dispatch`` resolve their ticket at once;
* :meth:`RemoteBackend.submit_report_many` /
  :meth:`~RemoteBackend.submit_update_pois` return the function that
  resolves it, so :class:`~repro.transport.worker.ProcessCluster` can
  put one wave (or churn batch) on every worker's connection before
  waiting on any — the workers then compute at the same time;
* :meth:`RemoteBackend.close_session` *parks* its ticket: the
  acknowledgement carries nothing, so nobody waits for it.  Parked
  acks are read, in order, by whichever ticket is resolved next on the
  connection (or by ``close()``); one that turns out to be an error is
  raised there, once that call's own reply is off the wire.  At most
  :data:`~repro.transport.server.DEFAULT_MAX_INFLIGHT` are ever
  parked — reaching the cap reads them all — so a burst of closes
  cannot fill the socket buffers or engage the server's brake.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

from repro.service.api import (
    CloseSessionRequest,
    ErrorResponse,
    NotificationPayload,
    OpenSessionRequest,
    ReportManyRequest,
    ReportRequest,
    Request,
    Response,
    ServiceSnapshot,
    SessionSnapshot,
    UpdateLocationsRequest,
    UpdatePoisRequest,
    UpdatePolicyRequest,
    decode_record,
    raise_error_response,
    response_from_dict,
)
from repro.service.errors import UnknownSessionError
from repro.service.messages import (
    MemberState,
    Notification,
    ReportEvent,
    SessionHandle,
)
from repro.simulation.metrics import SimulationMetrics
from repro.simulation.policies import Policy
from repro.space import Space
from repro.transport.framing import (
    DEFAULT_MAX_FRAME_BYTES,
    ConnectionClosed,
    SyncFrameStream,
    connect_stream,
)
from repro.transport.server import DEFAULT_MAX_INFLIGHT


log = logging.getLogger("repro.transport")


class ControlError(RuntimeError):
    """A control call failed without a typed error envelope."""


def _raise_if_error(outcome):
    """``outcome`` (a response envelope or a control result) unless it
    is an error envelope, which is re-raised as its typed exception."""
    if isinstance(outcome, ErrorResponse):
        raise_error_response(outcome)
    return outcome


class Ticket:
    """The reply still owed to one submitted frame (:meth:`WireClient.submit`).

    Resolving a ticket reads the connection until its own reply — and
    every parked acknowledgement — has arrived; replies that belong to
    other tickets are kept for them, so tickets may be resolved in any
    order.
    """

    __slots__ = ("_client", "_frame_id", "_reply", "_failure")

    def __init__(self, client: "WireClient", frame_id: int):
        self._client = client
        self._frame_id = frame_id
        self._reply: Optional[dict] = None
        self._failure: Optional[BaseException] = None

    def _outcome(self) -> object:
        if self._failure is not None:
            raise self._failure
        reply = self._reply
        if "response" in reply:
            return response_from_dict(reply["response"])
        if "result" in reply:
            return reply["result"]
        raise ControlError(f"reply carries no response or result: {reply!r}")

    def envelope(self) -> object:
        """Block for the reply: a response envelope (possibly an
        :class:`ErrorResponse`, not raised) or a control op's result.
        Connection loss raises :class:`ConnectionClosed`."""
        self._client._gather(self)
        return self._outcome()

    def result(self) -> object:
        """Like :meth:`envelope`, but an error envelope (a failed
        request *or* control op) is re-raised as its typed exception."""
        return _raise_if_error(self.envelope())

    def park(self) -> None:
        """Give up waiting: whoever resolves a ticket on this connection
        next (or ``close()``) reads this reply first and raises *there*
        if it is an error.  For acknowledgements that carry nothing."""
        self._client._park(self)


class WireClient:
    """One blocking connection speaking the frame protocol.

    The one primitive is :meth:`submit`: send a frame now, get a
    :class:`Ticket`, read the reply when it is wanted.  The server
    dispatches one connection's requests in arrival order, so several
    submitted frames queue behind each other on the worker while this
    side does something else — talks to *another* server, usually.
    :meth:`dispatch`, :meth:`call` and :meth:`control` are
    ``submit(...)`` resolved on the spot: the plain sequential client
    for straight-line drivers.  Replies are matched to tickets by frame
    id.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        timeout: Optional[float] = None,
    ):
        self.host = host
        self.port = port
        self._stream: SyncFrameStream = connect_stream(
            host, port, max_frame_bytes, timeout
        )
        self._ids = itertools.count()
        self._closed = False
        self._pending: dict[int, Ticket] = {}  # sent, reply not yet read
        self._parked: list[Ticket] = []  # resolved by the next gather

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Close the connection; safe to call more than once.

        Parked acknowledgements are read first — hanging up on unread
        replies could reset the connection under requests the server
        has not taken yet — and a failed one raises here (the socket
        is closed regardless); a peer that is already gone is not an
        error.
        """
        if self._closed:
            return
        self._closed = True
        try:
            if self._parked:
                self._gather()
        except (ConnectionError, OSError):
            pass
        finally:
            self._stream.close()

    def __enter__(self) -> "WireClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def submit(self, frame: dict) -> Ticket:
        """Send ``frame`` (``{"request": ...}`` or ``{"control": ...}``;
        the id is assigned here) without waiting for the reply."""
        ticket = Ticket(self, next(self._ids))
        self._stream.send({"id": ticket._frame_id, **frame})
        self._pending[ticket._frame_id] = ticket
        return ticket

    def submit_request(self, request: Request) -> Ticket:
        """:meth:`submit` for one request envelope."""
        return self.submit({"request": request.to_dict()})

    def _read_reply(self) -> None:
        """One frame off the wire, handed to the ticket it answers."""
        try:
            reply = self._stream.recv()
        except ConnectionError as exc:
            # Nothing sent on this connection will be answered now.
            for ticket in self._pending.values():
                ticket._failure = ConnectionClosed(
                    f"connection lost with the reply outstanding: {exc}"
                )
            self._pending.clear()
            return
        if not isinstance(reply, dict):
            raise ControlError(f"malformed server frame: {reply!r}")
        if reply.get("id") is None and "response" in reply:
            # A connection-level error frame (oversized/junk input
            # attributed to no request): surface it on whoever is
            # waiting.
            raise_error_response(ErrorResponse.from_dict(reply["response"]))
        ticket = self._pending.pop(reply.get("id"), None)
        if ticket is None:
            raise ControlError(
                f"reply {reply.get('id')!r} answers no outstanding request "
                f"(outstanding: {sorted(self._pending)})"
            )
        ticket._reply = reply

    def _gather(self, ticket: Optional[Ticket] = None) -> None:
        """Read every parked acknowledgement, then ``ticket``'s reply.

        All of them are read before the first failed acknowledgement
        (in submission order) is raised, so an error never strands an
        unread frame on the connection.
        """
        parked, self._parked = self._parked, []
        for waiting in parked if ticket is None else (*parked, ticket):
            while waiting._frame_id in self._pending:
                self._read_reply()
        failure = None
        for ack in parked:
            try:
                _raise_if_error(ack._outcome())
            except Exception as exc:
                failure = failure or exc
        if failure is not None:
            log.warning("a parked acknowledgement failed: %r", failure)
            raise failure

    def _park(self, ticket: Ticket) -> None:
        self._parked.append(ticket)
        # The server stops reading a connection with DEFAULT_MAX_INFLIGHT
        # unanswered requests; staying under it means a burst of parked
        # frames can never back up into the socket buffers.
        if len(self._parked) >= DEFAULT_MAX_INFLIGHT:
            self._gather()

    def dispatch(self, request: Request) -> Response:
        """One envelope over the wire; returns the response envelope
        (which may be an :class:`ErrorResponse` — use :meth:`call` to
        raise instead)."""
        return self.submit_request(request).envelope()

    def call(self, request: Request) -> Response:
        """Like :meth:`dispatch` but re-raises error envelopes."""
        return self.submit_request(request).result()

    def control(self, op: str, **params: object) -> object:
        return self.submit({"control": {"op": op, **params}}).result()


@dataclass
class _RemoteSession:
    """Client-side per-session state a wire backend must keep."""

    size: int
    space: Optional[Space]  # local mirror, for network-region decoding


class RemoteBackend:
    """A ``ServiceBackend`` whose backend lives across a TCP connection.

    See the module docstring.  ``space`` is the local mirror of the
    server's default space (required for ``run_service`` exactness
    checks and for decoding network regions; optional otherwise);
    ``spaces`` maps registered names to their mirrors.  Mirrors receive
    every ``update_pois`` batch this backend sends, so they track the
    server's POI set exactly.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        space: Optional[Space] = None,
        spaces: Optional[dict[str, Space]] = None,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        timeout: Optional[float] = None,
        mirror_updates: bool = True,
    ):
        self.client = WireClient(
            host, port, max_frame_bytes=max_frame_bytes, timeout=timeout
        )
        self._spaces = dict(spaces or {})
        if space is not None:
            self._spaces.setdefault("default", space)
        self._space = self._spaces.get("default")
        # A ProcessCluster front door shares one mirror set across many
        # shard backends and applies each churn batch to it exactly
        # once itself; mirror_updates=False opts this backend out.
        self._mirror_updates = mirror_updates
        self._sessions: dict[int, _RemoteSession] = {}

    # ------------------------------------------------------------------
    # Lifecycle + plumbing
    # ------------------------------------------------------------------

    def close(self) -> None:
        self.client.close()

    def __enter__(self) -> "RemoteBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def ping(self) -> bool:
        return bool(self.client.control("ping").get("ok"))

    def server_stats(self) -> dict:
        return dict(self.client.control("stats"))

    def oracle_stats(self) -> dict:
        """Remote distance-oracle counters, per road-network space.

        The server ships :meth:`MPNService.oracle_stats` inside the
        ``stats`` control reply; backends with no road-network spaces
        report ``{}``.  Being a :class:`ServiceBackend` method here
        too, a :class:`RemoteBackend` fronting a remote server chains
        transparently (e.g. a cluster of wire workers).
        """
        return dict(self.server_stats().get("oracle", {}))

    def shutdown_server(self) -> None:
        """Ask the server to drain and stop (the graceful path)."""
        self.client.control("shutdown")

    def dispatch(self, request: Request) -> Response:
        return self.client.dispatch(request)

    # ------------------------------------------------------------------
    # Local mirror spaces
    # ------------------------------------------------------------------

    @property
    def space(self) -> Space:
        if self._space is None:
            raise ValueError(
                "this RemoteBackend was built without a local mirror of the "
                "server's default space; pass space=... to the constructor"
            )
        return self._space

    def get_space(self, name: str = "default") -> Space:
        if name == "default":
            return self.space
        try:
            return self._spaces[name]
        except KeyError:
            raise ValueError(
                f"no local mirror for space {name!r}; pass spaces={{...}} "
                "to the constructor"
            ) from None

    def space_names(self) -> list[str]:
        return list(self.client.control("space_names"))

    def space_epoch(self, name: str = "default") -> object:
        """The *server-side* epoch of the named (shared) space."""
        return self.client.control("space_epoch", space=name)["epoch"]

    def _mirror_for_ref(self, space: Union[None, str, Space]) -> Optional[Space]:
        # None or a name on every wire path: settle those before the
        # (slow, runtime-checked Protocol) live-space test.
        if space is None:
            return self._spaces.get("default")
        if not isinstance(space, str) and isinstance(space, Space):
            raise ValueError(
                "a live space cannot cross the wire; register it on the "
                "server and reference it by name"
            )
        return self._spaces.get(space)

    # ------------------------------------------------------------------
    # Decoding responses into live objects
    # ------------------------------------------------------------------

    def _notification(
        self, payload: Optional[NotificationPayload], session_id: int
    ) -> Optional[Notification]:
        if payload is None:
            return None
        session = self._sessions.get(session_id)
        space = session.space if session is not None else self._space
        return Notification(
            session_id=payload.session_id,
            po=payload.po,
            regions=payload.live_regions(space=space),
            region_values=payload.region_values,
            cause=payload.cause,
        )

    # ------------------------------------------------------------------
    # The convenience surface (what run_service drives)
    # ------------------------------------------------------------------

    def open_session(
        self,
        members: Sequence[Union[MemberState, object]],
        policy: Policy,
        space: Union[None, str, Space] = None,
        session_id: Optional[int] = None,
    ) -> SessionHandle:
        mirror = self._mirror_for_ref(space)
        states = [
            m if isinstance(m, MemberState) else MemberState(point=m)
            for m in members
        ]
        response = self.client.call(
            OpenSessionRequest(
                members=tuple(states),
                policy=policy,
                space=space,
                session_id=session_id,
            )
        )
        self._sessions[response.session_id] = _RemoteSession(
            size=response.size, space=mirror
        )
        return SessionHandle(
            session_id=response.session_id,
            size=response.size,
            policy=response.policy,
            strategy_name=response.strategy_name,
            notification=self._notification(
                response.notification, response.session_id
            ),
        )

    def close_session(self, session_id: int) -> None:
        """Close a session; for one this backend registered, without
        waiting for the acknowledgement.

        The client-side state goes at once and the ack is parked
        (:meth:`Ticket.park`): the next call on this connection reads
        it, and is where a server-side failure of this close would
        raise.  An id this backend never registered — another client's
        session, or nobody's — is the server's to judge, so that close
        waits for its answer (``UnknownSessionError`` included).
        """
        request = CloseSessionRequest(session_id=session_id)
        if self._sessions.pop(session_id, None) is None:
            self.client.call(request)
        else:
            self.client.submit_request(request).park()

    def owns_session(self, session_id: int) -> bool:
        """Whether this backend registered ``session_id`` (by opening,
        importing or restoring it) and has not closed it — answered
        from the client-side registry, no wire traffic."""
        return session_id in self._sessions

    def session_size(self, session_id: int) -> int:
        """Group size of a session this backend registered, from the
        client-side registry; :class:`UnknownSessionError` otherwise."""
        try:
            return self._sessions[session_id].size
        except KeyError:
            raise UnknownSessionError(session_id) from None

    def session_ids(self) -> list[int]:
        return [int(s) for s in self.client.control("session_ids")]

    def session_metrics(self, session_id: int) -> SimulationMetrics:
        data = self.client.control("session_metrics", session_id=session_id)
        return decode_record(SimulationMetrics, data)

    @property
    def metrics(self) -> SimulationMetrics:
        return decode_record(SimulationMetrics, self.client.control("metrics"))

    def update_policy(self, session_id: int, policy: Policy) -> None:
        self.client.call(
            UpdatePolicyRequest(session_id=session_id, policy=policy)
        )

    # ------------------------------------------------------------------
    # Session migration and shard snapshots (elastic operations)
    # ------------------------------------------------------------------

    def export_session(self, session_id: int) -> SessionSnapshot:
        """The server-side session state as a snapshot envelope (a read)."""
        return SessionSnapshot.from_dict(
            self.client.control("export_session", session_id=session_id)
        )

    def import_session(self, snapshot: SessionSnapshot) -> None:
        """Install a migrated session on this backend's server.

        The server resumes the session verbatim (no recomputation, no
        metric charges); this side registers the client-side state —
        the group size and the mirror space named by the snapshot — so
        wave validation and region decoding keep working here.
        """
        self.client.control("import_session", snapshot=snapshot.to_dict())
        self._sessions[snapshot.session_id] = _RemoteSession(
            size=len(snapshot.members),
            space=self._mirror_for_ref(snapshot.space),
        )

    def snapshot(self) -> ServiceSnapshot:
        """The whole remote shard as a failover envelope (a read)."""
        return ServiceSnapshot.from_dict(self.client.control("snapshot"))

    def restore(self, snapshot: ServiceSnapshot) -> list[int]:
        """Replay a shard snapshot into this backend's server."""
        result = self.client.control("restore", snapshot=snapshot.to_dict())
        for entry in snapshot.sessions:
            self._sessions[entry.session_id] = _RemoteSession(
                size=len(entry.members),
                space=self._mirror_for_ref(entry.space),
            )
        return [int(session_id) for session_id in result["session_ids"]]

    def report(
        self,
        session_id: int,
        member_id: int,
        point,
        heading: Optional[float] = None,
        theta: Optional[float] = None,
        probes: Optional[Sequence[tuple[int, MemberState]]] = None,
    ) -> Optional[Notification]:
        response = self.client.call(
            ReportRequest(
                session_id=session_id,
                member_id=member_id,
                state=MemberState(point=point, heading=heading, theta=theta),
                probes=None if probes is None else tuple(probes),
            )
        )
        return self._notification(response.notification, session_id)

    def submit_report_many(
        self, events: Sequence[ReportEvent]
    ) -> Callable[[], list[Optional[Notification]]]:
        """Send a wave now; call the returned function for its answers.

        The split lets a front door put one wave on several workers'
        connections before waiting on any of them.
        """
        request = ReportManyRequest(events=tuple(events))
        ticket = self.client.submit_request(request)

        def gather() -> list[Optional[Notification]]:
            response = ticket.result()
            return [
                self._notification(payload, event.session_id)
                for payload, event in zip(
                    response.notifications, request.events
                )
            ]

        return gather

    def report_many(
        self, events: Sequence[ReportEvent]
    ) -> list[Optional[Notification]]:
        return self.submit_report_many(events)()

    def update_locations(
        self, session_id: int, members: Sequence[Union[MemberState, object]]
    ) -> Notification:
        states = [
            m if isinstance(m, MemberState) else MemberState(point=m)
            for m in members
        ]
        response = self.client.call(
            UpdateLocationsRequest(
                session_id=session_id, members=tuple(states)
            )
        )
        return self._notification(response.notification, session_id)

    def submit_update_pois(
        self,
        adds: Sequence[tuple[object, object]] = (),
        removes: Sequence[tuple[object, object]] = (),
        space: Union[None, str, Space] = None,
    ) -> Callable[[], list[Notification]]:
        """Send a churn batch now; call the returned function for the
        re-notifications (see :meth:`submit_report_many`)."""
        adds, removes = tuple(adds), tuple(removes)  # the mirror re-reads them
        mirror = self._mirror_for_ref(space)
        ticket = self.client.submit_request(
            UpdatePoisRequest(adds=adds, removes=removes, space=space)
        )

        def gather() -> list[Notification]:
            response = ticket.result()
            # The server accepted the whole batch; keep the local mirror
            # in lock-step so exactness checks measure the same POI set.
            if mirror is not None and self._mirror_updates:
                mirror.bulk_update(adds, removes)
            return [
                self._notification(payload, payload.session_id)
                for payload in response.notifications
            ]

        return gather

    def update_pois(
        self,
        adds: Sequence[tuple[object, object]] = (),
        removes: Sequence[tuple[object, object]] = (),
        space: Union[None, str, Space] = None,
    ) -> list[Notification]:
        return self.submit_update_pois(adds, removes, space)()

    def add_poi(self, p, payload=None, space=None) -> list[Notification]:
        return self.update_pois(adds=[(p, payload)], space=space)

    def remove_poi(self, p, payload=None, space=None) -> list[Notification]:
        return self.update_pois(removes=[(p, payload)], space=space)
