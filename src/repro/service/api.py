"""Transport-ready request/response envelopes and the backend protocol.

The paper's MPN problem is a *server* problem — a central service
notifying moving users about meeting points — so the serving API must
be able to sit behind a wire, not just behind a Python method call.
This module defines that wire surface:

* one frozen dataclass per operation — :class:`OpenSessionRequest`,
  :class:`ReportRequest`, :class:`ReportManyRequest`,
  :class:`UpdateLocationsRequest`, :class:`UpdatePoisRequest`,
  :class:`UpdatePolicyRequest`, :class:`CloseSessionRequest` — and one
  response envelope each, every one with JSON-safe ``to_dict`` /
  ``from_dict`` (schema-versioned; policies, member states and
  positions round-trip **by value**);
* :class:`ServiceBackend` — the one-method protocol
  (``dispatch(request) -> Response``) that both
  :class:`repro.service.MPNService` and
  :class:`repro.cluster.MPNCluster` implement, so a fleet driver (or a
  wire adapter) is written once against either;
* :func:`dispatch_request` — the shared router that implements
  ``dispatch`` on top of a backend's convenience methods
  (``open_session`` / ``report`` / ``report_many`` / …), which remain
  the in-process face of the same seven operations.

Wire scope (schema version 2)
-----------------------------

Envelopes carry everything a remote client sends or needs back —
positions, member states, policies (by value, including tile
configurations), meeting points, safe-region geometry, causes and work
counters.  Version 2 extends version 1 with exactly the fields a
*remote* deployment needs (which is why the version bumped: a v1 peer
would silently drop them):

* **Region geometry.**  :class:`NotificationPayload` ships each safe
  region by value (:mod:`repro.service.regions`) alongside the wire
  sizes in doubles (``region_values`` — the payload the paper's
  message model accounts).  A remote client rebuilds her region
  locally and decides offline whether her next position escapes it —
  the client-side half of Fig. 3.
* **Front-door session ids.**  :class:`OpenSessionRequest` carries an
  optional ``session_id`` so a sharded front door
  (:class:`repro.transport.ProcessCluster`) can register sessions on
  remote workers under globally-routed ids, exactly like the
  in-process cluster does.
* **Client-gathered probe states.**  :class:`ReportRequest` and each
  :class:`~repro.service.messages.ReportEvent` carry optional
  ``probes`` — fresh member states the *client side* gathered at
  report time.  A prober callable cannot cross the wire, but the probe
  round it models is client↔server traffic anyway; the server applies
  supplied states exactly like prober answers and charges the same
  messages, so a remote fleet stays bit-identical to a local one.
* **Errors.**  :class:`ErrorResponse` serializes a failed dispatch —
  code, message and JSON-safe details — so validation failures cross
  the wire as envelopes instead of killing connections;
  :func:`error_response_for` maps exceptions to codes and
  :func:`raise_error_response` reconstructs the typed exception
  client-side.

One thing still does **not** cross the wire: **live objects**.  A
prober callable and an unregistered live
:class:`~repro.space.base.Space` are in-process conveniences;
``to_dict`` refuses to serialize an envelope holding one
(:class:`~repro.service.errors.EnvelopeError`).  Remote sessions name
their space by its registered name (see ``MPNService.add_space``);
every envelope carries ``v`` and decoding rejects versions it does not
speak (:class:`~repro.service.errors.SchemaVersionError`).

Positions are polymorphic: a Euclidean
:class:`~repro.geometry.point.Point`, a road-network
:class:`~repro.network_ext.space.NetworkPosition` (node or edge
offset), or a bare graph node (the network strategies' meeting points).
Graph nodes may be JSON scalars or (nested) tuples of them — the shapes
:func:`repro.mobility.network.build_road_network` produces.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Optional, Protocol, Sequence, Union, runtime_checkable

from repro.core.types import Ordering, SafeRegionStats, TileMSRConfig, VerifierKind
from repro.geometry.point import Point
from repro.gnn.aggregate import Aggregate
from repro.service.errors import (
    EnvelopeError,
    MalformedEnvelopeError,
    SchemaVersionError,
    ServiceError,
    UnknownSessionError,
    UnknownSpaceError,
    UnknownStrategyError,
)
from repro.service.messages import (
    MemberState,
    Notification,
    ReportEvent,
    SessionHandle,
)
from repro.simulation.policies import Policy, PolicyKind
from repro.space import Space

SCHEMA_VERSION = 2

# Probers supply fresh member states during probe rounds; the type is
# re-declared here (rather than imported from repro.service.session) to
# keep this module importable from leaf code without pulling strategy
# machinery in.
Prober = Callable[[int], MemberState]


# ----------------------------------------------------------------------
# Value codecs: nodes, positions, member states, policies, payloads
# ----------------------------------------------------------------------

_JSON_SCALARS = (str, int, float, bool)


def _network_position_cls():
    """`NetworkPosition` when the network stack is importable, else None."""
    try:
        from repro.network_ext.space import NetworkPosition
    except ImportError:  # pragma: no cover - exercised only without networkx
        return None
    return NetworkPosition


def _encode_node(node: object) -> object:
    """A graph node as JSON: scalars pass through, tuples are tagged."""
    if node is None or isinstance(node, _JSON_SCALARS):
        return node
    if isinstance(node, tuple):
        return {"tuple": [_encode_node(x) for x in node]}
    raise EnvelopeError(
        f"graph node {node!r} has no wire form (JSON scalars and tuples only)"
    )


def _decode_node(data: object) -> object:
    if data is None or isinstance(data, _JSON_SCALARS):
        return data
    if isinstance(data, dict) and set(data) == {"tuple"}:
        return tuple(_decode_node(x) for x in data["tuple"])
    raise MalformedEnvelopeError(f"not a wire-encoded graph node: {data!r}")


def encode_position(position: object) -> dict:
    """Any serving-stack position as a tagged JSON dict.

    Handles Euclidean :class:`Point`, network positions (node or edge
    offset) and bare graph nodes (network meeting points).
    """
    if isinstance(position, Point):
        return {"space": "euclidean", "x": position.x, "y": position.y}
    network_position = _network_position_cls()
    if network_position is not None and isinstance(position, network_position):
        if position.edge is None:
            return {"space": "network", "node": _encode_node(position.node)}
        u, v = position.edge
        return {
            "space": "network",
            "edge": [_encode_node(u), _encode_node(v)],
            "offset": position.offset,
        }
    return {"space": "node", "value": _encode_node(position)}


def decode_position(data: object) -> object:
    if not isinstance(data, dict):
        raise MalformedEnvelopeError(f"not a wire-encoded position: {data!r}")
    kind = data.get("space")
    if kind == "euclidean":
        return Point(float(data["x"]), float(data["y"]))
    if kind == "node":
        return _decode_node(data["value"])
    if kind == "network":
        network_position = _network_position_cls()
        if network_position is None:  # pragma: no cover - no-networkx envs
            raise EnvelopeError(
                "decoding a network position needs the network stack "
                "(install the 'network' extra)"
            )
        if "node" in data:
            return network_position.at_node(_decode_node(data["node"]))
        u, v = data["edge"]
        return network_position.on_edge(
            _decode_node(u), _decode_node(v), float(data["offset"])
        )
    raise MalformedEnvelopeError(f"unknown position space {kind!r}")


def encode_member(member: MemberState) -> dict:
    return {
        "point": encode_position(member.point),
        "heading": member.heading,
        "theta": member.theta,
    }


def decode_member(data: object) -> MemberState:
    if not isinstance(data, dict):
        raise MalformedEnvelopeError(f"not a wire-encoded member state: {data!r}")
    heading = data.get("heading")
    theta = data.get("theta")
    return MemberState(
        point=decode_position(data["point"]),
        heading=None if heading is None else float(heading),
        theta=None if theta is None else float(theta),
    )


Probes = Optional[tuple[tuple[int, MemberState], ...]]


def _encode_probes(probes: Probes) -> Optional[list]:
    """Client-gathered probe states as ``[[member_id, state], ...]``."""
    if probes is None:
        return None
    return [[member_id, encode_member(state)] for member_id, state in probes]


def _decode_probes(data: object) -> Probes:
    if data is None:
        return None
    return tuple(
        (int(member_id), decode_member(state)) for member_id, state in data
    )


def _network_tile_config_cls():
    try:
        from repro.network_ext.tile_msr import NetworkTileConfig
    except ImportError:  # pragma: no cover - exercised only without networkx
        return None
    return NetworkTileConfig


def _encode_tile_config(config: object) -> Optional[dict]:
    if config is None:
        return None
    if isinstance(config, TileMSRConfig):
        return {
            "type": "euclidean",
            "alpha": config.alpha,
            "split_level": config.split_level,
            "ordering": config.ordering.value,
            "verifier": config.verifier.value,
            "objective": config.objective.value,
            "buffer_b": config.buffer_b,
            "theta": config.theta,
            "max_layer": config.max_layer,
        }
    network_config = _network_tile_config_cls()
    if network_config is not None and isinstance(config, network_config):
        return {
            "type": "network",
            "alpha": config.alpha,
            "split_level": config.split_level,
            "max_radius_factor": config.max_radius_factor,
        }
    raise EnvelopeError(
        f"tile config {type(config).__name__} has no wire form"
    )


def _decode_tile_config(data: object) -> object:
    if data is None:
        return None
    if not isinstance(data, dict):
        raise MalformedEnvelopeError(f"not a wire-encoded tile config: {data!r}")
    kind = data.get("type")
    if kind == "euclidean":
        buffer_b = data["buffer_b"]
        return TileMSRConfig(
            alpha=int(data["alpha"]),
            split_level=int(data["split_level"]),
            ordering=Ordering(data["ordering"]),
            verifier=VerifierKind(data["verifier"]),
            objective=Aggregate(data["objective"]),
            buffer_b=None if buffer_b is None else int(buffer_b),
            theta=float(data["theta"]),
            max_layer=int(data["max_layer"]),
        )
    if kind == "network":
        network_config = _network_tile_config_cls()
        if network_config is None:  # pragma: no cover - no-networkx envs
            raise EnvelopeError(
                "decoding a network tile config needs the network stack"
            )
        return network_config(
            alpha=int(data["alpha"]),
            split_level=int(data["split_level"]),
            max_radius_factor=float(data["max_radius_factor"]),
        )
    raise MalformedEnvelopeError(f"unknown tile config type {kind!r}")


def encode_policy(policy: Policy) -> dict:
    """A :class:`Policy` by value, tile configuration included."""
    return {
        "name": policy.name,
        "kind": None if policy.kind is None else policy.kind.value,
        "objective": policy.objective.value,
        "strategy": policy.strategy,
        "tile_config": _encode_tile_config(policy.tile_config),
    }


def decode_policy(data: object) -> Policy:
    if not isinstance(data, dict):
        raise MalformedEnvelopeError(f"not a wire-encoded policy: {data!r}")
    kind = data.get("kind")
    return Policy(
        name=data["name"],
        kind=None if kind is None else PolicyKind(kind),
        objective=Aggregate(data["objective"]),
        tile_config=_decode_tile_config(data.get("tile_config")),
        strategy=data.get("strategy"),
    )


def _encode_payload(payload: object) -> object:
    """POI payloads on the wire: JSON scalars (or None) only."""
    if payload is None or isinstance(payload, _JSON_SCALARS):
        return payload
    raise EnvelopeError(
        f"POI payload {payload!r} has no wire form (JSON scalars only)"
    )


def _encode_space_ref(space: Union[None, str, Space]) -> Optional[str]:
    if space is None or isinstance(space, str):
        return space
    raise EnvelopeError(
        "a live space cannot cross the wire; register it on the backend "
        "(add_space) and reference it by name"
    )


# ----------------------------------------------------------------------
# Envelope plumbing
# ----------------------------------------------------------------------


def _envelope(op: str, **fields: object) -> dict:
    out = {"op": op, "v": SCHEMA_VERSION}
    out.update(fields)
    return out


def _check_envelope(data: object, op: str) -> dict:
    if not isinstance(data, dict):
        raise MalformedEnvelopeError(f"envelope must be a dict, got {type(data).__name__}")
    # Version before op: a newer-schema envelope must surface as
    # "upgrade required" (SchemaVersionError) even when it carries an
    # operation this build has never heard of.
    if data.get("v") != SCHEMA_VERSION:
        raise SchemaVersionError(data.get("v"), SCHEMA_VERSION)
    if data.get("op") != op:
        raise MalformedEnvelopeError(
            f"expected op {op!r}, got {data.get('op')!r}"
        )
    return data


def _decoding(op: str, fn: Callable) -> Callable:
    """Wrap a decoder body: op/version checks, then malformed-guarding."""

    def decode(cls, data: object):
        _check_envelope(data, op)
        try:
            return fn(cls, data)
        except EnvelopeError:
            raise
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise MalformedEnvelopeError(
                f"malformed {op!r} envelope: {exc}"
            ) from exc

    return classmethod(decode)


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class OpenSessionRequest:
    """Register a group under a policy (``MPNService.open_session``).

    ``space`` names a backend-registered space (``None`` = default).
    ``prober`` and live ``space`` objects are in-process extras:
    ``dispatch`` honors them, ``to_dict`` refuses to serialize them.
    ``session_id`` pins the id the session registers under (schema v2;
    ``None`` = let the backend number it) — the hook a sharded front
    door uses to keep globally-routed numbering on remote workers.
    """

    op: ClassVar[str] = "open_session"

    members: tuple[MemberState, ...]
    policy: Policy
    space: Union[None, str, Space] = None
    prober: Optional[Prober] = field(default=None, compare=False)
    session_id: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", tuple(self.members))

    def to_dict(self) -> dict:
        if self.prober is not None:
            raise EnvelopeError(
                "a prober callable is in-process only and cannot cross the wire"
            )
        return _envelope(
            self.op,
            members=[encode_member(m) for m in self.members],
            policy=encode_policy(self.policy),
            space=_encode_space_ref(self.space),
            session_id=self.session_id,
        )

    from_dict = _decoding(
        "open_session",
        lambda cls, data: cls(
            members=tuple(decode_member(m) for m in data["members"]),
            policy=decode_policy(data["policy"]),
            space=data.get("space"),
            session_id=None
            if data.get("session_id") is None
            else int(data["session_id"]),
        ),
    )


@dataclass(frozen=True)
class ReportRequest:
    """Step 1 of Fig. 3 over the wire: one member escaped and reports.

    ``probes`` (schema v2) carries fresh states the client side gathered
    for the *other* members at report time — the remote stand-in for an
    in-process prober callable.  The server applies them exactly like
    prober answers and charges the same probe messages, so remote
    fleets account identically to local ones.
    """

    op: ClassVar[str] = "report"

    session_id: int
    member_id: int
    state: MemberState
    probes: Probes = None

    def __post_init__(self) -> None:
        if self.probes is not None:
            object.__setattr__(self, "probes", tuple(self.probes))

    def to_dict(self) -> dict:
        return _envelope(
            self.op,
            session_id=self.session_id,
            member_id=self.member_id,
            state=encode_member(self.state),
            probes=_encode_probes(self.probes),
        )

    from_dict = _decoding(
        "report",
        lambda cls, data: cls(
            session_id=int(data["session_id"]),
            member_id=int(data["member_id"]),
            state=decode_member(data["state"]),
            probes=_decode_probes(data.get("probes")),
        ),
    )


@dataclass(frozen=True)
class ReportManyRequest:
    """A whole wave of escape reports (``MPNService.report_many``)."""

    op: ClassVar[str] = "report_many"

    events: tuple[ReportEvent, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))

    def to_dict(self) -> dict:
        return _envelope(
            self.op,
            events=[
                {
                    "session_id": e.session_id,
                    "member_id": e.member_id,
                    "state": encode_member(e.state),
                    "probes": _encode_probes(e.probes),
                }
                for e in self.events
            ],
        )

    from_dict = _decoding(
        "report_many",
        lambda cls, data: cls(
            events=tuple(
                ReportEvent(
                    session_id=int(e["session_id"]),
                    member_id=int(e["member_id"]),
                    state=decode_member(e["state"]),
                    probes=_decode_probes(e.get("probes")),
                )
                for e in data["events"]
            ),
        ),
    )


@dataclass(frozen=True)
class UpdateLocationsRequest:
    """Refresh every member's state at once (the already-probed path)."""

    op: ClassVar[str] = "update_locations"

    session_id: int
    members: tuple[MemberState, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", tuple(self.members))

    def to_dict(self) -> dict:
        return _envelope(
            self.op,
            session_id=self.session_id,
            members=[encode_member(m) for m in self.members],
        )

    from_dict = _decoding(
        "update_locations",
        lambda cls, data: cls(
            session_id=int(data["session_id"]),
            members=tuple(decode_member(m) for m in data["members"]),
        ),
    )


@dataclass(frozen=True)
class UpdatePoisRequest:
    """A batch of POI inserts/deletes against one space's index."""

    op: ClassVar[str] = "update_pois"

    adds: tuple[tuple[object, object], ...] = ()
    removes: tuple[tuple[object, object], ...] = ()
    space: Union[None, str, Space] = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "adds", tuple((p, payload) for p, payload in self.adds)
        )
        object.__setattr__(
            self, "removes", tuple((p, payload) for p, payload in self.removes)
        )

    @staticmethod
    def _encode_items(items: Sequence[tuple[object, object]]) -> list:
        return [
            {"position": encode_position(p), "payload": _encode_payload(payload)}
            for p, payload in items
        ]

    @staticmethod
    def _decode_items(items: object) -> tuple[tuple[object, object], ...]:
        return tuple(
            (decode_position(item["position"]), item["payload"])
            for item in items
        )

    def to_dict(self) -> dict:
        return _envelope(
            self.op,
            adds=self._encode_items(self.adds),
            removes=self._encode_items(self.removes),
            space=_encode_space_ref(self.space),
        )

    from_dict = _decoding(
        "update_pois",
        lambda cls, data: cls(
            adds=cls._decode_items(data["adds"]),
            removes=cls._decode_items(data["removes"]),
            space=data.get("space"),
        ),
    )


@dataclass(frozen=True)
class UpdatePolicyRequest:
    """Swap a session's policy (takes effect at the next recomputation)."""

    op: ClassVar[str] = "update_policy"

    session_id: int
    policy: Policy

    def to_dict(self) -> dict:
        return _envelope(
            self.op,
            session_id=self.session_id,
            policy=encode_policy(self.policy),
        )

    from_dict = _decoding(
        "update_policy",
        lambda cls, data: cls(
            session_id=int(data["session_id"]),
            policy=decode_policy(data["policy"]),
        ),
    )


@dataclass(frozen=True)
class CloseSessionRequest:
    """Tear a session down."""

    op: ClassVar[str] = "close_session"

    session_id: int

    def to_dict(self) -> dict:
        return _envelope(self.op, session_id=self.session_id)

    from_dict = _decoding(
        "close_session",
        lambda cls, data: cls(session_id=int(data["session_id"])),
    )


# ----------------------------------------------------------------------
# Responses
# ----------------------------------------------------------------------


def _encode_stats(stats: SafeRegionStats) -> dict:
    return {
        "tile_verifications": stats.tile_verifications,
        "point_checks": stats.point_checks,
        "index_node_accesses": stats.index_node_accesses,
        "index_queries": stats.index_queries,
        "tiles_added": stats.tiles_added,
        "tiles_rejected": stats.tiles_rejected,
        "elapsed_seconds": stats.elapsed_seconds,
    }


def _decode_stats(data: object) -> SafeRegionStats:
    if not isinstance(data, dict):
        raise MalformedEnvelopeError(f"not wire-encoded stats: {data!r}")
    return SafeRegionStats(
        tile_verifications=int(data["tile_verifications"]),
        point_checks=int(data["point_checks"]),
        index_node_accesses=int(data["index_node_accesses"]),
        index_queries=int(data["index_queries"]),
        tiles_added=int(data["tiles_added"]),
        tiles_rejected=int(data["tiles_rejected"]),
        elapsed_seconds=float(data["elapsed_seconds"]),
    )


@dataclass(frozen=True)
class NotificationPayload:
    """The wire form of a :class:`~repro.service.messages.Notification`.

    Carries the new meeting point, each member's safe region — both its
    wire size in doubles (the payload the paper's message model
    accounts) and, since schema version 2, its *geometry* by value
    (:mod:`repro.service.regions`) — plus the work counters and the
    cause.  ``regions`` holds the wire-encoded dicts, aligned with
    ``region_values``; :meth:`live_regions` rebuilds the live objects
    (network regions need the session's space).
    """

    session_id: int
    po: object
    region_values: tuple[int, ...]
    cause: str
    cpu_seconds: float
    stats: SafeRegionStats
    regions: tuple[dict, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "region_values", tuple(self.region_values))
        object.__setattr__(self, "regions", tuple(self.regions))

    @classmethod
    def from_notification(cls, notification: Notification) -> "NotificationPayload":
        from repro.service.regions import encode_region

        regions = getattr(notification, "regions", ())
        return cls(
            session_id=notification.session_id,
            po=notification.po,
            region_values=tuple(notification.region_values),
            cause=notification.cause,
            cpu_seconds=notification.cpu_seconds,
            stats=dataclasses.replace(notification.stats),
            regions=tuple(
                r if isinstance(r, dict) else encode_region(r) for r in regions
            ),
        )

    def live_regions(self, space: Optional[object] = None) -> tuple:
        """The safe regions as live objects (``contains_point`` works).

        ``space`` is required when the session lives on a road network
        (see :func:`repro.service.regions.decode_region`).
        """
        from repro.service.regions import decode_region

        return tuple(decode_region(r, space=space) for r in self.regions)

    def to_dict(self) -> dict:
        return {
            "session_id": self.session_id,
            "po": encode_position(self.po),
            "region_values": list(self.region_values),
            "cause": self.cause,
            "cpu_seconds": self.cpu_seconds,
            "stats": _encode_stats(self.stats),
            "regions": list(self.regions),
        }

    @classmethod
    def from_dict(cls, data: object) -> "NotificationPayload":
        if not isinstance(data, dict):
            raise MalformedEnvelopeError(
                f"not a wire-encoded notification: {data!r}"
            )
        try:
            return cls(
                session_id=int(data["session_id"]),
                po=decode_position(data["po"]),
                region_values=tuple(int(v) for v in data["region_values"]),
                cause=data["cause"],
                cpu_seconds=float(data["cpu_seconds"]),
                stats=_decode_stats(data["stats"]),
                regions=tuple(data.get("regions", ())),
            )
        except EnvelopeError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedEnvelopeError(
                f"malformed notification payload: {exc}"
            ) from exc


def _encode_optional_notification(
    payload: Optional[NotificationPayload],
) -> Optional[dict]:
    return None if payload is None else payload.to_dict()


def _decode_optional_notification(data: object) -> Optional[NotificationPayload]:
    return None if data is None else NotificationPayload.from_dict(data)


@dataclass(frozen=True)
class OpenSessionResponse:
    """The wire form of a :class:`~repro.service.messages.SessionHandle`."""

    op: ClassVar[str] = "open_session.response"

    session_id: int
    size: int
    strategy_name: str
    policy: Policy
    notification: NotificationPayload

    def to_dict(self) -> dict:
        return _envelope(
            self.op,
            session_id=self.session_id,
            size=self.size,
            strategy_name=self.strategy_name,
            policy=encode_policy(self.policy),
            notification=self.notification.to_dict(),
        )

    from_dict = _decoding(
        "open_session.response",
        lambda cls, data: cls(
            session_id=int(data["session_id"]),
            size=int(data["size"]),
            strategy_name=data["strategy_name"],
            policy=decode_policy(data["policy"]),
            notification=NotificationPayload.from_dict(data["notification"]),
        ),
    )


@dataclass(frozen=True)
class ReportResponse:
    """``None`` notification = the reported point was still in-region."""

    op: ClassVar[str] = "report.response"

    session_id: int
    notification: Optional[NotificationPayload]

    def to_dict(self) -> dict:
        return _envelope(
            self.op,
            session_id=self.session_id,
            notification=_encode_optional_notification(self.notification),
        )

    from_dict = _decoding(
        "report.response",
        lambda cls, data: cls(
            session_id=int(data["session_id"]),
            notification=_decode_optional_notification(data.get("notification")),
        ),
    )


@dataclass(frozen=True)
class ReportManyResponse:
    """One entry per event, aligned with the request's event order."""

    op: ClassVar[str] = "report_many.response"

    notifications: tuple[Optional[NotificationPayload], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "notifications", tuple(self.notifications))

    def to_dict(self) -> dict:
        return _envelope(
            self.op,
            notifications=[
                _encode_optional_notification(n) for n in self.notifications
            ],
        )

    from_dict = _decoding(
        "report_many.response",
        lambda cls, data: cls(
            notifications=tuple(
                _decode_optional_notification(n) for n in data["notifications"]
            ),
        ),
    )


@dataclass(frozen=True)
class UpdateLocationsResponse:
    op: ClassVar[str] = "update_locations.response"

    notification: NotificationPayload

    def to_dict(self) -> dict:
        return _envelope(self.op, notification=self.notification.to_dict())

    from_dict = _decoding(
        "update_locations.response",
        lambda cls, data: cls(
            notification=NotificationPayload.from_dict(data["notification"]),
        ),
    )


@dataclass(frozen=True)
class UpdatePoisResponse:
    """One notification per re-notified (Lemma-1-invalidated) session."""

    op: ClassVar[str] = "update_pois.response"

    notifications: tuple[NotificationPayload, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "notifications", tuple(self.notifications))

    def to_dict(self) -> dict:
        return _envelope(
            self.op,
            notifications=[n.to_dict() for n in self.notifications],
        )

    from_dict = _decoding(
        "update_pois.response",
        lambda cls, data: cls(
            notifications=tuple(
                NotificationPayload.from_dict(n) for n in data["notifications"]
            ),
        ),
    )


@dataclass(frozen=True)
class UpdatePolicyResponse:
    op: ClassVar[str] = "update_policy.response"

    session_id: int

    def to_dict(self) -> dict:
        return _envelope(self.op, session_id=self.session_id)

    from_dict = _decoding(
        "update_policy.response",
        lambda cls, data: cls(session_id=int(data["session_id"])),
    )


@dataclass(frozen=True)
class CloseSessionResponse:
    op: ClassVar[str] = "close_session.response"

    session_id: int

    def to_dict(self) -> dict:
        return _envelope(self.op, session_id=self.session_id)

    from_dict = _decoding(
        "close_session.response",
        lambda cls, data: cls(session_id=int(data["session_id"])),
    )


# ----------------------------------------------------------------------
# Snapshots: full session state by value (elastic operations)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SessionSnapshot:
    """One live session's full state as a schema-v2 envelope.

    The serialization substrate for live migration: everything a fresh
    shard — possibly a fresh worker *process* — needs to keep serving a
    session exactly where the old shard left off.  Members carry their
    last-reported states, ``regions`` the current safe regions as
    :mod:`repro.service.regions` codecs (bit-identical on decode), and
    ``metrics`` the per-session counters as a JSON-safe dict.  ``space``
    names the backend-registered space the session runs on (``None`` =
    default); the importing side resolves it against its own registry
    and re-resolves the strategy from ``policy``, so nothing live
    crosses the wire.  Probers are in-process callables and travel
    out-of-band (``import_session(..., prober=)``).
    """

    op: ClassVar[str] = "session_snapshot"

    session_id: int
    policy: Policy
    members: tuple[MemberState, ...]
    po: object
    regions: tuple[dict, ...]
    metrics: dict
    space: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", tuple(self.members))
        object.__setattr__(self, "regions", tuple(self.regions))
        object.__setattr__(self, "metrics", dict(self.metrics))

    def to_dict(self) -> dict:
        return _envelope(
            self.op,
            session_id=self.session_id,
            policy=encode_policy(self.policy),
            members=[encode_member(m) for m in self.members],
            po=None if self.po is None else encode_position(self.po),
            regions=list(self.regions),
            metrics=dict(self.metrics),
            space=_encode_space_ref(self.space),
        )

    from_dict = _decoding(
        "session_snapshot",
        lambda cls, data: cls(
            session_id=int(data["session_id"]),
            policy=decode_policy(data["policy"]),
            members=tuple(decode_member(m) for m in data["members"]),
            po=None if data.get("po") is None else decode_position(data["po"]),
            regions=tuple(data.get("regions", ())),
            metrics=dict(data.get("metrics") or {}),
            space=data.get("space"),
        ),
    )


@dataclass(frozen=True)
class ServiceSnapshot:
    """A whole shard by value: every session plus the id watermark.

    The failover/restore envelope: ``MPNService.snapshot()`` produces
    one, ``restore()`` replays it into an empty (or disjoint) service.
    ``next_id`` carries the numbering watermark so a restored shard
    never re-issues an id the snapshotted one already handed out.
    """

    op: ClassVar[str] = "service_snapshot"

    sessions: tuple[SessionSnapshot, ...]
    next_id: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "sessions", tuple(self.sessions))

    def to_dict(self) -> dict:
        return _envelope(
            self.op,
            sessions=[s.to_dict() for s in self.sessions],
            next_id=self.next_id,
        )

    from_dict = _decoding(
        "service_snapshot",
        lambda cls, data: cls(
            sessions=tuple(
                SessionSnapshot.from_dict(s) for s in data.get("sessions", ())
            ),
            next_id=int(data.get("next_id", 0)),
        ),
    )


@dataclass(frozen=True)
class ErrorResponse:
    """A failed dispatch as a wire envelope (schema v2).

    In-process backends raise; a wire server cannot.  The transport
    layer catches what ``dispatch`` raises, narrows it with
    :func:`error_response_for`, and sends this envelope instead of
    killing the connection.  ``code`` is a stable machine-readable
    string (see :data:`ERROR_CODES`), ``details`` a JSON-safe dict of
    whatever the exception carried (e.g. the offending ``session_id``);
    the client side rebuilds the typed exception with
    :func:`raise_error_response`.
    """

    op: ClassVar[str] = "error"

    code: str
    message: str
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return _envelope(
            self.op,
            code=self.code,
            message=self.message,
            details=dict(self.details),
        )

    from_dict = _decoding(
        "error",
        lambda cls, data: cls(
            code=str(data["code"]),
            message=str(data["message"]),
            details=dict(data.get("details") or {}),
        ),
    )


#: Stable error codes an :class:`ErrorResponse` may carry.  ``timeout``,
#: ``frame_too_large`` and ``shutting_down`` are minted by the transport
#: layer itself (the backend never raises them); everything else maps an
#: exception class.
ERROR_CODES = (
    "schema_version",
    "malformed_envelope",
    "envelope",
    "unknown_session",
    "unknown_strategy",
    "unknown_space",
    "invalid_request",
    "not_found",
    "timeout",
    "frame_too_large",
    "shutting_down",
    "internal",
)


def _json_safe(value: object) -> object:
    """`value` if JSON already round-trips it, else its ``repr``."""
    if value is None or isinstance(value, _JSON_SCALARS):
        return value
    return repr(value)


def error_response_for(exc: BaseException) -> ErrorResponse:
    """Narrow an exception raised by ``dispatch`` to its wire envelope."""
    details: dict = {}
    if isinstance(exc, SchemaVersionError):
        code = "schema_version"
        details["version"] = _json_safe(exc.version)
        details["supported"] = exc.supported
    elif isinstance(exc, MalformedEnvelopeError):
        code = "malformed_envelope"
    elif isinstance(exc, EnvelopeError):
        code = "envelope"
    elif isinstance(exc, UnknownSessionError):
        code = "unknown_session"
        details["session_id"] = _json_safe(exc.session_id)
    elif isinstance(exc, UnknownStrategyError):
        code = "unknown_strategy"
        details["name"] = _json_safe(exc.name)
        details["available"] = list(exc.available)
    elif isinstance(exc, UnknownSpaceError):
        code = "unknown_space"
        details["name"] = _json_safe(exc.name)
        details["available"] = list(exc.available)
    elif isinstance(exc, (ValueError, ServiceError)):
        code = "invalid_request"
    elif isinstance(exc, KeyError):
        code = "not_found"
    elif isinstance(exc, TimeoutError):
        code = "timeout"
    else:
        code = "internal"
    message = str(exc) or type(exc).__name__
    if type(exc) is KeyError and exc.args:
        # str(KeyError(3)) is "'3'" with quotes; prefer the bare arg.
        message = str(exc.args[0])
    return ErrorResponse(code=code, message=message, details=details)


def raise_error_response(error: ErrorResponse) -> None:
    """Re-raise an :class:`ErrorResponse` as its typed exception.

    The remote backend calls this so a TCP fleet driver sees the same
    exception types an in-process one does (``UnknownSessionError`` and
    friends), not a generic transport error.
    """
    details = error.details
    if error.code == "schema_version":
        raise SchemaVersionError(
            details.get("version"), details.get("supported", SCHEMA_VERSION)
        )
    if error.code == "unknown_session":
        raise UnknownSessionError(details.get("session_id"))
    if error.code == "unknown_strategy":
        raise UnknownStrategyError(
            details.get("name"), tuple(details.get("available", ()))
        )
    if error.code == "unknown_space":
        raise UnknownSpaceError(
            details.get("name"), tuple(details.get("available", ()))
        )
    make = {
        "malformed_envelope": MalformedEnvelopeError,
        "envelope": EnvelopeError,
        "invalid_request": ValueError,
        "not_found": KeyError,
        "timeout": TimeoutError,
        "frame_too_large": ConnectionError,
        "shutting_down": ConnectionError,
    }.get(error.code, RuntimeError)
    raise make(error.message)


Request = Union[
    OpenSessionRequest,
    ReportRequest,
    ReportManyRequest,
    UpdateLocationsRequest,
    UpdatePoisRequest,
    UpdatePolicyRequest,
    CloseSessionRequest,
]

Response = Union[
    OpenSessionResponse,
    ReportResponse,
    ReportManyResponse,
    UpdateLocationsResponse,
    UpdatePoisResponse,
    UpdatePolicyResponse,
    CloseSessionResponse,
    ErrorResponse,
]

REQUEST_TYPES: dict[str, type] = {
    cls.op: cls
    for cls in (
        OpenSessionRequest,
        ReportRequest,
        ReportManyRequest,
        UpdateLocationsRequest,
        UpdatePoisRequest,
        UpdatePolicyRequest,
        CloseSessionRequest,
    )
}

RESPONSE_TYPES: dict[str, type] = {
    cls.op: cls
    for cls in (
        OpenSessionResponse,
        ReportResponse,
        ReportManyResponse,
        UpdateLocationsResponse,
        UpdatePoisResponse,
        UpdatePolicyResponse,
        CloseSessionResponse,
        ErrorResponse,
    )
}


def _from_tagged_dict(data: object, types: dict[str, type], kind: str):
    if not isinstance(data, dict):
        raise MalformedEnvelopeError(
            f"envelope must be a dict, got {type(data).__name__}"
        )
    if data.get("v") != SCHEMA_VERSION:  # see _check_envelope on ordering
        raise SchemaVersionError(data.get("v"), SCHEMA_VERSION)
    op = data.get("op")
    cls = types.get(op)
    if cls is None:
        raise MalformedEnvelopeError(f"unknown {kind} op {op!r}")
    return cls.from_dict(data)


def request_from_dict(data: object) -> Request:
    """Decode any request envelope by its ``op`` tag."""
    return _from_tagged_dict(data, REQUEST_TYPES, "request")


def response_from_dict(data: object) -> Response:
    """Decode any response envelope by its ``op`` tag."""
    return _from_tagged_dict(data, RESPONSE_TYPES, "response")


# ----------------------------------------------------------------------
# The backend protocol and the shared dispatch router
# ----------------------------------------------------------------------


@runtime_checkable
class ServiceBackend(Protocol):
    """Anything that serves the seven MPN operations through one door.

    ``dispatch`` is the transport-ready face: one envelope in, one
    envelope out.  The implementations in this repo —
    :class:`repro.service.MPNService` (one process, one shard),
    :class:`repro.cluster.cluster.ShardedFrontDoor` (the sharded front
    door, constructed as :class:`repro.cluster.MPNCluster` over
    in-process services or :class:`repro.transport.ProcessCluster` over
    worker processes) and :class:`repro.transport.RemoteBackend` (a
    server across a connection) — additionally share the in-process
    convenience surface
    (``open_session`` / ``report`` / ``report_many`` /
    ``update_locations`` / ``update_pois`` / ``update_policy`` /
    ``close_session`` plus the ``session*`` accessors), which is what
    :func:`repro.simulation.run_service` drives; convenience calls
    return live objects (regions included), envelopes carry the wire
    subset.
    """

    def dispatch(self, request: Request) -> Response: ...


def dispatch_request(backend, request: Request) -> Response:
    """Serve one request envelope through ``backend``'s methods.

    This is the single routing table the service and the sharded front
    door use to implement :meth:`ServiceBackend.dispatch`, so the
    envelope surface and the convenience surface cannot drift apart:
    every envelope operation is *defined* as a call to the corresponding
    method, with live results narrowed to their wire payloads.
    """
    if isinstance(request, OpenSessionRequest):
        handle: SessionHandle = backend.open_session(
            list(request.members),
            request.policy,
            prober=request.prober,
            space=request.space,
            session_id=request.session_id,
        )
        return OpenSessionResponse(
            session_id=handle.session_id,
            size=handle.size,
            strategy_name=handle.strategy_name,
            policy=handle.policy,
            notification=NotificationPayload.from_notification(
                handle.notification
            ),
        )
    if isinstance(request, ReportRequest):
        notification = backend.report(
            request.session_id,
            request.member_id,
            request.state.point,
            request.state.heading,
            request.state.theta,
            probes=request.probes,
        )
        return ReportResponse(
            session_id=request.session_id,
            notification=None
            if notification is None
            else NotificationPayload.from_notification(notification),
        )
    if isinstance(request, ReportManyRequest):
        notifications = backend.report_many(list(request.events))
        return ReportManyResponse(
            notifications=tuple(
                None if n is None else NotificationPayload.from_notification(n)
                for n in notifications
            ),
        )
    if isinstance(request, UpdateLocationsRequest):
        notification = backend.update_locations(
            request.session_id, list(request.members)
        )
        return UpdateLocationsResponse(
            notification=NotificationPayload.from_notification(notification),
        )
    if isinstance(request, UpdatePoisRequest):
        notifications = backend.update_pois(
            adds=list(request.adds),
            removes=list(request.removes),
            space=request.space,
        )
        return UpdatePoisResponse(
            notifications=tuple(
                NotificationPayload.from_notification(n) for n in notifications
            ),
        )
    if isinstance(request, UpdatePolicyRequest):
        backend.update_policy(request.session_id, request.policy)
        return UpdatePolicyResponse(session_id=request.session_id)
    if isinstance(request, CloseSessionRequest):
        backend.close_session(request.session_id)
        return CloseSessionResponse(session_id=request.session_id)
    raise TypeError(f"not a service request: {type(request).__name__}")
