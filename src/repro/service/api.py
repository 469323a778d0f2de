"""Transport-ready request/response envelopes and the backend protocol.

The paper's MPN problem is a *server* problem — a central service
notifying moving users about meeting points — so the serving API must
be able to sit behind a wire.  This module defines that wire surface:
one frozen dataclass per operation (:class:`OpenSessionRequest`,
:class:`ReportRequest`, :class:`ReportManyRequest`,
:class:`UpdateLocationsRequest`, :class:`UpdatePoisRequest`,
:class:`UpdatePolicyRequest`, :class:`CloseSessionRequest`) and one
response envelope each, all JSON-safe through ``to_dict`` /
``from_dict``; :class:`ServiceBackend`, the one-method protocol
(``dispatch(request) -> Response``) every backend implements; and
:func:`dispatch_request`, the shared router that implements ``dispatch``
on top of a backend's convenience methods (``open_session`` /
``report`` / …), the in-process face of the same seven operations.

Schema version 3 carries everything a remote client sends or needs
back, by value: positions, member states, policies (tile configurations
included), meeting points, causes, safe-region geometry
(:mod:`repro.service.regions`: a remote client decides offline whether
her next position escapes, the client-side half of Fig. 3), front-door
session ids on :class:`OpenSessionRequest`, client-gathered ``probes``
on :class:`ReportRequest` and :class:`~repro.service.messages.ReportEvent`
(the other members' fresh states, the probe round's answers) and
:class:`ErrorResponse` (:func:`error_response_for` maps an
exception to a code, :func:`raise_error_response` rebuilds it
client-side).  Work counters and timing stay in the server's §7.1
ledger and reach operators through the ``metrics`` / ``session_metrics``
control ops (wall-clock, not deterministic), so a data-plane response
is a pure function of the requests before it.  Live objects do not cross:
``to_dict`` refuses a live :class:`~repro.space.base.Space` object
(:class:`~repro.service.errors.EnvelopeError`); remote sessions name
their space as registered with ``add_space``.  Every envelope carries
``v``; decoding rejects every other version, v2 included
(:class:`~repro.service.errors.SchemaVersionError`).

The codec
---------

No envelope writes its own ``to_dict`` / ``from_dict``: one codec walks
each dataclass's fields and resolved annotations once into a cached
plan.  Three rules decide the wire form:

1. **Key order is field order** — ``op`` and ``v`` first on an
   envelope; nested records (:class:`~repro.service.messages.MemberState`,
   :class:`~repro.service.messages.ReportEvent`, :class:`NotificationPayload`,
   :class:`SessionSnapshot`) through their own plans; tuples as arrays,
   enums as their values.
2. **A field is optional on the wire iff it has a default**; a missing
   undefaulted field or an undeclared key is malformed.
3. **Integers are exact**: an ``int`` field takes a JSON integer only —
   never a bool, float or string; a ``float`` field takes either number.

The leaf codecs hide tagged formats and are written out by hand, here:
position / graph node (:func:`encode_position` / :func:`decode_position`:
a Euclidean :class:`~repro.geometry.point.Point`, a road-network
:class:`~repro.network_ext.space.NetworkPosition` or a bare graph node —
a JSON scalar or nested tuple of them), tile configuration,
:class:`Policy` (its wire order ``strategy, tile_config`` is not its
field order), POI item (payload a JSON scalar or ``None``) and space
reference (a registered name or ``None``); the region codec lives in :mod:`repro.service.regions`.  The leaves keep
rules 2 and 3 as well: an undeclared key is malformed
(:func:`leaf_fields`) and numbers are read exactly.  Decoding has one
error rule: version, then ``op``, then any ``KeyError`` / ``TypeError``
/ ``ValueError`` / ``AttributeError`` becomes
:class:`~repro.service.errors.MalformedEnvelopeError` — raised before
the envelope exists, so a rejected one mutates nothing.
:func:`encode_record` / :func:`decode_record` apply the same codec to
other dataclasses, e.g. :class:`~repro.simulation.metrics.SimulationMetrics`.
"""

from __future__ import annotations

import dataclasses
import functools
import typing
from dataclasses import dataclass, field
from enum import Enum
from typing import ClassVar, Optional, Protocol, Union, runtime_checkable

from repro.core.types import TileMSRConfig
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

SCHEMA_VERSION = 3


# ----------------------------------------------------------------------
# Leaf codecs: the tagged formats, written out once
# ----------------------------------------------------------------------

_JSON_SCALARS = (str, int, float, bool)


def _int(data: object) -> int:
    if type(data) is not int:
        raise TypeError(f"expected an integer, got {data!r}")
    return data


def _float(data: object) -> float:
    if type(data) is float:
        return data
    if type(data) is int or isinstance(data, float):  # NumPy scalars in process
        return float(data)
    raise TypeError(f"expected a number, got {data!r}")


def _str(data: object) -> str:
    if type(data) is not str:
        raise TypeError(f"expected a string, got {data!r}")
    return data


def _dict(data: object) -> dict:
    if type(data) is not dict:
        raise TypeError(f"expected an object, got {data!r}")
    return data


#: The keys each hand-written leaf form declares; a network position
#: sits on a ``node`` or on an ``edge`` at an ``offset``.
_POSITION_KEYS = {
    "euclidean": frozenset({"space", "x", "y"}),
    "node": frozenset({"space", "value"}),
    "network": frozenset({"space", "node"}),
    "edge": frozenset({"space", "edge", "offset"}),
}
_POLICY_KEYS = frozenset({"name", "kind", "objective", "strategy", "tile_config"})
_POI_KEYS = frozenset({"position", "payload"})


def leaf_fields(data: object, what: str, keys: frozenset) -> dict:
    """``data`` as a hand-written leaf's dict with no key outside ``keys``."""
    if type(data) is not dict:
        raise MalformedEnvelopeError(f"not a wire-encoded {what}: {data!r}")
    if not data.keys() <= keys:
        raise MalformedEnvelopeError(f"unknown {what} field(s) {sorted(data.keys() - keys)}")
    return data


def _network_position_cls():
    """`NetworkPosition` when the network stack is importable, else None."""
    try:
        from repro.network_ext.space import NetworkPosition
    except ImportError:  # pragma: no cover - exercised only without networkx
        return None
    return NetworkPosition


def encode_node(node: object) -> object:
    """A graph node as JSON: scalars pass through, tuples are tagged."""
    if node is None or isinstance(node, _JSON_SCALARS):
        return node
    if isinstance(node, tuple):
        return {"tuple": [encode_node(x) for x in node]}
    raise EnvelopeError(
        f"graph node {node!r} has no wire form (JSON scalars and tuples only)"
    )


def decode_node(data: object) -> object:
    if data is None or isinstance(data, _JSON_SCALARS):
        return data
    if isinstance(data, dict) and set(data) == {"tuple"}:
        return tuple(decode_node(x) for x in data["tuple"])
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
            return {"space": "network", "node": encode_node(position.node)}
        u, v = position.edge
        return {
            "space": "network",
            "edge": [encode_node(u), encode_node(v)],
            "offset": position.offset,
        }
    return {"space": "node", "value": encode_node(position)}


def decode_position(data: object) -> object:
    kind = data.get("space") if type(data) is dict else None
    if kind == "network" and "node" not in data:
        kind = "edge"
    if type(kind) is not str or kind not in _POSITION_KEYS:
        raise MalformedEnvelopeError(f"not a wire-encoded position: {data!r}")
    leaf_fields(data, "position", _POSITION_KEYS[kind])
    if kind == "euclidean":
        return Point(_float(data["x"]), _float(data["y"]))
    if kind == "node":
        return decode_node(data["value"])
    network_position = _network_position_cls()
    if network_position is None:  # pragma: no cover - no-networkx envs
        raise EnvelopeError(
            "decoding a network position needs the network stack "
            "(install the 'network' extra)"
        )
    if kind == "network":
        return network_position.at_node(decode_node(data["node"]))
    u, v = data["edge"]
    return network_position.on_edge(decode_node(u), decode_node(v), _float(data["offset"]))


def _tile_config_class(tag: object) -> Optional[type]:
    """Wire tag -> tile configuration class; only ``"network"`` imports
    the network stack (None when unknown or not installed)."""
    if tag == "euclidean":
        return TileMSRConfig
    if tag != "network":
        return None
    try:
        from repro.network_ext.tile_msr import NetworkTileConfig
    except ImportError:  # pragma: no cover - exercised only without networkx
        return None
    return NetworkTileConfig


def _encode_tile_config(config: object) -> Optional[dict]:
    """A tile configuration as ``{"type": tag, <fields>}``."""
    if config is None:
        return None
    tag = "euclidean" if isinstance(config, TileMSRConfig) else "network"
    cls = _tile_config_class(tag)
    if cls is None or not isinstance(config, cls):
        raise EnvelopeError(
            f"tile config {type(config).__name__} has no wire form"
        )
    return {"type": tag, **encode_record(config)}


def _decode_tile_config(data: object) -> object:
    if data is None:
        return None
    if not isinstance(data, dict):
        raise MalformedEnvelopeError(f"not a wire-encoded tile config: {data!r}")
    fields = dict(data)
    kind = fields.pop("type", None)
    cls = _tile_config_class(kind)
    if cls is None:
        raise MalformedEnvelopeError(f"unknown tile config type {kind!r}")
    return _codec(cls)[1](fields)


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
    leaf_fields(data, "policy", _POLICY_KEYS)
    kind = data.get("kind")
    strategy = data.get("strategy")
    return Policy(
        name=_str(data["name"]),
        kind=None if kind is None else PolicyKind(kind),
        objective=Aggregate(data["objective"]),
        tile_config=_decode_tile_config(data.get("tile_config")),
        strategy=None if strategy is None else _str(strategy),
    )


def _encode_poi(item: tuple[object, object]) -> dict:
    """A POI insert/delete: its position plus a JSON-scalar payload."""
    position, payload = item
    if payload is not None and not isinstance(payload, _JSON_SCALARS):
        raise EnvelopeError(
            f"POI payload {payload!r} has no wire form (JSON scalars only)"
        )
    return {"position": encode_position(position), "payload": payload}


def _decode_poi(data: object) -> tuple[object, object]:
    payload = leaf_fields(data, "POI item", _POI_KEYS)["payload"]
    if payload is not None and not isinstance(payload, _JSON_SCALARS):
        raise TypeError(f"POI payload {payload!r} is not a JSON scalar")
    return decode_position(data["position"]), payload


def _encode_space_ref(space: Union[None, str, Space]) -> Optional[str]:
    if space is None or isinstance(space, str):
        return space
    raise EnvelopeError(
        "a live space cannot cross the wire; register it on the backend "
        "(add_space) and reference it by name"
    )


def _decode_space_ref(data: object) -> Optional[str]:
    return None if data is None else _str(data)


# ----------------------------------------------------------------------
# The field-driven codec
# ----------------------------------------------------------------------

#: Resolved annotation -> (encode, decode); ``encode`` None = as is.
_LEAVES: dict[object, tuple] = {
    int: (None, _int),
    float: (None, _float),
    str: (None, _str),
    dict: (None, _dict),
    object: (encode_position, decode_position),
    Point: (encode_position, decode_position),
    Policy: (encode_policy, decode_policy),
    tuple[object, object]: (_encode_poi, _decode_poi),
    Union[None, str, Space]: (_encode_space_ref, _decode_space_ref),
}


@functools.cache
def _codec(tp: object) -> tuple:
    """The (encode, decode) pair for one resolved annotation, built once."""
    return _LEAVES.get(tp) or _derive(tp)


def _array(data: object) -> list:
    if not isinstance(data, (list, tuple)):
        raise TypeError(f"expected an array, got {data!r}")
    return data


def _derive(tp: object) -> tuple:
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is Union and type(None) in args:
        enc, dec = _codec(Union[tuple(a for a in args if a is not type(None))])
        return (
            None if enc is None else (lambda v: None if v is None else enc(v)),
            lambda d: None if d is None else dec(d),
        )
    if origin is tuple and len(args) == 2 and args[1] is Ellipsis:
        enc, dec = _codec(args[0])
        return (
            list if enc is None else (lambda v: [enc(x) for x in v]),
            lambda d: tuple([dec(x) for x in _array(d)]),
        )
    if origin is tuple:
        codecs = [_codec(a) for a in args]
        encs = [enc or (lambda x: x) for enc, _ in codecs]
        decs = [dec for _, dec in codecs]

        def decode_fixed(d: object) -> tuple:
            if len(_array(d)) != len(decs):
                raise ValueError(f"expected {len(decs)} items, got {d!r}")
            return tuple([f(x) for f, x in zip(decs, d)])

        return (lambda v: [f(x) for f, x in zip(encs, v)], decode_fixed)
    if isinstance(tp, type) and issubclass(tp, Enum):
        return (lambda e: e.value, tp)
    if dataclasses.is_dataclass(tp):
        return _record_codec(tp)
    raise TypeError(f"no wire codec for {tp!r}")


def _record_codec(cls: type) -> tuple:
    """Encode / decode a dataclass field by field, in declaration order;
    an envelope class (one with an ``op``) adds the ``op``/``v`` header."""
    hints = typing.get_type_hints(cls)
    encoders, decoders = [], []
    for f in dataclasses.fields(cls):
        enc, dec = _codec(hints[f.name])
        required = (
            f.default is dataclasses.MISSING
            and f.default_factory is dataclasses.MISSING
        )
        encoders.append((f.name, enc))
        decoders.append((f.name, dec, required))
    op = getattr(cls, "op", None)
    header = {} if op is None else {"op": op, "v": SCHEMA_VERSION}

    def encode(record: object) -> dict:
        out = header.copy()
        for name, enc in encoders:
            value = getattr(record, name)
            out[name] = value if enc is None else enc(value)
        return out

    def decode(data: object):
        if op is not None:
            _check_envelope(data, op)
        elif type(data) is not dict:
            raise TypeError(f"not a wire-encoded {cls.__name__}: {data!r}")
        kwargs = {}
        for name, dec, required in decoders:
            if required or name in data:
                kwargs[name] = dec(data[name])
        if len(data) != len(header) + len(kwargs):
            unknown = sorted(set(data) - set(header) - set(kwargs))
            raise ValueError(f"unknown {cls.__name__} field(s) {unknown}")
        return cls(**kwargs)

    return encode, decode


def _check_envelope(data: object, op: Optional[str] = None) -> dict:
    """``data`` as an envelope of this schema (and of ``op``, if given)."""
    if not isinstance(data, dict):
        raise MalformedEnvelopeError(f"envelope must be a dict, got {type(data).__name__}")
    # Version before op: a newer-schema envelope must surface as
    # "upgrade required" (SchemaVersionError) even when it carries an
    # operation this build has never heard of.
    if data.get("v") != SCHEMA_VERSION:
        raise SchemaVersionError(data.get("v"), SCHEMA_VERSION)
    if op is not None and data.get("op") != op:
        raise MalformedEnvelopeError(
            f"expected op {op!r}, got {data.get('op')!r}"
        )
    return data


def encode_record(record: object) -> dict:
    """Any wire dataclass — envelope, payload or counter record — as a
    JSON-safe dict, by the three rules of this module."""
    return _codec(type(record))[0](record)


def decode_record(cls: type, data: object):
    """The inverse of :func:`encode_record`, under the one error rule:
    everything a broken payload raises surfaces as
    :class:`MalformedEnvelopeError`."""
    try:
        return _codec(cls)[1](data)
    except EnvelopeError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        label = getattr(cls, "op", cls.__name__)
        raise MalformedEnvelopeError(f"malformed {label!r} envelope: {exc}") from exc


class _Wire:
    """Base of the wire dataclasses: both directions go through the codec."""

    def to_dict(self) -> dict:
        return encode_record(self)

    @classmethod
    def from_dict(cls, data: object):
        return decode_record(cls, data)


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class OpenSessionRequest(_Wire):
    """Register a group under a policy (``MPNService.open_session``).

    ``space`` names a backend-registered space (``None`` = default).
    A live ``space`` object is an in-process extra: ``dispatch``
    honors it, ``to_dict`` refuses to serialize it.
    ``session_id`` pins the id the session registers under (schema v2;
    ``None`` = let the backend number it) — the hook a sharded front
    door uses to keep globally-routed numbering on remote workers.
    """

    op: ClassVar[str] = "open_session"

    members: tuple[MemberState, ...]
    policy: Policy
    space: Union[None, str, Space] = None
    session_id: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", tuple(self.members))


Probes = Optional[tuple[tuple[int, MemberState], ...]]


@dataclass(frozen=True)
class ReportRequest(_Wire):
    """Step 1 of Fig. 3 over the wire: one member escaped and reports.

    ``probes`` (schema v2) carries fresh states the client side gathered
    for the *other* members at report time.  The server applies them in
    the probe round, which charges the same probe messages whichever
    states ride along, so remote fleets account identically to local
    ones.
    """

    op: ClassVar[str] = "report"

    session_id: int
    member_id: int
    state: MemberState
    probes: Probes = None

    def __post_init__(self) -> None:
        if self.probes is not None:
            object.__setattr__(self, "probes", tuple(self.probes))


@dataclass(frozen=True)
class ReportManyRequest(_Wire):
    """A whole wave of escape reports (``MPNService.report_many``)."""

    op: ClassVar[str] = "report_many"

    events: tuple[ReportEvent, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))


@dataclass(frozen=True)
class UpdateLocationsRequest(_Wire):
    """Refresh every member's state at once (the already-probed path)."""

    op: ClassVar[str] = "update_locations"

    session_id: int
    members: tuple[MemberState, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", tuple(self.members))


@dataclass(frozen=True)
class UpdatePoisRequest(_Wire):
    """A batch of POI inserts/deletes against one space's index.

    ``adds`` and ``removes`` default to empty, so either may be left
    off the wire."""

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


@dataclass(frozen=True)
class UpdatePolicyRequest(_Wire):
    """Swap a session's policy (takes effect at the next recomputation)."""

    op: ClassVar[str] = "update_policy"

    session_id: int
    policy: Policy


@dataclass(frozen=True)
class CloseSessionRequest(_Wire):
    """Tear a session down."""

    op: ClassVar[str] = "close_session"

    session_id: int


# ----------------------------------------------------------------------
# Responses
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class NotificationPayload(_Wire):
    """The wire form of a :class:`~repro.service.messages.Notification`.

    Carries the new meeting point, each member's safe region — both its
    wire size in doubles (the payload the paper's message model
    accounts) and, since schema version 2, its *geometry* by value
    (:mod:`repro.service.regions`) — plus the cause: what step 3 of
    Fig. 3 pushes to a member, and nothing the server measured.
    ``regions`` holds the wire-encoded dicts, aligned with
    ``region_values``; :meth:`live_regions` rebuilds the live objects
    (network regions need the session's space).
    """

    session_id: int
    po: object
    region_values: tuple[int, ...]
    cause: str
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


@dataclass(frozen=True)
class OpenSessionResponse(_Wire):
    """The wire form of a :class:`~repro.service.messages.SessionHandle`."""

    op: ClassVar[str] = "open_session.response"

    session_id: int
    size: int
    strategy_name: str
    policy: Policy
    notification: NotificationPayload


@dataclass(frozen=True)
class ReportResponse(_Wire):
    """``None`` notification = the reported point was still in-region
    (sent as an explicit ``null``: the key itself is required)."""

    op: ClassVar[str] = "report.response"

    session_id: int
    notification: Optional[NotificationPayload]


@dataclass(frozen=True)
class ReportManyResponse(_Wire):
    """One entry per event, aligned with the request's event order."""

    op: ClassVar[str] = "report_many.response"

    notifications: tuple[Optional[NotificationPayload], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "notifications", tuple(self.notifications))


@dataclass(frozen=True)
class UpdateLocationsResponse(_Wire):
    op: ClassVar[str] = "update_locations.response"

    notification: NotificationPayload


@dataclass(frozen=True)
class UpdatePoisResponse(_Wire):
    """One notification per re-notified (Lemma-1-invalidated) session."""

    op: ClassVar[str] = "update_pois.response"

    notifications: tuple[NotificationPayload, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "notifications", tuple(self.notifications))


@dataclass(frozen=True)
class UpdatePolicyResponse(_Wire):
    op: ClassVar[str] = "update_policy.response"

    session_id: int


@dataclass(frozen=True)
class CloseSessionResponse(_Wire):
    op: ClassVar[str] = "close_session.response"

    session_id: int


# ----------------------------------------------------------------------
# Snapshots: full session state by value (elastic operations)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SessionSnapshot(_Wire):
    """One live session's full state as a wire envelope.

    The serialization substrate for live migration: everything a fresh
    shard — possibly a fresh worker *process* — needs to keep serving a
    session exactly where the old shard left off.  Members carry their
    last-reported states, ``regions`` the current safe regions as
    :mod:`repro.service.regions` codecs (bit-identical on decode), and
    ``metrics`` the per-session counters as a JSON-safe dict
    (:func:`encode_record` of a
    :class:`~repro.simulation.metrics.SimulationMetrics`).  ``space``
    names the backend-registered space the session runs on (``None`` =
    default); the importing side resolves it against its own registry
    and re-resolves the strategy from ``policy``, so nothing live
    crosses the wire: the snapshot is the session's whole state.  ``po``,
    ``regions`` and ``metrics`` have no defaults, so their keys are
    required (``po`` may be ``null``).
    """

    op: ClassVar[str] = "session_snapshot"

    session_id: int
    policy: Policy
    members: tuple[MemberState, ...]
    po: Optional[object]
    regions: tuple[dict, ...]
    metrics: dict
    space: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", tuple(self.members))
        object.__setattr__(self, "regions", tuple(self.regions))
        object.__setattr__(self, "metrics", dict(self.metrics))


@dataclass(frozen=True)
class ServiceSnapshot(_Wire):
    """A whole shard by value: every session plus the id watermark.

    The failover/restore envelope: ``MPNService.snapshot()`` produces
    one, ``restore()`` replays it into an empty (or disjoint) service.
    ``next_id`` carries the numbering watermark so a restored shard
    never re-issues an id the snapshotted one already handed out;
    ``sessions`` has no default, so its key is required.
    """

    op: ClassVar[str] = "service_snapshot"

    sessions: tuple[SessionSnapshot, ...]
    next_id: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "sessions", tuple(self.sessions))


@dataclass(frozen=True)
class ErrorResponse(_Wire):
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

REQUEST_TYPES: dict[str, type] = {cls.op: cls for cls in typing.get_args(Request)}
RESPONSE_TYPES: dict[str, type] = {cls.op: cls for cls in typing.get_args(Response)}


def _from_tagged_dict(data: object, types: dict[str, type], kind: str):
    op = _check_envelope(data).get("op")
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
