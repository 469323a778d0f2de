"""Property tests for the wire envelopes of :mod:`repro.service.api`.

Every request/response envelope must

* round-trip by value: ``from_dict(to_dict(x)) == x``;
* survive an actual JSON ``dumps``/``loads`` hop unchanged;
* reject unknown schema versions (:class:`SchemaVersionError`) and
  structurally broken payloads (:class:`MalformedEnvelopeError`);
* refuse to serialize in-process-only state (live spaces, non-scalar
  POI payloads) instead of silently dropping it.

Positions, member states and policies — Euclidean and road-network —
are generated by Hypothesis; the end-to-end class at the bottom drives
a real :class:`MPNService` exclusively through ``dispatch`` with every
envelope pushed through JSON both ways.
"""

from __future__ import annotations

import dataclasses
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.types import Ordering, TileMSRConfig, VerifierKind
from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.geometry.region import TileRegion
from repro.geometry.tile import Tile
from repro.gnn.aggregate import Aggregate
from repro.network_ext.space import NetworkPosition
from repro.service import (
    ERROR_CODES,
    SCHEMA_VERSION,
    CloseSessionRequest,
    CloseSessionResponse,
    EnvelopeError,
    ErrorResponse,
    MalformedEnvelopeError,
    MemberState,
    MPNService,
    NotificationPayload,
    OpenSessionRequest,
    OpenSessionResponse,
    ReportEvent,
    ReportManyRequest,
    ReportManyResponse,
    ReportRequest,
    ReportResponse,
    SchemaVersionError,
    ServiceSnapshot,
    UnknownSessionError,
    UnknownSpaceError,
    UnknownStrategyError,
    UpdateLocationsRequest,
    UpdateLocationsResponse,
    UpdatePoisRequest,
    UpdatePoisResponse,
    UpdatePolicyRequest,
    UpdatePolicyResponse,
    decode_region,
    encode_region,
    error_response_for,
    raise_error_response,
    request_from_dict,
    response_from_dict,
)
from repro.service.api import (
    decode_position,
    decode_record,
    encode_position,
    encode_record,
)
from repro.simulation.metrics import SimulationMetrics
from repro.simulation.policies import (
    Policy,
    circle_policy,
    custom_policy,
    net_circle_policy,
    net_tile_policy,
    tile_d_b_policy,
    tile_policy,
)
from repro.workloads.poi import build_poi_tree, uniform_pois
from tests.conftest import SMALL_WORLD

# ----------------------------------------------------------------------
# Value strategies
# ----------------------------------------------------------------------

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
coords = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)

points = st.builds(Point, coords, coords)

nodes = st.one_of(
    st.integers(-(2**31), 2**31),
    st.text(max_size=12),
    st.tuples(st.integers(0, 99), st.integers(0, 99)),
)

network_positions = st.one_of(
    st.builds(NetworkPosition.at_node, nodes),
    st.builds(
        NetworkPosition.on_edge,
        nodes,
        nodes,
        st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
    ),
)

positions = st.one_of(points, network_positions, nodes)

member_states = st.builds(
    MemberState,
    point=points,
    heading=st.none() | finite,
    theta=st.none() | finite,
)

objectives = st.sampled_from([Aggregate.MAX, Aggregate.SUM])

tile_configs = st.builds(
    TileMSRConfig,
    alpha=st.integers(1, 200),
    split_level=st.integers(0, 4),
    ordering=st.sampled_from(list(Ordering)),
    verifier=st.sampled_from(list(VerifierKind)),
    objective=objectives,
    buffer_b=st.none() | st.integers(1, 500),
    theta=st.floats(min_value=0.1, max_value=math.pi, allow_nan=False),
    max_layer=st.integers(1, 64),
)

policies = st.one_of(
    st.builds(lambda obj: circle_policy(obj), objectives),
    st.builds(
        lambda name, cfg: Policy(name, None, cfg.objective, cfg, "tile"),
        st.text(min_size=1, max_size=16),
        tile_configs,
    ),
    st.builds(lambda obj: tile_policy(objective=obj), objectives),
    st.builds(lambda b: tile_d_b_policy(b=b), st.integers(1, 300)),
    st.builds(
        lambda name, strategy, obj: custom_policy(name, strategy, obj),
        st.text(min_size=1, max_size=16),
        st.text(min_size=1, max_size=16),
        objectives,
    ),
    st.builds(lambda obj: net_circle_policy(obj), objectives),
    st.builds(
        lambda a, s, f: net_tile_policy(
            alpha=a, split_level=s, max_radius_factor=f
        ),
        st.integers(1, 64),
        st.integers(0, 4),
        st.floats(min_value=1.0, max_value=32.0, allow_nan=False),
    ),
)

payloads = st.none() | st.integers(-(2**31), 2**31) | st.text(max_size=8) | st.booleans()

poi_items = st.lists(st.tuples(positions, payloads), max_size=4).map(tuple)

probes = st.none() | st.lists(
    st.tuples(st.integers(0, 64), member_states), max_size=3
).map(tuple)

report_events = st.builds(
    ReportEvent,
    session_id=st.integers(0, 2**31),
    member_id=st.integers(0, 64),
    state=member_states,
    probes=probes,
)

notification_payloads = st.builds(
    NotificationPayload,
    session_id=st.integers(0, 2**31),
    po=positions,
    region_values=st.lists(st.integers(0, 10**4), max_size=6).map(tuple),
    cause=st.sampled_from(["register", "report", "refresh", "poi_update"]),
)

optional_notifications = st.none() | notification_payloads

# One strategy per envelope type, requests and responses alike.
envelopes = st.one_of(
    st.builds(
        OpenSessionRequest,
        members=st.lists(member_states, min_size=1, max_size=5).map(tuple),
        policy=policies,
        space=st.none() | st.text(min_size=1, max_size=12),
        session_id=st.none() | st.integers(0, 2**31),
    ),
    st.builds(
        ReportRequest,
        session_id=st.integers(0, 2**31),
        member_id=st.integers(0, 64),
        state=member_states,
        probes=probes,
    ),
    st.builds(
        ReportManyRequest,
        events=st.lists(report_events, max_size=5).map(tuple),
    ),
    st.builds(
        UpdateLocationsRequest,
        session_id=st.integers(0, 2**31),
        members=st.lists(member_states, min_size=1, max_size=5).map(tuple),
    ),
    st.builds(
        UpdatePoisRequest,
        adds=poi_items,
        removes=poi_items,
        space=st.none() | st.text(min_size=1, max_size=12),
    ),
    st.builds(
        UpdatePolicyRequest,
        session_id=st.integers(0, 2**31),
        policy=policies,
    ),
    st.builds(CloseSessionRequest, session_id=st.integers(0, 2**31)),
    st.builds(
        OpenSessionResponse,
        session_id=st.integers(0, 2**31),
        size=st.integers(1, 64),
        strategy_name=st.text(min_size=1, max_size=16),
        policy=policies,
        notification=notification_payloads,
    ),
    st.builds(
        ReportResponse,
        session_id=st.integers(0, 2**31),
        notification=optional_notifications,
    ),
    st.builds(
        ReportManyResponse,
        notifications=st.lists(optional_notifications, max_size=5).map(tuple),
    ),
    st.builds(UpdateLocationsResponse, notification=notification_payloads),
    st.builds(
        UpdatePoisResponse,
        notifications=st.lists(notification_payloads, max_size=4).map(tuple),
    ),
    st.builds(UpdatePolicyResponse, session_id=st.integers(0, 2**31)),
    st.builds(CloseSessionResponse, session_id=st.integers(0, 2**31)),
    st.builds(
        ErrorResponse,
        code=st.sampled_from(ERROR_CODES),
        message=st.text(max_size=40),
        details=st.dictionaries(
            st.text(max_size=8),
            st.none() | st.integers() | st.booleans() | st.text(max_size=8),
            max_size=3,
        ),
    ),
)

RESPONSE_OPS = {
    "open_session.response",
    "report.response",
    "report_many.response",
    "update_locations.response",
    "update_pois.response",
    "update_policy.response",
    "close_session.response",
    "error",
}


def roundtrip(envelope):
    """to_dict -> json -> from_dict, through the op-tagged decoders."""
    wire = json.loads(json.dumps(envelope.to_dict()))
    if wire["op"] in RESPONSE_OPS:
        return response_from_dict(wire)
    return request_from_dict(wire)


# ----------------------------------------------------------------------
# Round-trip properties
# ----------------------------------------------------------------------


class TestRoundTrips:
    @settings(max_examples=300, deadline=None)
    @given(envelope=envelopes)
    def test_every_envelope_survives_json(self, envelope):
        assert roundtrip(envelope) == envelope

    @settings(max_examples=150, deadline=None)
    @given(envelope=envelopes)
    def test_typed_from_dict_matches_generic(self, envelope):
        wire = json.loads(json.dumps(envelope.to_dict()))
        assert type(envelope).from_dict(wire) == envelope

    @settings(max_examples=150, deadline=None)
    @given(position=positions)
    def test_positions_round_trip_by_value(self, position):
        wire = json.loads(json.dumps(encode_position(position)))
        assert decode_position(wire) == position

    @settings(max_examples=100, deadline=None)
    @given(payload=notification_payloads)
    def test_notification_payload_round_trips(self, payload):
        wire = json.loads(json.dumps(payload.to_dict()))
        assert NotificationPayload.from_dict(wire) == payload


# ----------------------------------------------------------------------
# Rejection properties
# ----------------------------------------------------------------------


class TestRejection:
    @settings(max_examples=60, deadline=None)
    @given(envelope=envelopes, version=st.integers(-5, 50))
    def test_unknown_version_rejected(self, envelope, version):
        wire = envelope.to_dict()
        if version == SCHEMA_VERSION:
            version = SCHEMA_VERSION + 1
        wire["v"] = version
        with pytest.raises(SchemaVersionError):
            type(envelope).from_dict(wire)

    @settings(max_examples=60, deadline=None)
    @given(envelope=envelopes)
    def test_missing_version_rejected(self, envelope):
        wire = envelope.to_dict()
        del wire["v"]
        with pytest.raises(SchemaVersionError):
            type(envelope).from_dict(wire)

    @settings(max_examples=60, deadline=None)
    @given(envelope=envelopes, data=st.data())
    def test_missing_field_rejected(self, envelope, data):
        wire = envelope.to_dict()
        fields = sorted(set(wire) - {"op", "v"})
        if not fields:
            return
        victim = data.draw(st.sampled_from(fields))
        del wire[victim]
        # Every dropped payload field must surface as a malformed
        # envelope — except fields the decoder treats as optional.
        try:
            decoded = type(envelope).from_dict(wire)
        except MalformedEnvelopeError:
            return
        assert decoded != envelope or wire.get(victim) is None

    def test_wrong_op_rejected(self):
        wire = CloseSessionRequest(session_id=3).to_dict()
        wire["op"] = "open_session"
        with pytest.raises(MalformedEnvelopeError):
            OpenSessionRequest.from_dict(wire)
        wire["op"] = "no_such_op"
        with pytest.raises(MalformedEnvelopeError):
            request_from_dict(wire)
        with pytest.raises(MalformedEnvelopeError):
            response_from_dict(wire)

    def test_version_outranks_unknown_op(self):
        """A v2 envelope with a v2-only op means "upgrade required",
        not "malformed" — the version check must run first."""
        wire = {"op": "stream_subscribe", "v": SCHEMA_VERSION + 1}
        with pytest.raises(SchemaVersionError):
            request_from_dict(wire)
        with pytest.raises(SchemaVersionError):
            response_from_dict(wire)
        with pytest.raises(SchemaVersionError):
            OpenSessionRequest.from_dict(wire)

    def test_non_dict_rejected(self):
        for garbage in (None, 17, "envelope", ["op"]):
            with pytest.raises(MalformedEnvelopeError):
                request_from_dict(garbage)

    def test_malformed_member_payload_rejected(self):
        wire = ReportRequest(0, 0, MemberState(Point(1, 2))).to_dict()
        wire["state"] = {"point": {"space": "martian", "x": 1}}
        with pytest.raises(MalformedEnvelopeError):
            ReportRequest.from_dict(wire)
        wire["state"] = "not-a-member"
        with pytest.raises(MalformedEnvelopeError):
            ReportRequest.from_dict(wire)

    def test_live_space_refuses_the_wire(self):
        tree = build_poi_tree(uniform_pois(30, SMALL_WORLD, seed=1))
        service = MPNService(tree)
        request = OpenSessionRequest(
            members=(MemberState(Point(0, 0)),),
            policy=circle_policy(),
            space=service.space,
        )
        with pytest.raises(EnvelopeError, match="live space"):
            request.to_dict()
        churn = UpdatePoisRequest(adds=((Point(1, 1), None),), space=service.space)
        with pytest.raises(EnvelopeError, match="live space"):
            churn.to_dict()

    def test_object_payload_refuses_the_wire(self):
        churn = UpdatePoisRequest(adds=((Point(1, 1), object()),))
        with pytest.raises(EnvelopeError, match="payload"):
            churn.to_dict()

    @pytest.mark.parametrize("bad", [2.9, 2.0, True, "2", None])
    def test_integer_fields_are_exact(self, bad):
        """An int field takes a JSON integer only: 2.9 must not close
        session 2, nor ``true`` address session 1."""
        state = MemberState(Point(1.0, 2.0))
        probed = ReportRequest(2, 0, state, probes=((1, state),)).to_dict()
        note = NotificationPayload(2, Point(0.0, 0.0), (3,), "report").to_dict()
        wave = ReportManyRequest(events=(ReportEvent(2, 0, state),)).to_dict()
        cases = [
            (CloseSessionRequest, CloseSessionRequest(2).to_dict(), ("session_id",)),
            (ReportRequest, probed, ("member_id",)),
            (ReportRequest, probed, ("probes", 0, 0)),
            (NotificationPayload, note, ("region_values", 0)),
            (ReportManyRequest, wave, ("events", 0, "session_id")),
        ]
        for cls, wire, path in cases:
            wire = json.loads(json.dumps(wire))
            target = wire
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = bad
            with pytest.raises(MalformedEnvelopeError):
                cls.from_dict(wire)

    def test_float_fields_take_integers(self):
        wire = ReportRequest(2, 0, MemberState(Point(1.0, 2.0), 0.5)).to_dict()
        wire["state"] = {"point": {"space": "euclidean", "x": 1, "y": 2}, "heading": 3}
        decoded = ReportRequest.from_dict(wire)
        assert decoded.state == MemberState(Point(1.0, 2.0), 3.0)
        assert type(decoded.state.point.x) is float
        assert type(decoded.state.heading) is float
        wire["state"]["heading"] = "3"
        with pytest.raises(MalformedEnvelopeError):
            ReportRequest.from_dict(wire)

    @pytest.mark.parametrize("payload", [{"k": [1]}, [1], {}])
    def test_poi_payload_must_be_a_json_scalar(self, payload):
        """Decode accepts only what encode emits: a dict or list payload
        is malformed, never inserted."""
        for key in ("adds", "removes"):
            wire = UpdatePoisRequest(**{key: ((Point(1.0, 1.0), None),)}).to_dict()
            wire[key][0]["payload"] = payload
            with pytest.raises(MalformedEnvelopeError):
                UpdatePoisRequest.from_dict(wire)

    @pytest.mark.parametrize("space", [["x"], {"name": "x"}, 3])
    def test_space_must_be_a_name_or_null(self, space):
        service = MPNService(
            build_poi_tree(uniform_pois(30, SMALL_WORLD, seed=1))
        )
        handle = service.open_session([Point(1.0, 1.0)], circle_policy())
        for envelope in (
            OpenSessionRequest(members=(MemberState(Point(0, 0)),), policy=circle_policy()),
            UpdatePoisRequest(adds=((Point(1.0, 1.0), None),)),
            service.export_session(handle.session_id),
        ):
            wire = json.loads(json.dumps(envelope.to_dict()))
            wire["space"] = space
            with pytest.raises(MalformedEnvelopeError):
                type(envelope).from_dict(wire)

    def test_undeclared_field_rejected(self):
        wire = CloseSessionRequest(2).to_dict()
        wire["session_ids"] = [2]
        with pytest.raises(MalformedEnvelopeError, match="session_ids"):
            CloseSessionRequest.from_dict(wire)
        wire = ReportRequest(2, 0, MemberState(Point(1.0, 2.0))).to_dict()
        wire["state"]["speed"] = 4.0
        with pytest.raises(MalformedEnvelopeError, match="speed"):
            request_from_dict(wire)

    def test_policy_leaf_rejects_undeclared_keys(self):
        wire = UpdatePolicyRequest(4, circle_policy()).to_dict()
        wire["policy"]["bogus"] = 1
        with pytest.raises(MalformedEnvelopeError, match="bogus"):
            request_from_dict(wire)

    def test_tile_config_leaf_rejects_undeclared_keys_and_inexact_ints(self):
        for key, value in (("bogus", 1), ("alpha", 3.7)):
            wire = UpdatePolicyRequest(4, tile_policy(alpha=3, split_level=1)).to_dict()
            wire["policy"]["tile_config"][key] = value
            with pytest.raises(MalformedEnvelopeError, match="bogus|integer"):
                request_from_dict(wire)

    @pytest.mark.parametrize(
        "position, extra",
        [
            (Point(1.0, 2.0), "z"),
            ("depot", "x"),
            (NetworkPosition.at_node((1, 2)), "offset"),
            (NetworkPosition.on_edge("a", "b", 0.5), "node_"),
        ],
    )
    def test_position_leaf_rejects_undeclared_keys(self, position, extra):
        wire = UpdatePoisRequest(adds=((Point(0.0, 0.0), None),)).to_dict()
        wire["adds"][0]["position"] = {**encode_position(position), extra: 5}
        with pytest.raises(MalformedEnvelopeError, match=extra):
            request_from_dict(wire)

    def test_poi_leaf_rejects_undeclared_keys(self):
        wire = UpdatePoisRequest(removes=((Point(1.0, 1.0), "cafe"),)).to_dict()
        wire["removes"][0]["extra"] = 1
        with pytest.raises(MalformedEnvelopeError, match="extra"):
            request_from_dict(wire)

    @pytest.mark.parametrize("key, bad", [("cx", "1.5"), ("cy", True), ("ghost", 1.0)])
    def test_circle_region_leaf_is_exact(self, key, bad):
        wire = encode_region(Circle(Point(1.5, -2.0), 3.25))
        wire[key] = bad
        with pytest.raises(MalformedEnvelopeError):
            decode_region(wire)

    @pytest.mark.parametrize(
        "key, bad",
        [("ix", 3.7), ("iy", True), ("sub_path", [1.9]), ("rect", [0, 0, 1, "1"]), ("w", 1)],
    )
    def test_tile_region_leaf_is_exact(self, key, bad):
        region = TileRegion(Point(10.0, 20.0), 2.5)
        region.add(Tile(Rect(8.75, 18.75, 11.25, 21.25), 3, 0, (1,)))
        wire = encode_region(region)
        wire["tiles"][0][key] = bad
        with pytest.raises(MalformedEnvelopeError):
            decode_region(wire)
        # The same region through a notification is malformed too.
        note = NotificationPayload(1, Point(0.0, 0.0), (7,), "report", (wire,)).to_dict()
        with pytest.raises(MalformedEnvelopeError):
            NotificationPayload.from_dict(note).live_regions()


# ----------------------------------------------------------------------
# dispatch() end to end, JSON on both legs
# ----------------------------------------------------------------------


def wire_call(service, request):
    """Round a request through JSON, dispatch it, JSON the response."""
    sent = request_from_dict(json.loads(json.dumps(request.to_dict())))
    response = service.dispatch(sent)
    return response_from_dict(json.loads(json.dumps(response.to_dict())))


class TestDispatchEndToEnd:
    @pytest.fixture
    def service(self):
        return MPNService(build_poi_tree(uniform_pois(250, SMALL_WORLD, seed=9)))

    def test_full_session_lifecycle_over_the_wire(self, service, rng):
        members = tuple(
            MemberState(SMALL_WORLD.sample(rng)) for _ in range(3)
        )
        opened = wire_call(
            service,
            OpenSessionRequest(members=members, policy=circle_policy()),
        )
        assert isinstance(opened, OpenSessionResponse)
        assert opened.size == 3
        assert opened.policy == circle_policy()
        assert opened.notification.cause == "register"
        sid = opened.session_id

        # An escape report: the envelope answer must mirror the live one.
        target = SMALL_WORLD.sample(rng)
        reported = wire_call(
            service, ReportRequest(sid, 0, MemberState(target))
        )
        assert isinstance(reported, ReportResponse)
        assert reported.notification is not None
        assert reported.notification.po == service.session(sid).po
        assert len(reported.notification.region_values) == 3

        # In-region report -> None notification on the wire too.
        inside = service.session(sid).members[0].point
        quiet = wire_call(service, ReportRequest(sid, 0, MemberState(inside)))
        assert quiet.notification is None

        # A wave envelope.
        wave = wire_call(
            service,
            ReportManyRequest(
                events=(ReportEvent(sid, 1, MemberState(SMALL_WORLD.sample(rng))),)
            ),
        )
        assert isinstance(wave, ReportManyResponse)
        assert len(wave.notifications) == 1

        # Policy swap by value, then refresh all member locations.
        swapped = wire_call(
            service, UpdatePolicyRequest(sid, tile_policy(alpha=5, split_level=1))
        )
        assert swapped == UpdatePolicyResponse(session_id=sid)
        assert service.session(sid).policy.strategy_name == "tile"
        refreshed = wire_call(
            service,
            UpdateLocationsRequest(
                sid,
                tuple(MemberState(SMALL_WORLD.sample(rng)) for _ in range(3)),
            ),
        )
        assert isinstance(refreshed, UpdateLocationsResponse)
        assert refreshed.notification.cause == "refresh"

        # Churn through the wire: drop the session's meeting point.
        victim = service.session(sid).po
        churned = wire_call(
            service, UpdatePoisRequest(removes=((victim, None),))
        )
        assert isinstance(churned, UpdatePoisResponse)
        assert [n.session_id for n in churned.notifications] == [sid]
        assert churned.notifications[0].cause == "poi_update"

        closed = wire_call(service, CloseSessionRequest(sid))
        assert closed == CloseSessionResponse(session_id=sid)
        assert service.session_ids() == []

    def test_dispatch_honors_in_process_extras(self, service, rng):
        """A live space rides dispatch() in process, not the wire."""
        request = OpenSessionRequest(
            members=(MemberState(SMALL_WORLD.sample(rng)),) * 2,
            policy=circle_policy(),
            space=service.space,
        )
        response = service.dispatch(request)
        assert service.session(response.session_id).space is service.space
        with pytest.raises(EnvelopeError, match="live space"):
            request.to_dict()


# ----------------------------------------------------------------------
# ErrorResponse: the failure half of the wire (schema v2)
# ----------------------------------------------------------------------


class TestErrorEnvelopes:
    def test_error_response_round_trips_as_response(self):
        error = ErrorResponse(
            code="unknown_session",
            message="unknown session 7",
            details={"session_id": 7},
        )
        wire = json.loads(json.dumps(error.to_dict()))
        assert wire["op"] == "error"
        assert response_from_dict(wire) == error
        assert ErrorResponse.from_dict(wire) == error

    @pytest.mark.parametrize(
        "exc, code",
        [
            (SchemaVersionError(9, SCHEMA_VERSION), "schema_version"),
            (MalformedEnvelopeError("bad"), "malformed_envelope"),
            (EnvelopeError("no wire form"), "envelope"),
            (UnknownSessionError(3), "unknown_session"),
            (UnknownStrategyError("warp", ("circle",)), "unknown_strategy"),
            (UnknownSpaceError("mars", ("default",)), "unknown_space"),
            (ValueError("member 9 out of range"), "invalid_request"),
            (KeyError("missing"), "not_found"),
            (TimeoutError("too slow"), "timeout"),
            (RuntimeError("boom"), "internal"),
        ],
    )
    def test_exception_mapping_is_stable(self, exc, code):
        error = error_response_for(exc)
        assert error.code == code
        assert error.code in ERROR_CODES
        # Every envelope must survive JSON regardless of what the
        # exception carried.
        assert response_from_dict(json.loads(json.dumps(error.to_dict()))) == error

    def test_keyerror_message_drops_the_quotes(self):
        assert error_response_for(KeyError("roads")).message == "roads"

    def test_typed_exceptions_survive_the_round_trip(self):
        """raise_error_response rebuilds the *typed* exception, details
        intact — a remote driver sees exactly what a local one does."""
        for exc in (
            UnknownSessionError(41),
            UnknownStrategyError("warp", ("circle", "tile")),
            UnknownSpaceError("mars", ("default", "roads")),
            SchemaVersionError(9, SCHEMA_VERSION),
        ):
            error = ErrorResponse.from_dict(
                json.loads(json.dumps(error_response_for(exc).to_dict()))
            )
            with pytest.raises(type(exc)) as caught:
                raise_error_response(error)
            assert str(caught.value) == str(exc)
        error = error_response_for(UnknownSessionError(41))
        with pytest.raises(UnknownSessionError) as caught:
            raise_error_response(error)
        assert caught.value.session_id == 41

    @pytest.mark.parametrize(
        "code, expected",
        [
            ("invalid_request", ValueError),
            ("not_found", KeyError),
            ("timeout", TimeoutError),
            ("frame_too_large", ConnectionError),
            ("shutting_down", ConnectionError),
            ("internal", RuntimeError),
        ],
    )
    def test_untyped_codes_raise_sensible_exceptions(self, code, expected):
        with pytest.raises(expected):
            raise_error_response(ErrorResponse(code=code, message="m"))

    def test_details_are_always_json_safe(self):
        """Exception args that JSON cannot carry are repr'd, not lost."""
        error = error_response_for(UnknownSessionError(object()))
        json.dumps(error.to_dict())  # must not raise
        assert "object" in str(error.details["session_id"])

    def test_error_op_rejects_missing_code(self):
        wire = ErrorResponse(code="internal", message="m").to_dict()
        del wire["code"]
        with pytest.raises(MalformedEnvelopeError):
            ErrorResponse.from_dict(wire)


# ----------------------------------------------------------------------
# Region codecs: geometry by value (schema v2)
# ----------------------------------------------------------------------


def _region_roundtrip(region, space=None):
    wire = json.loads(json.dumps(encode_region(region)))
    return decode_region(wire, space=space)


class TestRegionCodecs:
    @pytest.fixture(scope="class")
    def service(self):
        return MPNService(build_poi_tree(uniform_pois(250, SMALL_WORLD, seed=9)))

    def _assert_bit_identical(self, original, decoded, probes_at):
        from tests.test_cluster_equivalence import region_key

        assert region_key(decoded) == region_key(original)
        for p in probes_at:
            assert decoded.contains_point(p) == original.contains_point(p)

    def test_circle_regions_round_trip(self, service, rng):
        handle = service.open_session(
            [SMALL_WORLD.sample(rng) for _ in range(3)], circle_policy()
        )
        probes_at = [SMALL_WORLD.sample(rng) for _ in range(50)]
        for region in service.session(handle.session_id).regions:
            self._assert_bit_identical(
                region, _region_roundtrip(region), probes_at
            )

    def test_tile_regions_round_trip(self, service, rng):
        handle = service.open_session(
            [SMALL_WORLD.sample(rng) for _ in range(2)],
            tile_policy(alpha=5, split_level=1),
        )
        probes_at = [SMALL_WORLD.sample(rng) for _ in range(50)]
        for region in service.session(handle.session_id).regions:
            decoded = _region_roundtrip(region)
            self._assert_bit_identical(region, decoded, probes_at)
            assert decoded.side == region.side

    def test_point_region_round_trips(self):
        from repro.geometry.region import PointRegion

        region = PointRegion(Point(3.25, -4.5))
        decoded = _region_roundtrip(region)
        assert decoded.location == region.location
        assert decoded.contains_point(Point(3.25, -4.5))

    def test_network_regions_round_trip(self, rng):
        from repro.transport.worker import GridNetworkSpaceFactory

        space = GridNetworkSpaceFactory()()
        service = MPNService(
            build_poi_tree(uniform_pois(80, SMALL_WORLD, seed=4))
        )
        service.add_space("roads", space)
        nodes = [
            NetworkPosition.at_node(n) for n in space.space.graph.nodes
        ]
        for policy in (net_circle_policy(), net_tile_policy(alpha=5, split_level=1)):
            handle = service.open_session(
                [rng.choice(nodes) for _ in range(2)], policy, space="roads"
            )
            probes_at = [rng.choice(nodes) for _ in range(25)]
            for region in service.session(handle.session_id).regions:
                decoded = _region_roundtrip(region, space=space)
                self._assert_bit_identical(region, decoded, probes_at)

    def test_network_region_needs_a_space(self, rng):
        from repro.transport.worker import GridNetworkSpaceFactory

        space = GridNetworkSpaceFactory()()
        service = MPNService(
            build_poi_tree(uniform_pois(80, SMALL_WORLD, seed=4))
        )
        service.add_space("roads", space)
        nodes = [
            NetworkPosition.at_node(n) for n in space.space.graph.nodes
        ]
        handle = service.open_session(
            [nodes[0], nodes[1]], net_circle_policy(), space="roads"
        )
        region = service.session(handle.session_id).regions[0]
        with pytest.raises(EnvelopeError, match="network space"):
            decode_region(encode_region(region))
        # A bare NetworkSpace works too (anything with a graph).
        decoded = decode_region(encode_region(region), space=space.space)
        assert decoded.contains_point(nodes[0]) == region.contains_point(nodes[0])

    def test_decode_rejects_garbage(self):
        with pytest.raises(MalformedEnvelopeError):
            decode_region("not-a-region")
        with pytest.raises(MalformedEnvelopeError):
            decode_region({"kind": "martian"})
        with pytest.raises(MalformedEnvelopeError):
            decode_region({"kind": "circle", "cx": 1.0})  # missing fields

    def test_encode_rejects_unknown_region_types(self):
        with pytest.raises(EnvelopeError, match="no wire form"):
            encode_region(object())

    def test_payload_ships_regions_by_value(self, service, rng):
        handle = service.open_session(
            [SMALL_WORLD.sample(rng) for _ in range(2)], circle_policy()
        )
        payload = NotificationPayload.from_notification(handle.notification)
        wire = json.loads(json.dumps(payload.to_dict()))
        live = NotificationPayload.from_dict(wire).live_regions()
        from tests.test_cluster_equivalence import region_key

        assert [region_key(r) for r in live] == [
            region_key(r) for r in handle.notification.regions
        ]


# ----------------------------------------------------------------------
# Counter records: SimulationMetrics through the same codec
# ----------------------------------------------------------------------


class TestCountersCodec:
    def test_metrics_encode_like_asdict(self):
        metrics = SimulationMetrics(timestamps=3, messages_up=7, server_cpu_seconds=0.25)
        wire = encode_record(metrics)
        assert json.dumps(wire) == json.dumps(dataclasses.asdict(metrics))
        assert decode_record(SimulationMetrics, json.loads(json.dumps(wire))) == metrics

    def test_unknown_counter_is_malformed_and_restores_nothing(self, rng):
        source = MPNService(build_poi_tree(uniform_pois(60, SMALL_WORLD, seed=3)))
        handle = source.open_session(
            [SMALL_WORLD.sample(rng) for _ in range(2)], circle_policy()
        )
        good = source.export_session(handle.session_id)
        bad = dataclasses.replace(
            good, session_id=good.session_id + 1, metrics={**good.metrics, "warp": 1}
        )
        target = MPNService(build_poi_tree(uniform_pois(60, SMALL_WORLD, seed=3)))
        with pytest.raises(MalformedEnvelopeError, match="warp") as caught:
            target.restore(ServiceSnapshot(sessions=(good, bad)))
        assert error_response_for(caught.value).code == "malformed_envelope"
        assert target.session_ids() == []
        with pytest.raises(MalformedEnvelopeError):
            target.import_session(bad)
        assert target.session_ids() == []


# ----------------------------------------------------------------------
# Probes: the other members' fresh states ride the report (schema v2)
# ----------------------------------------------------------------------


class TestSuppliedProbes:
    def _twins(self):
        pois = uniform_pois(250, SMALL_WORLD, seed=9)
        return (
            MPNService(build_poi_tree(pois)),
            MPNService(build_poi_tree(pois)),
        )

    def _report_twins(self, rng, probed):
        """The same escape served as ``report(probes=...)`` on one twin
        and as a one-event ``report_many`` wave on the other."""
        from tests.test_cluster_equivalence import notification_key
        from tests.test_service_batch_equivalence import counters

        single, waved = self._twins()
        members = [SMALL_WORLD.sample(rng) for _ in range(3)]
        fresh = [MemberState(SMALL_WORLD.sample(rng)) for _ in range(3)]
        probes = tuple((i, fresh[i]) for i in probed)
        h1 = single.open_session(members, circle_policy())
        h2 = waved.open_session(members, circle_policy())
        target = MemberState(SMALL_WORLD.sample(rng))
        want = single.report(h1.session_id, 0, target.point, probes=probes)
        (got,) = waved.report_many(
            [ReportEvent(h2.session_id, 0, target, probes=probes)]
        )
        assert notification_key(got) == notification_key(want)
        assert counters(single.metrics) == counters(waved.metrics)
        stored = waved.session(h2.session_id).members
        assert stored == single.session(h1.session_id).members
        for i in (1, 2):
            assert stored[i] == (
                fresh[i] if i in probed else MemberState(members[i])
            )

    def test_probes_ride_report_many_events(self, rng):
        self._report_twins(rng, probed=(1, 2))

    def test_partial_probes_ride_report_many_events(self, rng):
        """A member without a probe keeps her last state, and the round
        still charges all m − 1 probe pairs on both paths."""
        self._report_twins(rng, probed=(2,))

    def test_out_of_range_probes_rejected_before_mutation(self, rng):
        service, _ = self._twins()
        handle = service.open_session(
            [SMALL_WORLD.sample(rng) for _ in range(2)], circle_policy()
        )
        before = service.session(handle.session_id).members
        bad = [(7, MemberState(SMALL_WORLD.sample(rng)))]
        with pytest.raises(ValueError, match="out of range"):
            service.report(
                handle.session_id, 0, SMALL_WORLD.sample(rng), probes=bad
            )
        with pytest.raises(ValueError, match="out of range"):
            service.validate_events(
                [
                    ReportEvent(
                        handle.session_id,
                        0,
                        MemberState(SMALL_WORLD.sample(rng)),
                        probes=tuple(bad),
                    )
                ]
            )
        assert service.session(handle.session_id).members == before
