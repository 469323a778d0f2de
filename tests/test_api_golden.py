"""Golden wire bytes for every schema-v3 envelope.

A fixed corpus — every request and response op, ``ErrorResponse``,
``NotificationPayload``, ``SessionSnapshot`` and ``ServiceSnapshot`` —
whose compact JSON encodings were recorded once and are pinned here
byte for byte.  It covers Euclidean, network-node and network-edge
positions, tuple graph nodes, both tile-config kinds, probes present
and absent, ``None`` notifications and circle, tile and net-ball
regions.  Any codec change that alters a single byte on the wire
fails here; decoding each golden string must give the envelope back.
"""

from __future__ import annotations

import dataclasses
import json

import networkx as nx
import pytest

from repro.core.types import Ordering, TileMSRConfig, VerifierKind
from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.geometry.region import TileRegion
from repro.geometry.tile import Tile
from repro.gnn.aggregate import Aggregate
from repro.network_ext.ball import NetworkBall
from repro.network_ext.space import NetworkPosition, NetworkSpace
from repro.service import (
    CloseSessionRequest,
    CloseSessionResponse,
    ErrorResponse,
    MemberState,
    NotificationPayload,
    OpenSessionRequest,
    OpenSessionResponse,
    ReportEvent,
    ReportManyRequest,
    ReportManyResponse,
    ReportRequest,
    ReportResponse,
    ServiceSnapshot,
    SessionSnapshot,
    UpdateLocationsRequest,
    UpdateLocationsResponse,
    UpdatePoisRequest,
    UpdatePoisResponse,
    UpdatePolicyRequest,
    UpdatePolicyResponse,
    encode_region,
)
from repro.service.api import REQUEST_TYPES, RESPONSE_TYPES
from repro.simulation.metrics import SimulationMetrics
from repro.simulation.policies import (
    Policy,
    PolicyKind,
    circle_policy,
    custom_policy,
    net_tile_policy,
)


def _regions() -> dict[str, dict]:
    tiles = TileRegion(Point(10.0, 20.0), 2.5)
    tiles.add(Tile(Rect(8.75, 18.75, 11.25, 21.25), 0, 0))
    tiles.add(Tile(Rect(11.25, 18.75, 12.5, 20.0), 1, 0, (2,)))
    graph = nx.Graph()
    graph.add_edge((0, 0), (0, 1), length=1.5)
    graph.add_edge((0, 1), (1, 1), length=2.0)
    ball = NetworkBall(
        NetworkSpace(graph), NetworkPosition.on_edge((0, 0), (0, 1), 0.5), 2.0
    )
    return {
        "circle": encode_region(Circle(Point(1.5, -2.0), 3.25)),
        "tiles": encode_region(tiles),
        "net_ball": encode_region(ball),
    }


def _corpus() -> dict[str, object]:
    regions = _regions()
    euclid_tile = Policy(
        "Tile-D-b",
        PolicyKind.TILE,
        Aggregate.SUM,
        TileMSRConfig(
            alpha=12,
            split_level=1,
            ordering=Ordering.DIRECTED,
            verifier=VerifierKind.IT,
            objective=Aggregate.SUM,
            buffer_b=40,
            theta=0.75,
            max_layer=9,
        ),
    )
    net_tile = net_tile_policy(alpha=6, split_level=3, max_radius_factor=4.5)
    members = (
        MemberState(Point(1.5, -2.25), heading=0.5, theta=1.0),
        MemberState(Point(3, 4)),
    )
    net_members = (
        MemberState(NetworkPosition.at_node((2, 3))),
        MemberState(NetworkPosition.on_edge("a", "b", 0.25), heading=-1.5),
    )
    probes = ((0, MemberState(Point(7.0, 8.5))), (2, MemberState(Point(-1.0, 0.0), 2.0, 0.25)))
    circle_note = NotificationPayload(
        session_id=4,
        po=Point(5.5, 6.0),
        region_values=(3, 3),
        cause="report",
        regions=(regions["circle"], regions["circle"]),
    )
    tile_note = NotificationPayload(
        session_id=9,
        po=(4, 7),
        region_values=(13,),
        cause="poi_update",
        regions=(regions["tiles"],),
    )
    net_note = NotificationPayload(
        session_id=11,
        po=NetworkPosition.on_edge((0, 0), (0, 1), 1.25),
        region_values=(4, 4),
        cause="register",
        regions=(regions["net_ball"], regions["net_ball"]),
    )
    bare_note = NotificationPayload(
        session_id=2,
        po="depot",
        region_values=(),
        cause="refresh",
    )
    metrics = dataclasses.asdict(
        SimulationMetrics(
            timestamps=30,
            update_events=4,
            result_changes=2,
            messages_up=9,
            messages_down=8,
            packets_up=9,
            packets_down=12,
            server_cpu_seconds=0.03125,
            index_node_accesses=120,
            index_queries=6,
            tile_verifications=0,
            region_values_sent=24,
        )
    )
    snapshot = SessionSnapshot(
        session_id=4,
        policy=euclid_tile,
        members=members,
        po=Point(5.5, 6.0),
        regions=(regions["tiles"], regions["circle"]),
        metrics=metrics,
        space="roads",
    )
    empty_snapshot = SessionSnapshot(
        session_id=5,
        policy=circle_policy(),
        members=net_members,
        po=None,
        regions=(),
        metrics={},
    )
    return {
        "open_session.euclid": OpenSessionRequest(
            members=members, policy=euclid_tile, space="roads", session_id=7
        ),
        "open_session.network": OpenSessionRequest(
            members=net_members, policy=net_tile
        ),
        "report.probes": ReportRequest(4, 1, MemberState(Point(0.5, 0.25)), probes),
        "report.bare": ReportRequest(4, 0, MemberState(Point(-3.0, 2.0), 0.1, 0.2)),
        "report_many": ReportManyRequest(
            events=(
                ReportEvent(4, 1, MemberState(Point(9.0, 9.5)), probes),
                ReportEvent(11, 0, net_members[1]),
            )
        ),
        "report_many.empty": ReportManyRequest(events=()),
        "update_locations": UpdateLocationsRequest(3, members),
        "update_pois": UpdatePoisRequest(
            adds=(
                (Point(1.0, 2.0), "cafe"),
                (NetworkPosition.at_node((1, 1)), 17),
                ((0, (1, "x")), None),
            ),
            removes=((Point(4.5, 4.5), True), (NetworkPosition.on_edge(1, 2, 3.5), 2.5)),
            space="roads",
        ),
        "update_pois.default": UpdatePoisRequest(),
        "update_policy.circle": UpdatePolicyRequest(4, circle_policy(Aggregate.SUM)),
        "update_policy.custom": UpdatePolicyRequest(
            6, custom_policy("Mine", "net_circle", Aggregate.MAX)
        ),
        "close_session": CloseSessionRequest(12),
        "open_session.response": OpenSessionResponse(
            session_id=4,
            size=2,
            strategy_name="tile",
            policy=euclid_tile,
            notification=circle_note,
        ),
        "report.response.none": ReportResponse(session_id=4, notification=None),
        "report.response.tiles": ReportResponse(session_id=9, notification=tile_note),
        "report_many.response": ReportManyResponse(
            notifications=(None, net_note, circle_note, None)
        ),
        "update_locations.response": UpdateLocationsResponse(notification=bare_note),
        "update_pois.response": UpdatePoisResponse(
            notifications=(tile_note, net_note)
        ),
        "update_policy.response": UpdatePolicyResponse(session_id=4),
        "close_session.response": CloseSessionResponse(session_id=12),
        "error.details": ErrorResponse(
            code="unknown_space",
            message="unknown space 'mars'",
            details={"name": "mars", "available": ["default", "roads"]},
        ),
        "error.bare": ErrorResponse(code="internal", message="boom"),
        "notification_payload": net_note,
        "session_snapshot": snapshot,
        "session_snapshot.empty": empty_snapshot,
        "service_snapshot": ServiceSnapshot(
            sessions=(snapshot, empty_snapshot), next_id=12
        ),
        "service_snapshot.empty": ServiceSnapshot(sessions=()),
    }


CORPUS = _corpus()

GOLDEN: dict[str, str] = {
    'close_session': (
        '{"op":"close_session","v":3,"session_id":12}'
    ),
    'close_session.response': (
        '{"op":"close_session.response","v":3,"session_id":12}'
    ),
    'error.bare': (
        '{"op":"error","v":3,"code":"internal","message":"boom","details":{}}'
    ),
    'error.details': (
        '{"op":"error","v":3,"code":"unknown_space","message":"unknown space \'m'
        'ars\'","details":{"name":"mars","available":["default","roads"]}}'
    ),
    'notification_payload': (
        '{"session_id":11,"po":{"space":"network","edge":[{"tuple":[0,0]},{"tup'
        'le":[0,1]}],"offset":1.25},"region_values":[4,4],"cause":"register","r'
        'egions":[{"kind":"net_ball","center":{"space":"network","edge":[{"tupl'
        'e":[0,0]},{"tuple":[0,1]}],"offset":0.5},"r":2.0},{"kind":"net_ball","'
        'center":{"space":"network","edge":[{"tuple":[0,0]},{"tuple":[0,1]}],"o'
        'ffset":0.5},"r":2.0}]}'
    ),
    'open_session.euclid': (
        '{"op":"open_session","v":3,"members":[{"point":{"space":"euclidean","x'
        '":1.5,"y":-2.25},"heading":0.5,"theta":1.0},{"point":{"space":"euclide'
        'an","x":3,"y":4},"heading":null,"theta":null}],"policy":{"name":"Tile-'
        'D-b","kind":"tile","objective":"sum","strategy":null,"tile_config":{"t'
        'ype":"euclidean","alpha":12,"split_level":1,"ordering":"directed","ver'
        'ifier":"it","objective":"sum","buffer_b":40,"theta":0.75,"max_layer":9'
        '}},"space":"roads","session_id":7}'
    ),
    'open_session.network': (
        '{"op":"open_session","v":3,"members":[{"point":{"space":"network","nod'
        'e":{"tuple":[2,3]}},"heading":null,"theta":null},{"point":{"space":"ne'
        'twork","edge":["a","b"],"offset":0.25},"heading":-1.5,"theta":null}],"'
        'policy":{"name":"Net-Tile","kind":null,"objective":"max","strategy":"n'
        'et_tile","tile_config":{"type":"network","alpha":6,"split_level":3,"ma'
        'x_radius_factor":4.5}},"space":null,"session_id":null}'
    ),
    'open_session.response': (
        '{"op":"open_session.response","v":3,"session_id":4,"size":2,"strategy_'
        'name":"tile","policy":{"name":"Tile-D-b","kind":"tile","objective":"su'
        'm","strategy":null,"tile_config":{"type":"euclidean","alpha":12,"split'
        '_level":1,"ordering":"directed","verifier":"it","objective":"sum","buf'
        'fer_b":40,"theta":0.75,"max_layer":9}},"notification":{"session_id":4,'
        '"po":{"space":"euclidean","x":5.5,"y":6.0},"region_values":[3,3],"caus'
        'e":"report","regions":[{"kind":"circle","cx":1.5,"cy":-2.0,"r":3.25},{'
        '"kind":"circle","cx":1.5,"cy":-2.0,"r":3.25}]}}'
    ),
    'report.bare': (
        '{"op":"report","v":3,"session_id":4,"member_id":0,"state":{"point":{"s'
        'pace":"euclidean","x":-3.0,"y":2.0},"heading":0.1,"theta":0.2},"probes'
        '":null}'
    ),
    'report.probes': (
        '{"op":"report","v":3,"session_id":4,"member_id":1,"state":{"point":{"s'
        'pace":"euclidean","x":0.5,"y":0.25},"heading":null,"theta":null},"prob'
        'es":[[0,{"point":{"space":"euclidean","x":7.0,"y":8.5},"heading":null,'
        '"theta":null}],[2,{"point":{"space":"euclidean","x":-1.0,"y":0.0},"hea'
        'ding":2.0,"theta":0.25}]]}'
    ),
    'report.response.none': (
        '{"op":"report.response","v":3,"session_id":4,"notification":null}'
    ),
    'report.response.tiles': (
        '{"op":"report.response","v":3,"session_id":9,"notification":{"session_'
        'id":9,"po":{"space":"node","value":{"tuple":[4,7]}},"region_values":[1'
        '3],"cause":"poi_update","regions":[{"kind":"tiles","anchor":[10.0,20.0'
        '],"side":2.5,"tiles":[{"rect":[8.75,18.75,11.25,21.25],"ix":0,"iy":0,"'
        'sub_path":[]},{"rect":[11.25,18.75,12.5,20.0],"ix":1,"iy":0,"sub_path"'
        ':[2]}]}]}}'
    ),
    'report_many': (
        '{"op":"report_many","v":3,"events":[{"session_id":4,"member_id":1,"sta'
        'te":{"point":{"space":"euclidean","x":9.0,"y":9.5},"heading":null,"the'
        'ta":null},"probes":[[0,{"point":{"space":"euclidean","x":7.0,"y":8.5},'
        '"heading":null,"theta":null}],[2,{"point":{"space":"euclidean","x":-1.'
        '0,"y":0.0},"heading":2.0,"theta":0.25}]]},{"session_id":11,"member_id"'
        ':0,"state":{"point":{"space":"network","edge":["a","b"],"offset":0.25}'
        ',"heading":-1.5,"theta":null},"probes":null}]}'
    ),
    'report_many.empty': (
        '{"op":"report_many","v":3,"events":[]}'
    ),
    'report_many.response': (
        '{"op":"report_many.response","v":3,"notifications":[null,{"session_id"'
        ':11,"po":{"space":"network","edge":[{"tuple":[0,0]},{"tuple":[0,1]}],"'
        'offset":1.25},"region_values":[4,4],"cause":"register","regions":[{"ki'
        'nd":"net_ball","center":{"space":"network","edge":[{"tuple":[0,0]},{"t'
        'uple":[0,1]}],"offset":0.5},"r":2.0},{"kind":"net_ball","center":{"spa'
        'ce":"network","edge":[{"tuple":[0,0]},{"tuple":[0,1]}],"offset":0.5},"'
        'r":2.0}]},{"session_id":4,"po":{"space":"euclidean","x":5.5,"y":6.0},"'
        'region_values":[3,3],"cause":"report","regions":[{"kind":"circle","cx"'
        ':1.5,"cy":-2.0,"r":3.25},{"kind":"circle","cx":1.5,"cy":-2.0,"r":3.25}'
        ']},null]}'
    ),
    'service_snapshot': (
        '{"op":"service_snapshot","v":3,"sessions":[{"op":"session_snapshot","v'
        '":3,"session_id":4,"policy":{"name":"Tile-D-b","kind":"tile","objectiv'
        'e":"sum","strategy":null,"tile_config":{"type":"euclidean","alpha":12,'
        '"split_level":1,"ordering":"directed","verifier":"it","objective":"sum'
        '","buffer_b":40,"theta":0.75,"max_layer":9}},"members":[{"point":{"spa'
        'ce":"euclidean","x":1.5,"y":-2.25},"heading":0.5,"theta":1.0},{"point"'
        ':{"space":"euclidean","x":3,"y":4},"heading":null,"theta":null}],"po":'
        '{"space":"euclidean","x":5.5,"y":6.0},"regions":[{"kind":"tiles","anch'
        'or":[10.0,20.0],"side":2.5,"tiles":[{"rect":[8.75,18.75,11.25,21.25],"'
        'ix":0,"iy":0,"sub_path":[]},{"rect":[11.25,18.75,12.5,20.0],"ix":1,"iy'
        '":0,"sub_path":[2]}]},{"kind":"circle","cx":1.5,"cy":-2.0,"r":3.25}],"'
        'metrics":{"timestamps":30,"update_events":4,"result_changes":2,"messag'
        'es_up":9,"messages_down":8,"packets_up":9,"packets_down":12,"server_cp'
        'u_seconds":0.03125,"index_node_accesses":120,"index_queries":6,"tile_v'
        'erifications":0,"region_values_sent":24},"space":"roads"},{"op":"sessi'
        'on_snapshot","v":3,"session_id":5,"policy":{"name":"Circle","kind":"ci'
        'rcle","objective":"max","strategy":null,"tile_config":null},"members":'
        '[{"point":{"space":"network","node":{"tuple":[2,3]}},"heading":null,"t'
        'heta":null},{"point":{"space":"network","edge":["a","b"],"offset":0.25'
        '},"heading":-1.5,"theta":null}],"po":null,"regions":[],"metrics":{},"s'
        'pace":null}],"next_id":12}'
    ),
    'service_snapshot.empty': (
        '{"op":"service_snapshot","v":3,"sessions":[],"next_id":0}'
    ),
    'session_snapshot': (
        '{"op":"session_snapshot","v":3,"session_id":4,"policy":{"name":"Tile-D'
        '-b","kind":"tile","objective":"sum","strategy":null,"tile_config":{"ty'
        'pe":"euclidean","alpha":12,"split_level":1,"ordering":"directed","veri'
        'fier":"it","objective":"sum","buffer_b":40,"theta":0.75,"max_layer":9}'
        '},"members":[{"point":{"space":"euclidean","x":1.5,"y":-2.25},"heading'
        '":0.5,"theta":1.0},{"point":{"space":"euclidean","x":3,"y":4},"heading'
        '":null,"theta":null}],"po":{"space":"euclidean","x":5.5,"y":6.0},"regi'
        'ons":[{"kind":"tiles","anchor":[10.0,20.0],"side":2.5,"tiles":[{"rect"'
        ':[8.75,18.75,11.25,21.25],"ix":0,"iy":0,"sub_path":[]},{"rect":[11.25,'
        '18.75,12.5,20.0],"ix":1,"iy":0,"sub_path":[2]}]},{"kind":"circle","cx"'
        ':1.5,"cy":-2.0,"r":3.25}],"metrics":{"timestamps":30,"update_events":4'
        ',"result_changes":2,"messages_up":9,"messages_down":8,"packets_up":9,"'
        'packets_down":12,"server_cpu_seconds":0.03125,"index_node_accesses":12'
        '0,"index_queries":6,"tile_verifications":0,"region_values_sent":24},"s'
        'pace":"roads"}'
    ),
    'session_snapshot.empty': (
        '{"op":"session_snapshot","v":3,"session_id":5,"policy":{"name":"Circle'
        '","kind":"circle","objective":"max","strategy":null,"tile_config":null'
        '},"members":[{"point":{"space":"network","node":{"tuple":[2,3]}},"head'
        'ing":null,"theta":null},{"point":{"space":"network","edge":["a","b"],"'
        'offset":0.25},"heading":-1.5,"theta":null}],"po":null,"regions":[],"me'
        'trics":{},"space":null}'
    ),
    'update_locations': (
        '{"op":"update_locations","v":3,"session_id":3,"members":[{"point":{"sp'
        'ace":"euclidean","x":1.5,"y":-2.25},"heading":0.5,"theta":1.0},{"point'
        '":{"space":"euclidean","x":3,"y":4},"heading":null,"theta":null}]}'
    ),
    'update_locations.response': (
        '{"op":"update_locations.response","v":3,"notification":{"session_id":2'
        ',"po":{"space":"node","value":"depot"},"region_values":[],"cause":"ref'
        'resh","regions":[]}}'
    ),
    'update_pois': (
        '{"op":"update_pois","v":3,"adds":[{"position":{"space":"euclidean","x"'
        ':1.0,"y":2.0},"payload":"cafe"},{"position":{"space":"network","node":'
        '{"tuple":[1,1]}},"payload":17},{"position":{"space":"node","value":{"t'
        'uple":[0,{"tuple":[1,"x"]}]}},"payload":null}],"removes":[{"position":'
        '{"space":"euclidean","x":4.5,"y":4.5},"payload":true},{"position":{"sp'
        'ace":"network","edge":[1,2],"offset":3.5},"payload":2.5}],"space":"roa'
        'ds"}'
    ),
    'update_pois.default': (
        '{"op":"update_pois","v":3,"adds":[],"removes":[],"space":null}'
    ),
    'update_pois.response': (
        '{"op":"update_pois.response","v":3,"notifications":[{"session_id":9,"p'
        'o":{"space":"node","value":{"tuple":[4,7]}},"region_values":[13],"caus'
        'e":"poi_update","regions":[{"kind":"tiles","anchor":[10.0,20.0],"side"'
        ':2.5,"tiles":[{"rect":[8.75,18.75,11.25,21.25],"ix":0,"iy":0,"sub_path'
        '":[]},{"rect":[11.25,18.75,12.5,20.0],"ix":1,"iy":0,"sub_path":[2]}]}]'
        '},{"session_id":11,"po":{"space":"network","edge":[{"tuple":[0,0]},{"t'
        'uple":[0,1]}],"offset":1.25},"region_values":[4,4],"cause":"register",'
        '"regions":[{"kind":"net_ball","center":{"space":"network","edge":[{"tu'
        'ple":[0,0]},{"tuple":[0,1]}],"offset":0.5},"r":2.0},{"kind":"net_ball"'
        ',"center":{"space":"network","edge":[{"tuple":[0,0]},{"tuple":[0,1]}],'
        '"offset":0.5},"r":2.0}]}]}'
    ),
    'update_policy.circle': (
        '{"op":"update_policy","v":3,"session_id":4,"policy":{"name":"Circle","'
        'kind":"circle","objective":"sum","strategy":null,"tile_config":null}}'
    ),
    'update_policy.custom': (
        '{"op":"update_policy","v":3,"session_id":6,"policy":{"name":"Mine","ki'
        'nd":null,"objective":"max","strategy":"net_circle","tile_config":null}'
        '}'
    ),
    'update_policy.response': (
        '{"op":"update_policy.response","v":3,"session_id":4}'
    ),
}


def _wire(envelope) -> str:
    return json.dumps(envelope.to_dict(), separators=(",", ":"))


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_encodes_byte_for_byte(name):
    assert _wire(CORPUS[name]) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_golden_bytes_decode_to_the_envelope(name):
    envelope = CORPUS[name]
    assert type(envelope).from_dict(json.loads(GOLDEN[name])) == envelope


def test_corpus_covers_every_op():
    ops = {getattr(type(e), "op", None) for e in CORPUS.values()}
    assert set(REQUEST_TYPES) | set(RESPONSE_TYPES) <= ops
    assert {"session_snapshot", "service_snapshot"} <= ops
    assert set(GOLDEN) == set(CORPUS)
