"""Golden wire bytes for every schema-v2 envelope.

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

from repro.core.types import Ordering, SafeRegionStats, TileMSRConfig, VerifierKind
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
    stats = SafeRegionStats(3, 40, 17, 2, 5, 1, 0.0125)
    circle_note = NotificationPayload(
        session_id=4,
        po=Point(5.5, 6.0),
        region_values=(3, 3),
        cause="report",
        cpu_seconds=0.002,
        stats=stats,
        regions=(regions["circle"], regions["circle"]),
    )
    tile_note = NotificationPayload(
        session_id=9,
        po=(4, 7),
        region_values=(13,),
        cause="poi_update",
        cpu_seconds=0.5,
        stats=SafeRegionStats(),
        regions=(regions["tiles"],),
    )
    net_note = NotificationPayload(
        session_id=11,
        po=NetworkPosition.on_edge((0, 0), (0, 1), 1.25),
        region_values=(4, 4),
        cause="register",
        cpu_seconds=1e-05,
        stats=SafeRegionStats(index_queries=1, elapsed_seconds=2.5),
        regions=(regions["net_ball"], regions["net_ball"]),
    )
    bare_note = NotificationPayload(
        session_id=2,
        po="depot",
        region_values=(),
        cause="refresh",
        cpu_seconds=0.0,
        stats=SafeRegionStats(),
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
        '{"op":"close_session","v":2,"session_id":12}'
    ),
    'close_session.response': (
        '{"op":"close_session.response","v":2,"session_id":12}'
    ),
    'error.bare': (
        '{"op":"error","v":2,"code":"internal","message":"boom","details":{}}'
    ),
    'error.details': (
        '{"op":"error","v":2,"code":"unknown_space","message":"unknown space '
        '\'mars\'","details":{"name":"mars","available":["default","roads"]}}'
    ),
    'notification_payload': (
        '{"session_id":11,"po":{"space":"network","edge":[{"tuple":[0,0]},{"t'
        'uple":[0,1]}],"offset":1.25},"region_values":[4,4],"cause":"register'
        '","cpu_seconds":1e-05,"stats":{"tile_verifications":0,"point_checks"'
        ':0,"index_node_accesses":0,"index_queries":1,"tiles_added":0,"tiles_'
        'rejected":0,"elapsed_seconds":2.5},"regions":[{"kind":"net_ball","ce'
        'nter":{"space":"network","edge":[{"tuple":[0,0]},{"tuple":[0,1]}],"o'
        'ffset":0.5},"r":2.0},{"kind":"net_ball","center":{"space":"network",'
        '"edge":[{"tuple":[0,0]},{"tuple":[0,1]}],"offset":0.5},"r":2.0}]}'
    ),
    'open_session.euclid': (
        '{"op":"open_session","v":2,"members":[{"point":{"space":"euclidean",'
        '"x":1.5,"y":-2.25},"heading":0.5,"theta":1.0},{"point":{"space":"euc'
        'lidean","x":3,"y":4},"heading":null,"theta":null}],"policy":{"name":'
        '"Tile-D-b","kind":"tile","objective":"sum","strategy":null,"tile_con'
        'fig":{"type":"euclidean","alpha":12,"split_level":1,"ordering":"dire'
        'cted","verifier":"it","objective":"sum","buffer_b":40,"theta":0.75,"'
        'max_layer":9}},"space":"roads","session_id":7}'
    ),
    'open_session.network': (
        '{"op":"open_session","v":2,"members":[{"point":{"space":"network","n'
        'ode":{"tuple":[2,3]}},"heading":null,"theta":null},{"point":{"space"'
        ':"network","edge":["a","b"],"offset":0.25},"heading":-1.5,"theta":nu'
        'll}],"policy":{"name":"Net-Tile","kind":null,"objective":"max","stra'
        'tegy":"net_tile","tile_config":{"type":"network","alpha":6,"split_le'
        'vel":3,"max_radius_factor":4.5}},"space":null,"session_id":null}'
    ),
    'open_session.response': (
        '{"op":"open_session.response","v":2,"session_id":4,"size":2,"strateg'
        'y_name":"tile","policy":{"name":"Tile-D-b","kind":"tile","objective"'
        ':"sum","strategy":null,"tile_config":{"type":"euclidean","alpha":12,'
        '"split_level":1,"ordering":"directed","verifier":"it","objective":"s'
        'um","buffer_b":40,"theta":0.75,"max_layer":9}},"notification":{"sess'
        'ion_id":4,"po":{"space":"euclidean","x":5.5,"y":6.0},"region_values"'
        ':[3,3],"cause":"report","cpu_seconds":0.002,"stats":{"tile_verificat'
        'ions":3,"point_checks":40,"index_node_accesses":17,"index_queries":2'
        ',"tiles_added":5,"tiles_rejected":1,"elapsed_seconds":0.0125},"regio'
        'ns":[{"kind":"circle","cx":1.5,"cy":-2.0,"r":3.25},{"kind":"circle",'
        '"cx":1.5,"cy":-2.0,"r":3.25}]}}'
    ),
    'report.bare': (
        '{"op":"report","v":2,"session_id":4,"member_id":0,"state":{"point":{'
        '"space":"euclidean","x":-3.0,"y":2.0},"heading":0.1,"theta":0.2},"pr'
        'obes":null}'
    ),
    'report.probes': (
        '{"op":"report","v":2,"session_id":4,"member_id":1,"state":{"point":{'
        '"space":"euclidean","x":0.5,"y":0.25},"heading":null,"theta":null},"'
        'probes":[[0,{"point":{"space":"euclidean","x":7.0,"y":8.5},"heading"'
        ':null,"theta":null}],[2,{"point":{"space":"euclidean","x":-1.0,"y":0'
        '.0},"heading":2.0,"theta":0.25}]]}'
    ),
    'report.response.none': (
        '{"op":"report.response","v":2,"session_id":4,"notification":null}'
    ),
    'report.response.tiles': (
        '{"op":"report.response","v":2,"session_id":9,"notification":{"sessio'
        'n_id":9,"po":{"space":"node","value":{"tuple":[4,7]}},"region_values'
        '":[13],"cause":"poi_update","cpu_seconds":0.5,"stats":{"tile_verific'
        'ations":0,"point_checks":0,"index_node_accesses":0,"index_queries":0'
        ',"tiles_added":0,"tiles_rejected":0,"elapsed_seconds":0.0},"regions"'
        ':[{"kind":"tiles","anchor":[10.0,20.0],"side":2.5,"tiles":[{"rect":['
        '8.75,18.75,11.25,21.25],"ix":0,"iy":0,"sub_path":[]},{"rect":[11.25,'
        '18.75,12.5,20.0],"ix":1,"iy":0,"sub_path":[2]}]}]}}'
    ),
    'report_many': (
        '{"op":"report_many","v":2,"events":[{"session_id":4,"member_id":1,"s'
        'tate":{"point":{"space":"euclidean","x":9.0,"y":9.5},"heading":null,'
        '"theta":null},"probes":[[0,{"point":{"space":"euclidean","x":7.0,"y"'
        ':8.5},"heading":null,"theta":null}],[2,{"point":{"space":"euclidean"'
        ',"x":-1.0,"y":0.0},"heading":2.0,"theta":0.25}]]},{"session_id":11,"'
        'member_id":0,"state":{"point":{"space":"network","edge":["a","b"],"o'
        'ffset":0.25},"heading":-1.5,"theta":null},"probes":null}]}'
    ),
    'report_many.empty': (
        '{"op":"report_many","v":2,"events":[]}'
    ),
    'report_many.response': (
        '{"op":"report_many.response","v":2,"notifications":[null,{"session_i'
        'd":11,"po":{"space":"network","edge":[{"tuple":[0,0]},{"tuple":[0,1]'
        '}],"offset":1.25},"region_values":[4,4],"cause":"register","cpu_seco'
        'nds":1e-05,"stats":{"tile_verifications":0,"point_checks":0,"index_n'
        'ode_accesses":0,"index_queries":1,"tiles_added":0,"tiles_rejected":0'
        ',"elapsed_seconds":2.5},"regions":[{"kind":"net_ball","center":{"spa'
        'ce":"network","edge":[{"tuple":[0,0]},{"tuple":[0,1]}],"offset":0.5}'
        ',"r":2.0},{"kind":"net_ball","center":{"space":"network","edge":[{"t'
        'uple":[0,0]},{"tuple":[0,1]}],"offset":0.5},"r":2.0}]},{"session_id"'
        ':4,"po":{"space":"euclidean","x":5.5,"y":6.0},"region_values":[3,3],'
        '"cause":"report","cpu_seconds":0.002,"stats":{"tile_verifications":3'
        ',"point_checks":40,"index_node_accesses":17,"index_queries":2,"tiles'
        '_added":5,"tiles_rejected":1,"elapsed_seconds":0.0125},"regions":[{"'
        'kind":"circle","cx":1.5,"cy":-2.0,"r":3.25},{"kind":"circle","cx":1.'
        '5,"cy":-2.0,"r":3.25}]},null]}'
    ),
    'service_snapshot': (
        '{"op":"service_snapshot","v":2,"sessions":[{"op":"session_snapshot",'
        '"v":2,"session_id":4,"policy":{"name":"Tile-D-b","kind":"tile","obje'
        'ctive":"sum","strategy":null,"tile_config":{"type":"euclidean","alph'
        'a":12,"split_level":1,"ordering":"directed","verifier":"it","objecti'
        've":"sum","buffer_b":40,"theta":0.75,"max_layer":9}},"members":[{"po'
        'int":{"space":"euclidean","x":1.5,"y":-2.25},"heading":0.5,"theta":1'
        '.0},{"point":{"space":"euclidean","x":3,"y":4},"heading":null,"theta'
        '":null}],"po":{"space":"euclidean","x":5.5,"y":6.0},"regions":[{"kin'
        'd":"tiles","anchor":[10.0,20.0],"side":2.5,"tiles":[{"rect":[8.75,18'
        '.75,11.25,21.25],"ix":0,"iy":0,"sub_path":[]},{"rect":[11.25,18.75,1'
        '2.5,20.0],"ix":1,"iy":0,"sub_path":[2]}]},{"kind":"circle","cx":1.5,'
        '"cy":-2.0,"r":3.25}],"metrics":{"timestamps":30,"update_events":4,"r'
        'esult_changes":2,"messages_up":9,"messages_down":8,"packets_up":9,"p'
        'ackets_down":12,"server_cpu_seconds":0.03125,"index_node_accesses":1'
        '20,"index_queries":6,"tile_verifications":0,"region_values_sent":24}'
        ',"space":"roads"},{"op":"session_snapshot","v":2,"session_id":5,"pol'
        'icy":{"name":"Circle","kind":"circle","objective":"max","strategy":n'
        'ull,"tile_config":null},"members":[{"point":{"space":"network","node'
        '":{"tuple":[2,3]}},"heading":null,"theta":null},{"point":{"space":"n'
        'etwork","edge":["a","b"],"offset":0.25},"heading":-1.5,"theta":null}'
        '],"po":null,"regions":[],"metrics":{},"space":null}],"next_id":12}'
    ),
    'service_snapshot.empty': (
        '{"op":"service_snapshot","v":2,"sessions":[],"next_id":0}'
    ),
    'session_snapshot': (
        '{"op":"session_snapshot","v":2,"session_id":4,"policy":{"name":"Tile'
        '-D-b","kind":"tile","objective":"sum","strategy":null,"tile_config":'
        '{"type":"euclidean","alpha":12,"split_level":1,"ordering":"directed"'
        ',"verifier":"it","objective":"sum","buffer_b":40,"theta":0.75,"max_l'
        'ayer":9}},"members":[{"point":{"space":"euclidean","x":1.5,"y":-2.25'
        '},"heading":0.5,"theta":1.0},{"point":{"space":"euclidean","x":3,"y"'
        ':4},"heading":null,"theta":null}],"po":{"space":"euclidean","x":5.5,'
        '"y":6.0},"regions":[{"kind":"tiles","anchor":[10.0,20.0],"side":2.5,'
        '"tiles":[{"rect":[8.75,18.75,11.25,21.25],"ix":0,"iy":0,"sub_path":['
        ']},{"rect":[11.25,18.75,12.5,20.0],"ix":1,"iy":0,"sub_path":[2]}]},{'
        '"kind":"circle","cx":1.5,"cy":-2.0,"r":3.25}],"metrics":{"timestamps'
        '":30,"update_events":4,"result_changes":2,"messages_up":9,"messages_'
        'down":8,"packets_up":9,"packets_down":12,"server_cpu_seconds":0.0312'
        '5,"index_node_accesses":120,"index_queries":6,"tile_verifications":0'
        ',"region_values_sent":24},"space":"roads"}'
    ),
    'session_snapshot.empty': (
        '{"op":"session_snapshot","v":2,"session_id":5,"policy":{"name":"Circ'
        'le","kind":"circle","objective":"max","strategy":null,"tile_config":'
        'null},"members":[{"point":{"space":"network","node":{"tuple":[2,3]}}'
        ',"heading":null,"theta":null},{"point":{"space":"network","edge":["a'
        '","b"],"offset":0.25},"heading":-1.5,"theta":null}],"po":null,"regio'
        'ns":[],"metrics":{},"space":null}'
    ),
    'update_locations': (
        '{"op":"update_locations","v":2,"session_id":3,"members":[{"point":{"'
        'space":"euclidean","x":1.5,"y":-2.25},"heading":0.5,"theta":1.0},{"p'
        'oint":{"space":"euclidean","x":3,"y":4},"heading":null,"theta":null}'
        ']}'
    ),
    'update_locations.response': (
        '{"op":"update_locations.response","v":2,"notification":{"session_id"'
        ':2,"po":{"space":"node","value":"depot"},"region_values":[],"cause":'
        '"refresh","cpu_seconds":0.0,"stats":{"tile_verifications":0,"point_c'
        'hecks":0,"index_node_accesses":0,"index_queries":0,"tiles_added":0,"'
        'tiles_rejected":0,"elapsed_seconds":0.0},"regions":[]}}'
    ),
    'update_pois': (
        '{"op":"update_pois","v":2,"adds":[{"position":{"space":"euclidean","'
        'x":1.0,"y":2.0},"payload":"cafe"},{"position":{"space":"network","no'
        'de":{"tuple":[1,1]}},"payload":17},{"position":{"space":"node","valu'
        'e":{"tuple":[0,{"tuple":[1,"x"]}]}},"payload":null}],"removes":[{"po'
        'sition":{"space":"euclidean","x":4.5,"y":4.5},"payload":true},{"posi'
        'tion":{"space":"network","edge":[1,2],"offset":3.5},"payload":2.5}],'
        '"space":"roads"}'
    ),
    'update_pois.default': (
        '{"op":"update_pois","v":2,"adds":[],"removes":[],"space":null}'
    ),
    'update_pois.response': (
        '{"op":"update_pois.response","v":2,"notifications":[{"session_id":9,'
        '"po":{"space":"node","value":{"tuple":[4,7]}},"region_values":[13],"'
        'cause":"poi_update","cpu_seconds":0.5,"stats":{"tile_verifications":'
        '0,"point_checks":0,"index_node_accesses":0,"index_queries":0,"tiles_'
        'added":0,"tiles_rejected":0,"elapsed_seconds":0.0},"regions":[{"kind'
        '":"tiles","anchor":[10.0,20.0],"side":2.5,"tiles":[{"rect":[8.75,18.'
        '75,11.25,21.25],"ix":0,"iy":0,"sub_path":[]},{"rect":[11.25,18.75,12'
        '.5,20.0],"ix":1,"iy":0,"sub_path":[2]}]}]},{"session_id":11,"po":{"s'
        'pace":"network","edge":[{"tuple":[0,0]},{"tuple":[0,1]}],"offset":1.'
        '25},"region_values":[4,4],"cause":"register","cpu_seconds":1e-05,"st'
        'ats":{"tile_verifications":0,"point_checks":0,"index_node_accesses":'
        '0,"index_queries":1,"tiles_added":0,"tiles_rejected":0,"elapsed_seco'
        'nds":2.5},"regions":[{"kind":"net_ball","center":{"space":"network",'
        '"edge":[{"tuple":[0,0]},{"tuple":[0,1]}],"offset":0.5},"r":2.0},{"ki'
        'nd":"net_ball","center":{"space":"network","edge":[{"tuple":[0,0]},{'
        '"tuple":[0,1]}],"offset":0.5},"r":2.0}]}]}'
    ),
    'update_policy.circle': (
        '{"op":"update_policy","v":2,"session_id":4,"policy":{"name":"Circle"'
        ',"kind":"circle","objective":"sum","strategy":null,"tile_config":nul'
        'l}}'
    ),
    'update_policy.custom': (
        '{"op":"update_policy","v":2,"session_id":6,"policy":{"name":"Mine","'
        'kind":null,"objective":"max","strategy":"net_circle","tile_config":n'
        'ull}}'
    ),
    'update_policy.response': (
        '{"op":"update_policy.response","v":2,"session_id":4}'
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
