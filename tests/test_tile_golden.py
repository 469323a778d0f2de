"""Literal digests of Tile-MSR's output on both spaces.

Algorithm 3 runs on square tiles (``repro.core.tile_msr``) and on road
edge intervals (``repro.network_ext.tile_msr``).  These pins hold both
to fixed outputs, so a refactor of the shared growth machinery can be
checked bit for bit: every region's units in their stored order (floats
as ``float.hex()``), the meeting point, the seed radius and the work
counters.  The digests must not depend on ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import hashlib
import math
import random

import networkx as nx
import pytest

from repro.core.tile_msr import tile_msr
from repro.core.types import Ordering, TileMSRConfig, VerifierKind
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.gnn.aggregate import Aggregate
from repro.mobility.network import NetworkParams, build_road_network
from repro.network_ext.space import NetworkPosition, NetworkSpace
from repro.network_ext.tile_msr import NetworkTileConfig, network_tile_msr
from repro.workloads.poi import build_poi_tree, uniform_pois

WORLD = Rect(0.0, 0.0, 1000.0, 1000.0)

_GROWTH_COUNTERS = ("point_checks", "tile_verifications", "tiles_added", "tiles_rejected")
_INT_COUNTERS = (
    "tile_verifications",
    "point_checks",
    "index_node_accesses",
    "index_queries",
    "tiles_added",
    "tiles_rejected",
)


def _hex(x: float) -> str:
    return float(x).hex()


def network_digest(result) -> str:
    """sha256 over po, radius, every region's intervals and the counters."""
    parts = [repr(result.po), _hex(result.radius)]
    for region in result.regions:
        parts.append("|")
        parts.extend(
            f"{iv.u!r}-{iv.v!r}:{_hex(iv.lo)}:{_hex(iv.hi)}" for iv in region.intervals()
        )
    parts.extend(str(getattr(result.stats, name)) for name in _GROWTH_COUNTERS)
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def tile_digest(result) -> str:
    """sha256 over po, radius, tile side, tile keys and integer counters."""
    parts = [
        _hex(result.po.x),
        _hex(result.po.y),
        _hex(result.radius),
        _hex(result.tile_side),
    ]
    for region in result.regions:
        parts.append("|")
        parts.extend(repr(t.key()) for t in region)
    parts.extend(str(getattr(result.stats, name)) for name in _INT_COUNTERS)
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


@pytest.fixture(scope="module")
def city():
    graph = build_road_network(WORLD, NetworkParams(grid_size=6), seed=41)
    space = NetworkSpace(graph)
    pois = random.Random(7).sample(sorted(space.graph.nodes), 9)
    return space, pois


def _network_layouts(city, objective, split_level, m, layouts=4):
    """One digest line per seeded layout of ``m`` users on the city."""
    space, pois = city
    config = NetworkTileConfig(alpha=20, split_level=split_level)
    out = []
    for layout in range(layouts):
        rng = random.Random(100 * layout + 10 * m + split_level)
        users = [space.random_position(rng) for _ in range(m)]
        result = network_tile_msr(space, pois, users, config, objective=objective)
        out.append(network_digest(result))
    return hashlib.sha256(" ".join(out).encode()).hexdigest()


NETWORK_PINS = {
    # (objective, split_level, users): digest over four layouts
    ('max', 0, 1): "a3b9d63734dd21ea63f1d79ef330b6a861c70cb66d288989f908ee0ff72c9b6f",
    ('max', 0, 2): "f2f1a58a54aebeb5bfe7b68397b7bcf5d5bbff8b2aecf0bbd478a0d8cc6cf3fe",
    ('max', 0, 3): "292c64ba26e35d0884eb0f9a32dc0a1bbe7cbe330cf0dafaf2582981efff3046",
    ('max', 1, 1): "51879e0a94f344c033531f22351b10a0d07a5301d60a3bed0689bd8a7660de12",
    ('max', 1, 2): "57a6b9ebacdce3c4a32ea75832b0747f6b5d0e06851b0ff458b0cbf59b33ad1e",
    ('max', 1, 3): "16cb8f096f5b2c25070f8711abf301e6715c0dd50a6f2519b9ba28e3e87d714b",
    ('max', 2, 1): "a0a47d5b799db841ed0653ada867fb8612c1b22ea147d2f4f55e998d182a49c2",
    ('max', 2, 2): "cf9286e48109f86dc18c938cbb28e1f9eb9b002281d10a9d09e7c80976a4ac12",
    ('max', 2, 3): "5c522c682aa7effb907f4a3c01fb3e6d97d87ac89572a6254942e23fb75f15fd",
    ('sum', 0, 1): "ec0d1a1459f261cabaddf9ab53d2eb97a5578232f4dcdcb1f59d1529fa81ca54",
    ('sum', 0, 2): "aae65685a2739219713f883aa895da97df4fad3eacac6a04abd54ec9b9ba140c",
    ('sum', 0, 3): "b576bb111d828aedea1a3aa67debeb4a3f5b96b8dade0b8172b86b282d77ccb0",
    ('sum', 1, 1): "e45e96f010a3e601c57dd3e7a83e2b8e34241251faa10491dde5112d5f1d1aae",
    ('sum', 1, 2): "4ae1cf876b4bbd38bb7ff6f22362f5042a04d6fa9e5f5fa21a0b78df6878e652",
    ('sum', 1, 3): "578b58c942259fdfdef24b081276db7d97d7b3367df174abecc1cd802c462165",
    ('sum', 2, 1): "812bc3a64dd7bad7b3e4624d4b9dcc5d211ab1042075572ae588931249f9594c",
    ('sum', 2, 2): "3f2f201ec478dd04415dc5852d201e3b365a274e41ae0913e2364d760079823a",
    ('sum', 2, 3): "8d2b5cf5be354ede760f3e0eedef0c16e945219d8986ae016ae9c297f35051fc",
    "single_poi": "44225cc28a7711a847e6f9eeb6e7b242c5cf553289c90be99406839a04606417",
    "one_edge": "71daeb5e3da1781e3c6a3b99117ae509eb8266e67dffc0e3121bb372fbc3f1b4",
}


class TestNetworkTileDigests:
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("split_level", [0, 1, 2])
    @pytest.mark.parametrize("objective", [Aggregate.MAX, Aggregate.SUM])
    def test_grid_layouts(self, city, objective, split_level, m):
        digest = _network_layouts(city, objective, split_level, m)
        assert digest == NETWORK_PINS[(objective.value, split_level, m)]

    def test_single_poi_covers_every_edge(self, city):
        space, pois = city
        users = [space.random_position(random.Random(3)) for _ in range(2)]
        result = network_tile_msr(space, pois[:1], users)
        assert network_digest(result) == NETWORK_PINS["single_poi"]

    def test_one_edge_graph(self):
        graph = nx.Graph()
        graph.add_edge("a", "b", length=100.0)
        space = NetworkSpace(graph)
        users = [NetworkPosition.on_edge("a", "b", 30.0)]
        result = network_tile_msr(space, ["a", "b"], users)
        assert network_digest(result) == NETWORK_PINS["one_edge"]


@pytest.fixture(scope="module")
def plane():
    pois = uniform_pois(300, WORLD, seed=9)
    return build_poi_tree(pois)


def _tile_case(tree, directed, verifier, buffered, objective):
    rng = random.Random(
        17 * directed + 5 * list(VerifierKind).index(verifier) + 3 * buffered
        + (objective is Aggregate.SUM)
    )
    users = [WORLD.sample(rng) for _ in range(3)]
    config = TileMSRConfig(
        alpha=6,
        split_level=1,
        ordering=Ordering.DIRECTED if directed else Ordering.UNDIRECTED,
        verifier=verifier,
        objective=objective,
        buffer_b=10 if buffered else None,
    )
    headings = [0.3, -2.0, None] if directed else None
    return tile_msr(users, tree, config, headings=headings)


TILE_PINS = {
    # (directed, verifier, buffered, objective): digest
    (False, 'it', False, 'max'): "8aa4a2ac580f6fce9335f6327601a62c19463316e930719036ca0c7609a870e4",
    (False, 'it', False, 'sum'): "edd66811325aa96a36cd621a8a0f3e83887b1022f6cf0746e5c2c151fcb9fab9",
    (False, 'it', True, 'max'): "5e36495991ee954c95047a89171afa95f4b84a2d2692bbb1d86bb0203d2888e6",
    (False, 'it', True, 'sum'): "757fc57ea1a324ff0b0cd2c43b318fb90921f1284b3bf65c99557d190ec970bc",
    (False, 'gt', False, 'max'): "a4a58ab0b4e846663bd3dfda70d598448fb7fb92d209d6174b3f8ddaca284aab",
    (False, 'gt', False, 'sum'): "92c7613d436eabcbbbdd152a8f7bcb90f361bd61215f1bf211db8fb8053de9f3",
    (False, 'gt', True, 'max'): "42c14b5a82069aad264d8d0b00f96b01abdc1017caa21f104aaf460c92751cae",
    (False, 'gt', True, 'sum'): "95e84ded68b830bee65433f5c0f7ab85d3182d5cc87d31930192a13cf0661d7f",
    (False, 'exact', False, 'max'): "af49fc770abf725c1b4a8143731b90dc1cf80d33a47da8edd9e292664e03844e",
    (False, 'exact', False, 'sum'): "04477133ab81e91ddc66bcf33220ded1ec9f8aafaeec108105e6da6f74949e2a",
    (False, 'exact', True, 'max'): "71311b8b9ecb7a7c91c8a1e9ec6d01bbd4a2c190a6d7615b960f86879fc80f2f",
    (False, 'exact', True, 'sum'): "8adb639f22b251b285c03a87a770618fca324bcb97791d3122ef861d073e0b13",
    (True, 'it', False, 'max'): "1276c3538587f1c6e6217254227e53eed952432c7107627b465689bd78337c94",
    (True, 'it', False, 'sum'): "3ac9ca43f5f1f4ab91e6b332cd65ffd00b84f1e5b20ac3a3e3db4814d39dbc99",
    (True, 'it', True, 'max'): "dc542f727c0ba60603206e2dc138352656d366dac8696c21367667064dae5521",
    (True, 'it', True, 'sum'): "b43d661eee5c03d1b1072bf30b8ed5e71298afd132b7358a2f0e21480a7c09d0",
    (True, 'gt', False, 'max'): "e55136e6e227afcd3effd79412fe174d80e29dfc40d4a7d37019818c5861104e",
    (True, 'gt', False, 'sum'): "e24058cbcc043929d4c1e1083d2cf6879fc306c7c4f6954d1e79037ababd72e1",
    (True, 'gt', True, 'max'): "7abf7278ad94beed71f627feb548d191639ff199dc58a25885adc2b995f92a16",
    (True, 'gt', True, 'sum'): "682fef706da4fc7bc942211b0d43c601ed5cd332f3ab4a1abf8991900471f25a",
    (True, 'exact', False, 'max'): "dd48a07be00861bc001f03f02e2172378ca268d354af5802417e1f37a158a838",
    (True, 'exact', False, 'sum'): "08601823181163392ce74b50e3b60cf7b9d97fdb8efde0d781be281d8a33990b",
    (True, 'exact', True, 'max'): "3617032b07dec0474ec78b980c443f09749e9a33fb2ced018ee153c5d0e309a4",
    (True, 'exact', True, 'sum'): "609a435c5ba49f5ad69b514230ab2ce0efc5b17d80d9a032e3c3e4cea06efe70",
    "single_poi": "5dc57045c79429cdb2d47ace5c082916ec674a1d8a2cad47933d0053454f77f0",
}


class TestTileDigests:
    @pytest.mark.parametrize("objective", [Aggregate.MAX, Aggregate.SUM])
    @pytest.mark.parametrize("buffered", [False, True])
    @pytest.mark.parametrize("verifier", list(VerifierKind))
    @pytest.mark.parametrize("directed", [False, True])
    def test_configurations(self, plane, directed, verifier, buffered, objective):
        result = _tile_case(plane, directed, verifier, buffered, objective)
        key = (directed, verifier.value, buffered, objective.value)
        assert tile_digest(result) == TILE_PINS[key]

    def test_single_poi_whole_plane(self):
        tree = build_poi_tree([Point(500.0, 500.0)])
        result = tile_msr([Point(1.0, 2.0), Point(math.pi, 9.0)], tree)
        assert tile_digest(result) == TILE_PINS["single_poi"]
