"""Wire codecs for safe-region geometry (since schema version 2).

A remote client is the paper's actual deployment: she must hold her
safe region locally to decide, offline, whether her next position
escapes it (``contains_point`` is the client-side half of the protocol
in Fig. 3), so notifications ship region geometry by value.

Every region kind the serving stack produces has a wire form:

* :class:`~repro.geometry.circle.Circle` — 3 doubles, exactly the
  payload the paper's message model accounts (Section 7.1);
* :class:`~repro.geometry.region.PointRegion` — a degenerate anchor;
* :class:`~repro.geometry.region.TileRegion` — the anchor, grid side
  and every tile's address + footprint.  Footprints are shipped
  verbatim (JSON round-trips doubles exactly) so the decoded region is
  bit-identical to the server's, not merely re-derivable;
* :class:`~repro.network_ext.ball.NetworkBall` and
  :class:`~repro.network_ext.tile_msr.NetworkTileRegion` — center /
  anchor plus radius / covered edge intervals.  Network regions are
  *graph-relative*: decoding one needs the road network, which both
  ends share by construction (the map is static common knowledge, the
  POI set is not).  Pass the session's space to :func:`decode_region`;
  Euclidean regions decode without one.

Decoded regions are structurally identical to the originals — same
``contains_point`` / ``min_dist`` / ``max_dist`` answers bit for bit —
which is what makes a TCP fleet provably equivalent to an in-process
one (``tests/test_wire_equivalence.py``).
"""

from __future__ import annotations

from typing import Optional

from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.geometry.region import PointRegion, TileRegion
from repro.geometry.tile import Tile
from repro.service.api import (
    _array,
    _float,
    _int,
    decode_node,
    decode_position,
    encode_node,
    encode_position,
    leaf_fields,
)
from repro.service.errors import EnvelopeError, MalformedEnvelopeError


def _network_region_classes():
    """(NetworkBall, NetworkTileRegion, EdgeInterval) or None without
    the network extra installed."""
    try:
        from repro.network_ext.ball import NetworkBall
        from repro.network_ext.tile_msr import EdgeInterval, NetworkTileRegion
    except ImportError:  # pragma: no cover - exercised only without networkx
        return None
    return NetworkBall, NetworkTileRegion, EdgeInterval


def encode_region(region: object) -> dict:
    """Any serving-stack safe region as a tagged JSON dict."""
    if isinstance(region, Circle):
        return {
            "kind": "circle",
            "cx": region.center.x,
            "cy": region.center.y,
            "r": region.radius,
        }
    if isinstance(region, PointRegion):
        return {"kind": "point", "x": region.location.x, "y": region.location.y}
    if isinstance(region, TileRegion):
        return {
            "kind": "tiles",
            "anchor": [region.anchor.x, region.anchor.y],
            "side": region.side,
            "tiles": [
                {
                    "rect": [t.rect.x_lo, t.rect.y_lo, t.rect.x_hi, t.rect.y_hi],
                    "ix": t.ix,
                    "iy": t.iy,
                    "sub_path": list(t.sub_path),
                }
                for t in region.tiles
            ],
        }
    network = _network_region_classes()
    if network is not None:
        ball_cls, net_tiles_cls, _ = network
        if isinstance(region, ball_cls):
            return {
                "kind": "net_ball",
                "center": encode_position(region.center),
                "r": region.radius,
            }
        if isinstance(region, net_tiles_cls):
            return {
                "kind": "net_tiles",
                "anchor": encode_position(region.anchor),
                "r_up": region.r_up,
                "intervals": [
                    [
                        encode_node(iv.u),
                        encode_node(iv.v),
                        iv.lo,
                        iv.hi,
                    ]
                    for iv in sorted(
                        region.intervals(),
                        key=lambda iv: (repr(iv.u), repr(iv.v), iv.lo),
                    )
                ],
            }
    raise EnvelopeError(
        f"safe region {type(region).__name__} has no wire form"
    )


def _network_space_of(space: object):
    """The bare ``NetworkSpace`` of a space argument.

    Accepts a :class:`repro.space.network.NetworkPOISpace` (the serving
    wrapper, which exposes its metric as ``.space``) or a bare
    :class:`~repro.network_ext.space.NetworkSpace` — anything with a
    ``graph`` works.
    """
    inner = getattr(space, "space", None)
    if inner is not None and hasattr(inner, "graph"):
        return inner
    if hasattr(space, "graph"):
        return space
    raise EnvelopeError(
        "decoding a network region needs the session's network space "
        "(the road graph is shared knowledge, the wire does not carry it)"
    )


_REGION_KEYS = {
    "circle": frozenset({"kind", "cx", "cy", "r"}),
    "point": frozenset({"kind", "x", "y"}),
    "tiles": frozenset({"kind", "anchor", "side", "tiles"}),
    "net_ball": frozenset({"kind", "center", "r"}),
    "net_tiles": frozenset({"kind", "anchor", "r_up", "intervals"}),
}
_TILE_KEYS = frozenset({"rect", "ix", "iy", "sub_path"})


def decode_region(data: object, space: Optional[object] = None) -> object:
    """Rebuild a live safe region from its wire form.

    ``space`` is required for network regions (``net_ball`` /
    ``net_tiles``): they measure against the road graph, which the
    client holds locally.  Euclidean regions ignore it.  Undeclared keys
    and inexact numbers are malformed (:mod:`repro.service.api`'s rules).
    """
    kind = data.get("kind") if type(data) is dict else None
    if type(kind) is not str or kind not in _REGION_KEYS:
        raise MalformedEnvelopeError(f"not a wire-encoded region: {data!r}")
    leaf_fields(data, f"{kind!r} region", _REGION_KEYS[kind])
    try:
        if kind == "circle":
            return Circle(Point(_float(data["cx"]), _float(data["cy"])), _float(data["r"]))
        if kind == "point":
            return PointRegion(Point(_float(data["x"]), _float(data["y"])))
        if kind == "tiles":
            ax, ay = data["anchor"]
            region = TileRegion(Point(_float(ax), _float(ay)), _float(data["side"]))
            for t in data["tiles"]:
                rect = Rect(*map(_float, leaf_fields(t, "tile", _TILE_KEYS)["rect"]))
                sub_path = tuple([_int(q) for q in _array(t["sub_path"])])
                region.add(Tile(rect, _int(t["ix"]), _int(t["iy"]), sub_path))
            return region
        network = _network_region_classes()
        if network is None:  # pragma: no cover - no-networkx envs
            raise EnvelopeError(
                "decoding a network region needs the network stack "
                "(install the 'network' extra)"
            )
        ball_cls, net_tiles_cls, interval_cls = network
        if space is None:
            raise EnvelopeError(
                f"decoding a {kind!r} region needs the session's "
                "network space"
            )
        net_space = _network_space_of(space)
        if kind == "net_ball":
            return ball_cls(net_space, decode_position(data["center"]), _float(data["r"]))
        region = net_tiles_cls(net_space, decode_position(data["anchor"]))
        for u, v, lo, hi in data["intervals"]:
            region.add(
                interval_cls(decode_node(u), decode_node(v), _float(lo), _float(hi))
            )
        # r_up accrues in growth order server-side; replaying the
        # merged intervals can only underestimate it, so restore
        # the recorded value for bit-identity.
        region.r_up = _float(data["r_up"])
        return region
    except EnvelopeError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedEnvelopeError(
            f"malformed {kind!r} region payload: {exc}"
        ) from exc
