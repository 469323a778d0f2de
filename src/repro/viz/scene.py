"""Scene rendering: users, POIs, meeting point and safe regions."""

from __future__ import annotations

from typing import Optional, Sequence

from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.geometry.region import TileRegion
from repro.viz.svg import SvgCanvas

_USER_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _scene_bounds(
    users: Sequence[Point],
    regions: Sequence[Circle | TileRegion],
    po: Optional[Point],
    margin: float = 0.15,
) -> Rect:
    xs = [u.x for u in users]
    ys = [u.y for u in users]
    for region in regions:
        if isinstance(region, Circle):
            bounds = region.bounding_rect()
        else:
            bounds = region.bounding_rect()
        xs.extend((bounds.x_lo, bounds.x_hi))
        ys.extend((bounds.y_lo, bounds.y_hi))
    if po is not None:
        xs.append(po.x)
        ys.append(po.y)
    rect = Rect(min(xs), min(ys), max(xs), max(ys))
    pad = max(rect.width, rect.height, 1.0) * margin
    return Rect(rect.x_lo - pad, rect.y_lo - pad, rect.x_hi + pad, rect.y_hi + pad)


def render_scene(
    users: Sequence[Point],
    regions: Sequence[Circle | TileRegion],
    po: Optional[Point] = None,
    pois: Sequence[Point] = (),
    width: int = 800,
    height: int = 800,
    title: str = "",
) -> str:
    """An SVG of the group, their safe regions, POIs and the result.

    Mirrors the paper's Figs. 1b / 7: one color per user, gray POIs,
    the optimal meeting point as a black star-like marker.
    """
    if len(users) != len(regions):
        raise ValueError("one region per user required")
    world = _scene_bounds(users, regions, po)
    canvas = SvgCanvas(world, width, height)
    marker = max(world.width, world.height) / 150.0

    for p in pois:
        if world.contains_point(p):
            canvas.circle(p.x, p.y, marker * 0.4, fill="#bbbbbb", stroke="none")

    for k, (user, region) in enumerate(zip(users, regions)):
        color = _USER_COLORS[k % len(_USER_COLORS)]
        if isinstance(region, Circle):
            canvas.circle(
                region.center.x,
                region.center.y,
                region.radius,
                fill=color,
                stroke=color,
                opacity=0.25,
            )
        else:
            for tile in region:
                canvas.rect(
                    tile.rect.x_lo,
                    tile.rect.y_lo,
                    tile.rect.x_hi,
                    tile.rect.y_hi,
                    fill=color,
                    stroke=color,
                    opacity=0.3,
                )
        canvas.circle(user.x, user.y, marker, fill=color, stroke="black")
        canvas.text(user.x + marker, user.y + marker, f"u{k + 1}", size=14)

    if po is not None:
        canvas.circle(po.x, po.y, marker * 1.3, fill="black", stroke="black")
        canvas.text(po.x + marker, po.y - 2 * marker, "po", size=16)

    if title:
        canvas.raw(
            f'<text x="10" y="22" font-size="18" font-family="sans-serif">'
            f"{title}</text>"
        )
    return canvas.render()


def render_network_scene(
    space,
    regions: Sequence,
    users: Sequence = (),
    po=None,
    pois: Sequence = (),
    width: int = 800,
    height: int = 800,
) -> str:
    """An SVG of a road network with covered intervals highlighted.

    ``space`` is a :class:`~repro.network_ext.space.NetworkSpace` whose
    graph nodes carry ``pos`` attributes; ``regions`` are
    :class:`~repro.network_ext.tile_msr.NetworkTileRegion` or
    :class:`~repro.network_ext.ball.NetworkBall` objects.
    """
    graph = space.graph
    positions = {n: graph.nodes[n]["pos"] for n in graph.nodes}
    xs = [p.x for p in positions.values()]
    ys = [p.y for p in positions.values()]
    pad = (max(xs) - min(xs) or 1.0) * 0.05
    world = Rect(min(xs) - pad, min(ys) - pad, max(xs) + pad, max(ys) + pad)
    canvas = SvgCanvas(world, width, height)
    marker = world.width / 120.0

    for u, v in graph.edges:
        a, b = positions[u], positions[v]
        canvas.line(a.x, a.y, b.x, b.y, stroke="#cccccc", stroke_width=1.5)

    def _lerp(a, b, t):
        return Point(a.x + (b.x - a.x) * t, a.y + (b.y - a.y) * t)

    for k, region in enumerate(regions):
        color = _USER_COLORS[k % len(_USER_COLORS)]
        if hasattr(region, "intervals"):
            segments = [
                (iv.u, iv.v, iv.lo, iv.hi) for iv in region.intervals()
            ]
        else:  # NetworkBall: prefix/suffix coverage
            segments = []
            for u, v, cover_u, cover_v in region.covered_segments():
                length = space.edge_length(u, v)
                segments.append((u, v, 0.0, cover_u))
                segments.append((u, v, length - cover_v, length))
        for u, v, lo, hi in segments:
            if hi <= lo:
                continue
            length = space.edge_length(u, v)
            a, b = positions[u], positions[v]
            p1 = _lerp(a, b, lo / length)
            p2 = _lerp(a, b, hi / length)
            canvas.line(p1.x, p1.y, p2.x, p2.y, stroke=color, stroke_width=4.0)

    for q in pois:
        p = positions[q]
        canvas.circle(p.x, p.y, marker * 0.6, fill="#888888", stroke="none")
    for k, user in enumerate(users):
        anchors = space.anchors(user)
        node, _ = anchors[0]
        if user.edge is not None:
            u, v = user.edge
            length = space.edge_length(u, v)
            p = _lerp(positions[u], positions[v], user.offset / length)
        else:
            p = positions[user.node]
        canvas.circle(p.x, p.y, marker, fill=_USER_COLORS[k % len(_USER_COLORS)], stroke="black")
    if po is not None:
        p = positions[po]
        canvas.circle(p.x, p.y, marker * 1.4, fill="black", stroke="black")
    return canvas.render()
