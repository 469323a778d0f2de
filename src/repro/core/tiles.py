"""Tile orderings for Tile-MSR (Section 5.2, Fig. 8).

The *undirected* ordering browses grid tiles around the user's location
layer by layer (anti-clockwise within each layer), starting from the
tile centered at the user (layer 0).  It advances to the next layer
only if the current layer contributed at least one accepted tile;
otherwise it is exhausted (no farther tile can be valid).

The *directed* ordering additionally skips tiles whose subtended angle
at the user deviates from the predicted travel direction by more than
``theta`` (learned from recent headings, ref. [26]).
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from repro.geometry.point import Point
from repro.geometry.tile import Tile, tile_at

_TWO_PI = 2.0 * math.pi


def layer_offsets(layer: int) -> list[tuple[int, int]]:
    """Grid offsets of ring ``layer``, anti-clockwise from (layer, 0).

    Layer 0 is the single origin tile.  Layer k >= 1 is the square ring
    of cells with Chebyshev distance exactly ``k`` from the origin.
    """
    if layer < 0:
        raise ValueError("layer must be >= 0")
    if layer == 0:
        return [(0, 0)]
    k = layer
    ring: list[tuple[int, int]] = []
    # Start at the East cell (k, 0), walk anti-clockwise.
    # Right edge going up: (k, 0) .. (k, k-1)
    ring.extend((k, y) for y in range(0, k))
    # Top edge going left: (k, k) .. (-k+1, k)
    ring.extend((x, k) for x in range(k, -k, -1))
    # Left edge going down: (-k, k) .. (-k, -k+1)
    ring.extend((-k, y) for y in range(k, -k, -1))
    # Bottom edge going right: (-k, -k) .. (k-1, -k)
    ring.extend((x, -k) for x in range(-k, k))
    # Right edge below axis: (k, -k) .. (k, -1)
    ring.extend((k, y) for y in range(-k, 0))
    return ring


def angle_diff(a: float, b: float) -> float:
    """Absolute angular difference in [0, pi]."""
    d = math.fmod(a - b, _TWO_PI)
    if d < -math.pi:
        d += _TWO_PI
    elif d > math.pi:
        d -= _TWO_PI
    return abs(d)


def tile_subtended_interval(
    anchor: Point, tile: Tile
) -> Optional[tuple[float, float]]:
    """The angular interval the tile subtends at ``anchor``.

    Returns ``None`` when the anchor lies inside the tile (the tile
    subtends the full circle).  The interval is returned as
    ``(center_angle, half_width)``.
    """
    if tile.contains_point(anchor):
        return None
    corner_angles = [
        math.atan2(c.y - anchor.y, c.x - anchor.x) for c in tile.rect.corners()
    ]
    base = corner_angles[0]
    lo = 0.0
    hi = 0.0
    for a in corner_angles[1:]:
        d = math.fmod(a - base, _TWO_PI)
        if d > math.pi:
            d -= _TWO_PI
        elif d < -math.pi:
            d += _TWO_PI
        lo = min(lo, d)
        hi = max(hi, d)
    center = base + (lo + hi) / 2.0
    half_width = (hi - lo) / 2.0
    return (center, half_width)


def tile_within_cone(
    anchor: Point, tile: Tile, heading: float, theta: float
) -> bool:
    """Does the tile's subtended interval intersect the heading cone?

    The cone is ``[heading - theta, heading + theta]`` (Section 5.2,
    directed ordering).  Tiles containing the anchor always qualify.
    """
    interval = tile_subtended_interval(anchor, tile)
    if interval is None:
        return True
    center, half_width = interval
    return angle_diff(center, heading) <= theta + half_width


class TileOrdering:
    """Stateful Next-Tile supplier for one user (Algorithm 3, line 8).

    ``mark_accepted`` must be called whenever a produced tile (or any
    of its sub-tiles) enters the safe region, so the ordering knows the
    current layer is productive and may advance to the next one.

    Its turn rule (:func:`repro.core.tile_msr.grow_regions`) is
    round-robin: one accepted tile per user per round.
    """

    def __init__(
        self,
        anchor: Point,
        side: float,
        heading: Optional[float] = None,
        theta: float = math.pi,
        max_layer: int = 16,
        skip_origin: bool = True,
    ):
        self.anchor = anchor
        self.side = side
        self.heading = heading
        self.theta = theta
        self.max_layer = max_layer
        self._layer = 1 if skip_origin else 0
        self._queue: list[tuple[int, int]] = list(self._layer_cells(self._layer))
        # Advancing past the current layer requires an acceptance *in*
        # that layer (Section 5.2); the origin tile's automatic
        # acceptance does not make layer 1 productive.
        self._layer_productive = False
        self.exhausted = side <= 0.0

    def _layer_cells(self, layer: int) -> list[tuple[int, int]]:
        cells = layer_offsets(layer)
        if self.heading is None or self.side <= 0.0:
            return cells
        out = []
        for ix, iy in cells:
            tile = tile_at(self.anchor, self.side, ix, iy)
            if tile_within_cone(self.anchor, tile, self.heading, self.theta):
                out.append((ix, iy))
        return out

    def mark_accepted(self) -> None:
        self._layer_productive = True

    def turn(self, try_tile: Callable[[Tile], bool]) -> None:
        """One user's turn of a round (Algorithm 3, lines 7-10): offer
        tiles to ``try_tile`` until it accepts one."""
        while (tile := self.next_tile()) is not None:
            if try_tile(tile):
                self.mark_accepted()
                return

    def next_tile(self) -> Optional[Tile]:
        """The next tile in the ordering, or None when exhausted."""
        if self.exhausted:
            return None
        while not self._queue:
            if not self._layer_productive or self._layer >= self.max_layer:
                self.exhausted = True
                return None
            self._layer += 1
            self._layer_productive = False
            self._queue = list(self._layer_cells(self._layer))
            # A directed cone may leave an intermediate ring empty even
            # though farther rings intersect the cone; an empty ring is
            # treated as productive so the spiral can continue past it.
            if not self._queue:
                self._layer_productive = True
        ix, iy = self._queue.pop(0)
        return tile_at(self.anchor, self.side, ix, iy)
