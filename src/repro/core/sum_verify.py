"""Sum-GT-Verify: tile verification for the SUM objective (Alg. 6).

A safe-region group is valid for the sum-optimal meeting point iff for
every non-result point ``p'`` and every location instance ``L``

    F(p', po, L) = sum_i (||p', li|| - ||po, li||) >= 0

(Equation 13).  Because the sum decomposes per user and each ``li``
ranges over user ``i``'s region independently, the minimum of ``F`` is
the sum of per-user minima, each computed exactly over the user's tiles
via the hyperbola analysis of Section 6.3.1
(:func:`repro.geometry.hyperbola.min_dist_diff_tile`).

The paper memoizes per-user minima in hash tables ``H1..Hm``.  We add a
*watermark* (number of region tiles already folded into the cached
value) so that entries stay correct as regions grow between calls, even
when a point drops out of the candidate set for a while and later
re-enters.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.types import SafeRegionStats
from repro.geometry.hyperbola import dist_diff, min_dist_diff_tile
from repro.geometry.point import Point
from repro.geometry.region import TileRegion
from repro.geometry.tile import Tile


class SumVerifier:
    """Stateful Sum-GT-Verify for one safe-region computation.

    Another unit type (a road-edge interval) reuses the check by
    overriding the geometry hooks :meth:`_unit_min_f` and :meth:`_user_min_f`.
    """

    def __init__(self, po: Point):
        self.po = po
        # _memo[user_idx][point_key] = (min_F_so_far, tiles_folded_in)
        self._memo: list[dict[tuple[float, float], tuple[float, int]]] = []

    def _ensure_users(self, m: int) -> None:
        while len(self._memo) < m:
            self._memo.append({})

    def _user_min_f(self, region: TileRegion, user_idx: int, p: Point) -> float:
        """Minimum of ``||p', l|| - ||po, l||`` over user's region tiles.

        Lazily folds in tiles added since the last call for this point.
        """
        tiles = region.tiles
        if not tiles:
            return dist_diff(p, self.po, region.anchor)
        key = (p.x, p.y)
        table = self._memo[user_idx]
        value, watermark = table.get(key, (float("inf"), 0))
        if watermark < len(tiles):
            for t in tiles[watermark:]:
                value = min(value, min_dist_diff_tile(p, self.po, t.rect))
            table[key] = (value, len(tiles))
        return value

    def _unit_min_f(self, s: Tile, p: Point) -> float:
        """Minimum of ``||p', l|| - ||po, l||`` over the proposed unit."""
        return min_dist_diff_tile(p, self.po, s.rect)

    def verify(
        self,
        regions: Sequence[TileRegion],
        user_idx: int,
        s: Tile,
        p: Point,
        po: Point,
        stats: SafeRegionStats | None = None,
    ) -> bool:
        """Is the group ``<R1, ..., {s}, ..., Rm>`` valid against ``p``?

        ``po`` must equal the verifier's meeting point (kept as an
        explicit argument so all verifiers share one signature).
        """
        if po != self.po:
            raise ValueError("SumVerifier bound to a different optimal point")
        if stats is not None:
            stats.tile_verifications += 1
        self._ensure_users(len(regions))
        total = self._unit_min_f(s, p)
        if total >= 0.0 and len(regions) == 1:
            return True
        for j, region in enumerate(regions):
            if j == user_idx:
                continue
            total += self._user_min_f(region, j, p)
            # Early exit impossible in general: later terms may be
            # positive; keep summing (m is small).
        return total >= 0.0


def sum_instance_objective(
    locations: Sequence[Point], p: Point
) -> float:
    """``||p, L||_sum`` for a concrete location instance (Definition 7)."""
    return sum(p.dist(l) for l in locations)
