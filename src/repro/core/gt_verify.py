"""Tile verification for the MAX objective (Section 5.3).

Given a valid safe-region group ``R = <R1..Rm>`` (tile sets) and a new
tile ``s`` proposed for user ``i``, decide whether every *tile group*
``<s1 in R1, ..., s, ..., sm in Rm>`` remains valid against a
non-result point ``p`` — i.e. ``max_j ||po, sj||_max <= max_j
||p, sj||_min`` for each group (Lemma 1 applied per group).

Three implementations:

* :func:`it_verify` — the naive enumeration of all tile groups
  (quadratic-and-worse; the paper's IT-Verify baseline);
* :func:`gt_verify` — the grouped verification of Theorem 2 /
  Algorithm 4, which partitions each ``Rj`` into four categories by the
  dominant distances ``do = ||po, s||_max`` and ``dp = ||p, s||_min``;
* :func:`exact_verify` — an exact O(total tiles) decision procedure
  derived from the failure characterization (see below); used as the
  reference oracle in tests and as Algorithm 4's case-4 fallback.

Failure characterization used by :func:`exact_verify`: writing
``a(t) = ||po, t||_max`` and ``b(t) = ||p, t||_min`` for tiles of other
users, a failing group exists iff either

* ``do > dp`` and every other user has a tile with ``b < do``
  (the new tile dominates both distances), or
* some other user ``j`` owns a tile ``t`` with ``a(t) > dp``,
  ``a(t) > b(t)``, and every remaining user has a tile with
  ``b < a(t)`` (user ``j`` realizes the dominant max distance).

This is exactly "exists an element on the max side exceeding all
elements on the min side" evaluated over the best possible choices.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from repro.core.types import SafeRegionStats
from repro.geometry.point import Point
from repro.geometry.region import TileRegion
from repro.geometry.tile import Tile


def _tile_group_valid(
    group: Sequence[Tile], po: Point, p: Point
) -> bool:
    top = max(t.max_dist(po) for t in group)
    bot = max(t.min_dist(p) for t in group)
    return top <= bot


def it_verify(
    regions: Sequence[TileRegion],
    user_idx: int,
    s: Tile,
    p: Point,
    po: Point,
    stats: SafeRegionStats | None = None,
) -> bool:
    """IT-Verify: enumerate every tile group containing ``s``.

    Exact but exponential in the group size; kept as the paper's
    baseline for the micro-benchmarks of Section 5.3.
    """
    other_tiles = []
    for j, region in enumerate(regions):
        if j == user_idx:
            continue
        tiles = list(region)
        if not tiles:
            # An empty companion region contributes its anchor point.
            tiles = [Tile(_point_rect(region.anchor))]
        other_tiles.append(tiles)
    for combo in itertools.product(*other_tiles):
        if stats is not None:
            stats.tile_verifications += 1
        if not _tile_group_valid(list(combo) + [s], po, p):
            return False
    return True


def _point_rect(p: Point):
    from repro.geometry.rect import Rect

    return Rect.from_point(p)


def _distance_pairs(
    regions: Sequence[TileRegion], user_idx: int, p: Point, po: Point
) -> tuple[list[list[tuple[float, float]]], list[tuple[float, float]]]:
    """(a, b) = (||po, t||_max, ||p, t||_min) per tile, split by user."""
    per_user: list[list[tuple[float, float]]] = []
    own_pairs: list[tuple[float, float]] = []
    for j, region in enumerate(regions):
        pairs = [(t.max_dist(po), t.min_dist(p)) for t in region]
        if not pairs:
            anchor = region.anchor
            pairs = [(anchor.dist(po), anchor.dist(p))]
        if j == user_idx:
            own_pairs = pairs
        else:
            per_user.append(pairs)
    return per_user, own_pairs


def exact_verify(
    regions: Sequence[TileRegion],
    user_idx: int,
    s: Tile,
    p: Point,
    po: Point,
    stats: SafeRegionStats | None = None,
) -> bool:
    """Exact linear-time tile verification (see module docstring)."""
    if stats is not None:
        stats.tile_verifications += 1
    per_user, _ = _distance_pairs(regions, user_idx, p, po)
    return _exact_from_pairs(per_user, s.max_dist(po), s.min_dist(p))


def _union_verify(
    union_pairs: list[list[tuple[float, float]]],
    do: float,
    dp: float,
) -> bool:
    """Verify(Lemma 1) on a group of tile unions plus the new tile.

    ``union_pairs[j]`` holds ``(a, b)`` per tile in user ``j``'s union;
    an empty union makes the case vacuous (returns True).
    """
    top = do
    bot = dp
    for pairs in union_pairs:
        if not pairs:
            return True  # no compatible tile for this user: vacuous case
        top = max(top, max(a for a, _ in pairs))
        bot = max(bot, min(b for _, b in pairs))
    return top <= bot


def gt_verify(
    regions: Sequence[TileRegion],
    user_idx: int,
    s: Tile,
    p: Point,
    po: Point,
    stats: SafeRegionStats | None = None,
) -> bool:
    """GT-Verify (Algorithm 4): grouped tile verification.

    Sound: a True answer guarantees all tile groups are valid.  May be
    (slightly) conservative relative to :func:`exact_verify` in its
    union tests, but case 4 falls back to the exact procedure, so in
    practice GT and exact agree; GT's value is doing far fewer distance
    evaluations than IT-Verify.
    """
    if stats is not None:
        stats.tile_verifications += 1
    per_user, own_pairs = _distance_pairs(regions, user_idx, p, po)
    return _gt_from_pairs(per_user, own_pairs, s.max_dist(po), s.min_dist(p))


class MaxVerifier:
    """Caching wrapper around the MAX-objective tile verifiers.

    All three verifiers repeatedly evaluate ``a(t) = ||po, t||_max``
    (independent of the candidate point) and ``b(t) = ||p, t||_min``
    (reused across candidate tiles) for the same region tiles.  This
    wrapper memoizes both per safe-region computation — semantics are
    identical to the module-level functions, which remain the uncached
    reference implementations.

    Another unit type (a road-edge interval) reuses the decision by
    overriding the geometry hooks :meth:`_unit_pair` and :meth:`_pairs`.
    """

    def __init__(self, po: Point, kind: str = "gt"):
        if kind not in ("gt", "it", "exact"):
            raise ValueError(f"unknown verifier kind: {kind!r}")
        self.po = po
        self.kind = kind
        # _a[user_idx] = per-tile ||po, t||_max, appended incrementally.
        self._a: dict[int, list[float]] = {}
        # _pair_memo[(user_idx, pkey)] = (pairs list, tiles folded in).
        self._pair_memo: dict[tuple, tuple[list[tuple[float, float]], int]] = {}

    def _pairs(
        self, region: TileRegion, user_idx: int, p: Point
    ) -> list[tuple[float, float]]:
        tiles = region.tiles
        if not tiles:
            anchor = region.anchor
            return [(anchor.dist(self.po), anchor.dist(p))]
        a_list = self._a.setdefault(user_idx, [])
        if len(a_list) < len(tiles):
            po = self.po
            a_list.extend(t.max_dist(po) for t in tiles[len(a_list) :])
        key = (user_idx, p.x, p.y)
        pairs, watermark = self._pair_memo.get(key, ([], 0))
        if watermark < len(tiles):
            pairs = pairs + [
                (a_list[k], tiles[k].min_dist(p))
                for k in range(watermark, len(tiles))
            ]
            self._pair_memo[key] = (pairs, len(tiles))
        return pairs

    def _unit_pair(self, s: Tile, p: Point) -> tuple[float, float]:
        """``(||po, s||_max, ||p, s||_min)`` for the proposed unit."""
        # Through the rect: this hook runs once per verification, and
        # skipping Tile's delegating methods pays for the extra call.
        rect = s.rect
        return rect.max_dist(self.po), rect.min_dist(p)

    def verify(
        self,
        regions: Sequence[TileRegion],
        user_idx: int,
        s: Tile,
        p: Point,
        po: Point,
        stats: SafeRegionStats | None = None,
    ) -> bool:
        if po != self.po:
            raise ValueError("MaxVerifier bound to a different optimal point")
        if self.kind == "it":
            return it_verify(regions, user_idx, s, p, po, stats)
        if stats is not None:
            stats.tile_verifications += 1
        do, dp = self._unit_pair(s, p)
        per_user = [
            self._pairs(region, j, p)
            for j, region in enumerate(regions)
            if j != user_idx
        ]
        if self.kind == "exact":
            return _exact_from_pairs(per_user, do, dp)
        own_pairs = self._pairs(regions[user_idx], user_idx, p)
        return _gt_from_pairs(per_user, own_pairs, do, dp)


def _exact_from_pairs(
    per_user: list[list[tuple[float, float]]], do: float, dp: float
) -> bool:
    """The exact decision of :func:`exact_verify` on precomputed pairs."""
    if not per_user:
        return do <= dp
    min_bs = [min(b for _, b in pairs) for pairs in per_user]
    if do > dp and all(mb < do for mb in min_bs):
        return False
    max1 = max(min_bs)
    count_max1 = min_bs.count(max1)
    max2 = max((mb for mb in min_bs if mb < max1), default=float("-inf"))
    for j, pairs in enumerate(per_user):
        if count_max1 == 1 and min_bs[j] == max1:
            others_max_min_b = max2
        else:
            others_max_min_b = max1 if len(min_bs) > 1 else float("-inf")
        for a, b in pairs:
            if a > dp and a > b and others_max_min_b < a:
                return False
    return True


def _gt_from_pairs(
    per_user: list[list[tuple[float, float]]],
    own_pairs: list[tuple[float, float]],
    do: float,
    dp: float,
) -> bool:
    """Algorithm 4 on precomputed pairs (same logic as :func:`gt_verify`)."""
    if not per_user:
        return do <= dp
    top = do
    bot = dp
    for pairs in per_user:
        top = max(top, max(a for a, _ in pairs))
        bot = max(bot, min(b for _, b in pairs))
    if top <= bot:
        return True
    dd = []
    ud = []
    du = []
    for pairs in per_user:
        dd.append([(a, b) for a, b in pairs if a < do and b < dp])
        ud.append([(a, b) for a, b in pairs if a >= do and b < dp])
        du.append([(a, b) for a, b in pairs if a < do and b >= dp])
    if not _union_verify(dd, do, dp):
        return False
    if not _union_verify([a + b for a, b in zip(dd, ud)], do, dp):
        return False
    if not _union_verify([a + b for a, b in zip(dd, du)], do, dp):
        return False
    for a, b in own_pairs:
        if a >= do and b <= dp:
            return True
    return _exact_from_pairs(per_user, do, dp)
