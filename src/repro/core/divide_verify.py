"""Divide-Verify: divide-and-conquer unit verification (Algorithm 2).

If a whole unit fails verification it splits itself (a tile into four
sub-tiles, a road-edge interval into two halves, less any too short to
verify) and each part is retried recursively, up to ``level`` splits.
Parts that pass are added to the user's safe region; the call reports
whether any part was added.

The verification predicate is injected (``tile_ok``), so the same
recursion drives IT-Verify, GT-Verify, the exact verifier and
Sum-GT-Verify, with either the index-pruned candidate set (Section 5.3)
or the buffered one (Section 5.4, Algorithm 5), on either space.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.core.types import SafeRegionStats

def divide_verify(
    region,
    tile,
    level: int,
    tile_ok: Callable[[Any], bool],
    stats: SafeRegionStats | None = None,
) -> bool:
    """Algorithm 2.  Returns True iff some part of ``tile`` entered
    ``region``.  ``tile`` is any unit with ``split()``; ``region`` any
    region with ``add(unit)``."""
    if tile_ok(tile):
        region.add(tile)
        if stats is not None:
            stats.tiles_added += 1
        return True
    if level > 0:
        added = False
        for sub in tile.split():
            if divide_verify(region, sub, level - 1, tile_ok, stats):
                added = True
        return added
    if stats is not None:
        stats.tiles_rejected += 1
    return False
