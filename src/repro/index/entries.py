"""Leaf entries and the bulk-removal contract shared by both indexes.

:class:`Entry` is what every Euclidean query returns (a point and its
opaque payload); :func:`resolve_removals_indexed` is the one definition
of how a removal batch is matched to live entries, used by the flat
R-tree (:mod:`repro.index.flat`) and the road-network index
(:mod:`repro.index.network`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.geometry.point import Point
from repro.geometry.rect import Rect


@dataclass(slots=True)
class Entry:
    """A leaf entry: a data point and an opaque payload (e.g. POI id)."""

    point: Point
    payload: Any = None

    @property
    def rect(self) -> Rect:
        return Rect.from_point(self.point)


def resolve_removals_indexed(
    candidates_for: Callable[[Any], Sequence[int]],
    payload_of: Callable[[int], Any],
    removes: Sequence[tuple[Any, Any]],
) -> list[int]:
    """Match each removal to a distinct live id through a lookup map.

    Payload-specific removals are matched first so wildcards (payload
    None) can't starve them, each removal consumes a distinct entry,
    and a ``KeyError`` for any unmatched removal is raised before the
    caller mutates anything (all-or-nothing batches).

    ``candidates_for(key)`` yields candidate ids in live (insertion)
    order and ``payload_of(id)`` resolves an id's payload — so an index
    that already maintains a key -> ids map (the flat tree's live map,
    the network index's node buckets) resolves a batch in O(batch)
    instead of materializing all n live items per call.
    """
    victims: list[int] = []
    consumed: set[int] = set()
    ordered = sorted(removes, key=lambda r: r[1] is None)
    for key, payload in ordered:
        for i in candidates_for(key):
            if i not in consumed and (
                payload is None or payload_of(i) == payload
            ):
                consumed.add(i)
                victims.append(i)
                break
        else:
            raise KeyError(f"no entry for {key} (payload={payload!r})")
    return victims
