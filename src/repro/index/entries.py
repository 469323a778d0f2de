"""Leaf entries and the delta layer shared by both POI indexes.

:class:`Entry` is what every Euclidean query returns (a point and its
opaque payload).  :class:`DeltaLayer` is the one definition of how a
packed POI epoch absorbs churn — tombstones, an insert arena, removal
resolution and the repack rule — used by the flat R-tree
(:mod:`repro.index.flat`) and the road-network index
(:mod:`repro.index.network`), which keep only their own packing and
the view their kernels read.  NumPy is its only dependency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, Optional, Sequence

import numpy as np

from repro.geometry.point import Point
from repro.geometry.rect import Rect

# Repack once deltas exceed this fraction of the live set.  1/4 keeps
# the brute-force arena small relative to the packed epoch (queries
# stay tree-shaped) while amortizing each O(n log n) repack over
# ~n/4 mutations.
DEFAULT_DELTA_FRACTION = 0.25


@dataclass(slots=True)
class Entry:
    """A leaf entry: a data point and an opaque payload (e.g. POI id)."""

    point: Point
    payload: Any = None

    @property
    def rect(self) -> Rect:
        return Rect.from_point(self.point)


class DeltaLayer:
    """Tombstones and an insert arena over one packed POI epoch.

    A POI is a ``(key, payload)`` item: the key is what removals name
    (a :class:`Point`, a graph node).  Ids are positions in the packed
    epoch (``0 .. n_packed-1``) followed by arena slots; :attr:`keys`
    and :attr:`payloads` are id-aligned over both.  Removals set a bit
    in :attr:`tomb` (packed) or clear an :attr:`arena_alive` flag, and
    insertions append arena slots — the packed epoch is never touched
    until the owning index repacks, which it does when
    :meth:`needs_repack` says the debt (tombstones + arena slots) has
    passed ``delta_fraction`` of the live size (0.0 = after every
    batch).  Live order is packed order then arena order.
    """

    def __init__(self, delta_fraction: float):
        if delta_fraction < 0.0:
            raise ValueError("delta_fraction must be >= 0")
        self.delta_fraction = delta_fraction
        self.reset([], [])

    def reset(self, keys: list[Hashable], payloads: list[Any]) -> None:
        """Start a new packed epoch over ``keys`` / ``payloads``."""
        self.keys = keys
        self.payloads = payloads
        self.n_packed = len(keys)
        self.tomb = np.zeros(self.n_packed, dtype=bool)
        self.n_dead = 0
        self.arena_alive: list[bool] = []
        self.n_arena_dead = 0
        # Key -> live ids in live order; built on the first removal (or
        # key lookup), maintained incrementally until the next epoch.
        self._live: Optional[dict[Hashable, list[int]]] = None

    def __len__(self) -> int:
        return len(self.keys) - self.n_dead - self.n_arena_dead

    def item(self, i: int) -> tuple[Hashable, Any]:
        return self.keys[i], self.payloads[i]

    def debt(self) -> int:
        """Tombstones + arena slots — what the next repack would fold."""
        return self.n_dead + len(self.arena_alive)

    def needs_repack(self) -> bool:
        debt = self.debt()
        return bool(debt) and debt > self.delta_fraction * max(len(self), 1)

    def live_ids(self) -> list[int]:
        """Live ids, packed order then arena order."""
        ids: list[int] = (
            np.flatnonzero(~self.tomb).tolist()
            if self.n_dead
            else list(range(self.n_packed))
        )
        ids.extend(self.arena_ids())
        return ids

    def arena_ids(self) -> list[int]:
        """Live arena ids, in insertion order."""
        base = self.n_packed
        return [base + j for j, ok in enumerate(self.arena_alive) if ok]

    def live_items(self) -> tuple[list[Hashable], list[Any]]:
        """``(keys, payloads)`` of the live items, in live order."""
        ids = self.live_ids()
        return [self.keys[i] for i in ids], [self.payloads[i] for i in ids]

    def ids_at(self, key: Hashable) -> Sequence[int]:
        """Live ids whose key is ``key``, in live order."""
        return self._live_map().get(key, ())

    def _live_map(self) -> dict[Hashable, list[int]]:
        if self._live is None:
            live: dict[Hashable, list[int]] = {}
            for i in self.live_ids():
                live.setdefault(self.keys[i], []).append(i)
            self._live = live
        return self._live

    def _resolve(self, removes: Sequence[tuple[Hashable, Any]]) -> list[int]:
        """Match each removal to a distinct live id, mutating nothing.

        Payload-specific removals are matched first so wildcards
        (payload ``None``) can't starve them, each removal consumes a
        distinct entry, and a ``KeyError`` for any unmatched removal is
        raised before the caller mutates anything (all-or-nothing
        batches).  Lookups go through the key -> live-ids map, so a
        batch costs O(batch), not O(n).
        """
        if not removes:
            return []
        live = self._live_map()
        victims: list[int] = []
        consumed: set[int] = set()
        for key, payload in sorted(removes, key=lambda r: r[1] is None):
            for i in live.get(key, ()):
                if i not in consumed and (
                    payload is None or self.payloads[i] == payload
                ):
                    consumed.add(i)
                    victims.append(i)
                    break
            else:
                raise KeyError(f"no entry for {key} (payload={payload!r})")
        return victims

    def update(
        self,
        adds: Sequence[tuple[Hashable, Any]],
        removes: Sequence[tuple[Hashable, Any]],
    ) -> None:
        """Tombstone the removals and append the adds to the arena.

        All removals are resolved (:meth:`_resolve`) before anything
        mutates, so a ``KeyError`` leaves the layer untouched.
        """
        victims = self._resolve(removes)
        live = self._live
        for i in victims:
            if i < self.n_packed:
                self.tomb[i] = True
                self.n_dead += 1
            else:
                self.arena_alive[i - self.n_packed] = False
                self.n_arena_dead += 1
            if live is not None:
                ids = live[self.keys[i]]
                ids.remove(i)
                if not ids:
                    del live[self.keys[i]]
        for key, payload in adds:
            if live is not None:
                live.setdefault(key, []).append(len(self.keys))
            self.keys.append(key)
            self.payloads.append(payload)
            self.arena_alive.append(True)

    def validate(self) -> None:
        """Check the delta invariants; raises AssertionError on breach."""
        if len(self.payloads) != len(self.keys):
            raise AssertionError("payloads out of sync with keys")
        if len(self.tomb) != self.n_packed:
            raise AssertionError("tombstone mask out of sync with packed slots")
        if self.n_dead != int(self.tomb.sum()):
            raise AssertionError("tombstone count out of sync with mask")
        if len(self.arena_alive) != len(self.keys) - self.n_packed:
            raise AssertionError("arena flags out of sync with arena slots")
        if self.n_arena_dead != self.arena_alive.count(False):
            raise AssertionError("arena tombstone count out of sync")
        if self._live is not None:
            mapped = sorted(i for ids in self._live.values() for i in ids)
            if mapped != self.live_ids():
                raise AssertionError("live map out of sync with live ids")
            if any(self.keys[i] != key for key, ids in self._live.items() for i in ids):
                raise AssertionError("live map files an id under another key")
