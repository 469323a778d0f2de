"""Synthetic POI datasets.

The paper's POI set (pocketgpsworld.com, N = 21,287 points) is not
redistributable; we substitute a seeded Gaussian-mixture set with the
same default cardinality.  Real POI data is strongly clustered (towns,
commercial streets), and cluster structure is what drives the size of
safe regions — the nearer and denser the competing POIs, the smaller
the regions — so the mixture reproduces the relevant behaviour.
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.index.backend import SpatialIndex, build_index

PAPER_POI_COUNT = 21287  # N of Section 7.1


def uniform_pois(n: int, world: Rect, seed: int = 3) -> list[Point]:
    """``n`` POIs uniform over the world rectangle."""
    if n < 0:
        raise ValueError("n must be >= 0")
    rng = random.Random(seed)
    return [world.sample(rng) for _ in range(n)]


def clustered_pois(
    n: int,
    world: Rect,
    n_clusters: int = 40,
    spread: float = 0.03,
    uniform_fraction: float = 0.15,
    seed: int = 3,
) -> list[Point]:
    """``n`` POIs from a Gaussian mixture plus a uniform background.

    ``spread`` is the cluster std-dev relative to the world diagonal.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n_clusters < 1:
        raise ValueError("need at least one cluster")
    rng = random.Random(seed)
    centers = [world.sample(rng) for _ in range(n_clusters)]
    diag = Point(world.x_lo, world.y_lo).dist(Point(world.x_hi, world.y_hi))
    sigma = spread * diag
    out: list[Point] = []
    for _ in range(n):
        if rng.random() < uniform_fraction:
            out.append(world.sample(rng))
            continue
        c = rng.choice(centers)
        x = min(max(rng.gauss(c.x, sigma), world.x_lo), world.x_hi)
        y = min(max(rng.gauss(c.y, sigma), world.y_lo), world.y_hi)
        out.append(Point(x, y))
    return out


def build_poi_tree(
    points: Sequence[Point], max_entries: int | None = None
) -> SpatialIndex:
    """Bulk-load the POI index the server uses (Section 3.1).

    ``max_entries`` of None keeps the flat R-tree's own packing width.
    """
    return build_index(points, max_entries=max_entries)


def subset_fraction(points: Sequence[Point], fraction: float, seed: int = 5) -> list[Point]:
    """A random subset of size ``fraction * len(points)``.

    Used by the data-size sweeps (Figures 14 and 18): n ranges over
    0.25N .. 1.0N of the base set.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    if fraction == 1.0:
        return list(points)
    rng = random.Random(seed)
    k = max(1, int(round(len(points) * fraction)))
    return rng.sample(list(points), k)
