"""Axis-aligned rectangles (MBRs) with min/max distance semantics.

``Rect`` serves as the world box of the workloads and mobility
models and as the geometric footprint of a tile.
``min_dist`` / ``max_dist`` implement ``||p, S||_min`` and
``||p, S||_max`` of Definition 1 for a rectangular region ``S``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.geometry.point import Point


@dataclass(frozen=True, slots=True)
class Rect:
    """A closed axis-aligned rectangle ``[x_lo, x_hi] x [y_lo, y_hi]``."""

    x_lo: float
    y_lo: float
    x_hi: float
    y_hi: float

    def __post_init__(self) -> None:
        if self.x_lo > self.x_hi or self.y_lo > self.y_hi:
            raise ValueError(f"degenerate rectangle: {self}")

    @classmethod
    def from_point(cls, p: Point) -> "Rect":
        return cls(p.x, p.y, p.x, p.y)

    @classmethod
    def from_points(cls, points) -> "Rect":
        xs = [p.x for p in points]
        ys = [p.y for p in points]
        if not xs:
            raise ValueError("cannot build a Rect from zero points")
        return cls(min(xs), min(ys), max(xs), max(ys))

    @classmethod
    def square(cls, center: Point, side: float) -> "Rect":
        """The axis-aligned square of side ``side`` centered at ``center``."""
        half = side / 2.0
        return cls(center.x - half, center.y - half, center.x + half, center.y + half)

    @property
    def center(self) -> Point:
        return Point((self.x_lo + self.x_hi) / 2.0, (self.y_lo + self.y_hi) / 2.0)

    @property
    def width(self) -> float:
        return self.x_hi - self.x_lo

    @property
    def height(self) -> float:
        return self.y_hi - self.y_lo

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def margin(self) -> float:
        return 2.0 * (self.width + self.height)

    def corners(self) -> tuple[Point, Point, Point, Point]:
        return (
            Point(self.x_lo, self.y_lo),
            Point(self.x_hi, self.y_lo),
            Point(self.x_hi, self.y_hi),
            Point(self.x_lo, self.y_hi),
        )

    def contains_point(self, p: Point, eps: float = 0.0) -> bool:
        return (
            self.x_lo - eps <= p.x <= self.x_hi + eps
            and self.y_lo - eps <= p.y <= self.y_hi + eps
        )

    def contains_rect(self, other: "Rect") -> bool:
        return (
            self.x_lo <= other.x_lo
            and self.y_lo <= other.y_lo
            and self.x_hi >= other.x_hi
            and self.y_hi >= other.y_hi
        )

    def intersects(self, other: "Rect") -> bool:
        return not (
            self.x_hi < other.x_lo
            or other.x_hi < self.x_lo
            or self.y_hi < other.y_lo
            or other.y_hi < self.y_lo
        )

    def union(self, other: "Rect") -> "Rect":
        return Rect(
            min(self.x_lo, other.x_lo),
            min(self.y_lo, other.y_lo),
            max(self.x_hi, other.x_hi),
            max(self.y_hi, other.y_hi),
        )

    def min_dist(self, p: Point) -> float:
        """``||p, S||_min``: 0 if ``p`` is inside the rectangle."""
        dx = max(self.x_lo - p.x, 0.0, p.x - self.x_hi)
        dy = max(self.y_lo - p.y, 0.0, p.y - self.y_hi)
        return math.hypot(dx, dy)

    def max_dist(self, p: Point) -> float:
        """``||p, S||_max``: distance to the farthest corner."""
        dx = max(p.x - self.x_lo, self.x_hi - p.x)
        dy = max(p.y - self.y_lo, self.y_hi - p.y)
        return math.hypot(dx, dy)

    def quadrants(self) -> tuple["Rect", "Rect", "Rect", "Rect"]:
        """Split into four equal sub-rectangles (Divide-Verify, Alg. 2)."""
        cx = (self.x_lo + self.x_hi) / 2.0
        cy = (self.y_lo + self.y_hi) / 2.0
        return (
            Rect(self.x_lo, self.y_lo, cx, cy),
            Rect(cx, self.y_lo, self.x_hi, cy),
            Rect(self.x_lo, cy, cx, self.y_hi),
            Rect(cx, cy, self.x_hi, self.y_hi),
        )

    def sample(self, rng) -> Point:
        """A uniformly random point inside the rectangle."""
        return Point(
            rng.uniform(self.x_lo, self.x_hi), rng.uniform(self.y_lo, self.y_hi)
        )
