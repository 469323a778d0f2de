"""Unit and property tests for rectangles and MBR distance semantics."""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry.point import Point
from repro.geometry.rect import Rect

coord = st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False)


@st.composite
def rects(draw):
    x1, x2 = sorted((draw(coord), draw(coord)))
    y1, y2 = sorted((draw(coord), draw(coord)))
    return Rect(x1, y1, x2, y2)


@st.composite
def points(draw):
    return Point(draw(coord), draw(coord))


class TestRectBasics:
    def test_degenerate_raises(self):
        with pytest.raises(ValueError):
            Rect(1, 0, 0, 1)

    def test_from_point(self):
        r = Rect.from_point(Point(2, 3))
        assert (r.x_lo, r.y_lo, r.x_hi, r.y_hi) == (2, 3, 2, 3)
        assert r.area == 0.0

    def test_from_points(self):
        r = Rect.from_points([Point(0, 5), Point(2, 1), Point(1, 3)])
        assert (r.x_lo, r.y_lo, r.x_hi, r.y_hi) == (0, 1, 2, 5)

    def test_from_points_empty_raises(self):
        with pytest.raises(ValueError):
            Rect.from_points([])

    def test_square(self):
        r = Rect.square(Point(1, 1), 4.0)
        assert (r.x_lo, r.y_lo, r.x_hi, r.y_hi) == (-1, -1, 3, 3)
        assert r.center == Point(1, 1)

    def test_properties(self):
        r = Rect(0, 0, 4, 2)
        assert r.width == 4 and r.height == 2
        assert r.area == 8
        assert r.margin == 12
        assert r.center == Point(2, 1)

    def test_corners(self):
        corners = Rect(0, 0, 1, 2).corners()
        assert set(corners) == {Point(0, 0), Point(1, 0), Point(1, 2), Point(0, 2)}

    def test_contains_point_boundary(self):
        r = Rect(0, 0, 1, 1)
        assert r.contains_point(Point(0, 0))
        assert r.contains_point(Point(1, 1))
        assert not r.contains_point(Point(1.0001, 0.5))
        assert r.contains_point(Point(1.0001, 0.5), eps=0.001)

    def test_contains_rect(self):
        assert Rect(0, 0, 4, 4).contains_rect(Rect(1, 1, 2, 2))
        assert not Rect(1, 1, 2, 2).contains_rect(Rect(0, 0, 4, 4))

    def test_intersects(self):
        assert Rect(0, 0, 2, 2).intersects(Rect(1, 1, 3, 3))
        assert Rect(0, 0, 2, 2).intersects(Rect(2, 2, 3, 3))  # touching
        assert not Rect(0, 0, 1, 1).intersects(Rect(2, 2, 3, 3))

    def test_union(self):
        u = Rect(0, 0, 1, 1).union(Rect(2, 2, 3, 3))
        assert (u.x_lo, u.y_lo, u.x_hi, u.y_hi) == (0, 0, 3, 3)

    def test_min_dist_inside_is_zero(self):
        assert Rect(0, 0, 2, 2).min_dist(Point(1, 1)) == 0.0

    def test_min_dist_outside(self):
        assert Rect(0, 0, 1, 1).min_dist(Point(4, 5)) == 5.0

    def test_max_dist_is_farthest_corner(self):
        r = Rect(0, 0, 1, 1)
        assert r.max_dist(Point(0, 0)) == pytest.approx(math.sqrt(2))
        assert r.max_dist(Point(-3, 0)) == pytest.approx(math.hypot(4, 1))

    def test_quadrants_partition(self):
        r = Rect(0, 0, 4, 4)
        quads = r.quadrants()
        assert len(quads) == 4
        assert sum(q.area for q in quads) == pytest.approx(r.area)
        for q in quads:
            assert r.contains_rect(q)

    def test_sample_inside(self):
        rng = random.Random(0)
        r = Rect(5, 5, 6, 7)
        for _ in range(50):
            assert r.contains_point(r.sample(rng))


class TestRectDistanceProperties:
    @given(rects(), points())
    def test_min_le_max(self, r, p):
        assert r.min_dist(p) <= r.max_dist(p) + 1e-9

    @given(rects(), points(), st.randoms(use_true_random=False))
    def test_sampled_point_between_bounds(self, r, p, rnd):
        sample = r.sample(rnd)
        d = p.dist(sample)
        assert r.min_dist(p) - 1e-6 <= d <= r.max_dist(p) + 1e-6

    @given(rects(), points())
    def test_corners_bound_max(self, r, p):
        worst = max(p.dist(c) for c in r.corners())
        assert math.isclose(r.max_dist(p), worst, rel_tol=1e-9, abs_tol=1e-9)

    @given(rects(), rects())
    def test_union_contains_both(self, a, b):
        u = a.union(b)
        assert u.contains_rect(a)
        assert u.contains_rect(b)

    @given(rects(), rects())
    def test_intersects_symmetric(self, a, b):
        assert a.intersects(b) == b.intersects(a)
