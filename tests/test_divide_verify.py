"""Tests for the divide-and-conquer tile verification (Algorithm 2)."""

from repro.core.divide_verify import divide_verify
from repro.core.types import SafeRegionStats
from repro.geometry.point import Point
from repro.geometry.region import TileRegion
from repro.geometry.tile import tile_at


def _region():
    return TileRegion(Point(0, 0), 4.0)


class TestDivideVerify:
    def test_whole_tile_accepted(self):
        region = _region()
        t = tile_at(Point(0, 0), 4.0, 1, 0)
        stats = SafeRegionStats()
        assert divide_verify(region, t, 2, lambda s: True, stats)
        assert len(region) == 1
        assert region.tiles[0] == t
        assert stats.tiles_added == 1

    def test_rejected_without_levels(self):
        region = _region()
        t = tile_at(Point(0, 0), 4.0, 1, 0)
        stats = SafeRegionStats()
        assert not divide_verify(region, t, 0, lambda s: False, stats)
        assert len(region) == 0
        assert stats.tiles_rejected == 1

    def test_splits_on_failure(self):
        """A predicate accepting only the left half yields 2 sub-tiles."""
        region = _region()
        t = tile_at(Point(0, 0), 4.0, 1, 0)

        def left_half_only(s):
            return s.rect.x_hi <= t.rect.center.x

        assert divide_verify(region, t, 1, left_half_only)
        assert len(region) == 2
        assert all(s.level == 1 for s in region)
        assert all(s.rect.x_hi <= t.rect.center.x for s in region)

    def test_recursion_depth_bounded(self):
        region = _region()
        t = tile_at(Point(0, 0), 4.0, 0, 1)
        calls = []

        def never(s):
            calls.append(s.level)
            return False

        assert not divide_verify(region, t, 2, never)
        # 1 whole + 4 level-1 + 16 level-2 verifications.
        assert len(calls) == 21
        assert max(calls) == 2

    def test_partial_acceptance_reports_true(self):
        """One accepted grandchild is enough for a True result."""
        region = _region()
        t = tile_at(Point(0, 0), 4.0, 1, 1)
        target = t.split()[0].split()[3]

        def only_target(s):
            return s.key() == target.key()

        assert divide_verify(region, t, 2, only_target)
        assert len(region) == 1
        assert region.tiles[0].key() == target.key()

    def test_accepted_subtiles_cover_accepting_area(self):
        """Sub-tiles adopted by the recursion tile the accepted half."""
        region = _region()
        t = tile_at(Point(0, 0), 4.0, 0, 2)

        def bottom_half(s):
            return s.rect.y_hi <= t.rect.center.y

        divide_verify(region, t, 3, bottom_half)
        area = sum(s.rect.area for s in region)
        assert area == t.rect.area / 2


class _Recorder(list):
    """A region that records the units Divide-Verify adds, in order."""

    add = list.append


class TestDivideVerifyEdgeInterval:
    """The same recursion on a road-edge interval, which halves itself."""

    @staticmethod
    def _interval(lo=0.0, hi=8.0):
        from repro.network_ext.tile_msr import EdgeInterval

        return EdgeInterval("a", "b", lo, hi)

    def test_recursion_depth_bounded(self):
        tried = []

        def never(iv):
            tried.append(iv.length)
            return False

        assert not divide_verify(_Recorder(), self._interval(), 2, never)
        # 1 whole + 2 halves + 4 quarters; none shorter than a quarter.
        assert len(tried) == 7
        assert min(tried) == 2.0

    def test_both_halves_tried_after_first_accepted(self):
        region = _Recorder()
        seen = []

        def halves_only(iv):
            seen.append((iv.lo, iv.hi))
            return iv.length <= 4.0

        assert divide_verify(region, self._interval(), 1, halves_only)
        assert seen == [(0.0, 8.0), (0.0, 4.0), (4.0, 8.0)]
        assert [(iv.lo, iv.hi) for iv in region] == [(0.0, 4.0), (4.0, 8.0)]

    def test_rejections_charged_only_at_last_level(self):
        stats = SafeRegionStats()
        assert not divide_verify(_Recorder(), self._interval(), 2, lambda iv: False, stats)
        assert stats.tiles_rejected == 4
        assert stats.tiles_added == 0

    def test_degenerate_halves_neither_tried_nor_charged(self):
        stats = SafeRegionStats()
        tried = []

        def never(iv):
            tried.append(iv)
            return False

        # Halves of 7.5e-10 are at or below the 1e-9 degenerate bound.
        assert not divide_verify(_Recorder(), self._interval(0.0, 1.5e-9), 1, never, stats)
        assert len(tried) == 1
        assert stats.tiles_rejected == 0
