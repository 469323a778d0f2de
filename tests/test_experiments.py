"""Tests for the experiment harness and figure builders (tiny scale)."""

import pytest

from repro.experiments.figures import (
    ALL_FIGURES,
    fig13_group_size,
    fig14_data_size,
    fig15_speed,
    fig16_buffering,
)
from repro.experiments.harness import format_table
from repro.experiments.scales import BENCH, SCALES, ExperimentScale
from repro.simulation.adaptive import AdaptiveConfig, run_adaptive_simulation
from repro.simulation.policies import tile_policy
from repro.workloads.datasets import DatasetSpec, build_dataset

TINY = ExperimentScale(
    name="tiny",
    n_pois=300,
    n_trajectories=4,
    n_timestamps=80,
    max_groups=1,
    alpha=4,
    split_level=1,
    default_group_size=2,
)


class TestScales:
    def test_registry(self):
        assert set(SCALES) == {"bench", "small", "full"}
        assert SCALES["full"].n_pois == 21287  # the paper's N

    def test_bench_is_smallest(self):
        assert BENCH.n_pois < SCALES["small"].n_pois < SCALES["full"].n_pois


class TestFigureBuilders:
    def test_all_figures_registered(self):
        assert set(ALL_FIGURES) == {
            "fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19",
        }

    @pytest.fixture(scope="class")
    def fig13(self):
        return fig13_group_size(scale=TINY, group_sizes=(2,))

    def test_fig13_rows(self, fig13):
        assert {r.method for r in fig13.rows} == {"Circle", "Tile", "Tile-D"}
        assert all(r.x_label == "2" for r in fig13.rows)
        assert all(r.update_events >= 1 for r in fig13.rows)

    def test_series_extraction(self, fig13):
        series = fig13.series("update_events")
        assert set(series) == {"Circle", "Tile", "Tile-D"}
        assert all(len(v) == 1 for v in series.values())

    def test_format_table_renders(self, fig13):
        text = format_table(fig13, "update_events")
        assert "fig13" in text
        assert "Circle" in text and "Tile-D" in text

    def test_fig14_sweeps_fractions(self):
        result = fig14_data_size(scale=TINY, fractions=(0.5, 1.0))
        labels = {r.x_label for r in result.rows}
        assert labels == {"0.5N", "1N"}

    def test_fig15_sweeps_speed(self):
        result = fig15_speed(scale=TINY, fractions=(0.5, 1.0))
        labels = {r.x_label for r in result.rows}
        assert labels == {"0.5V", "1V"}

    def test_fig16_has_reference_and_buffered(self):
        result = fig16_buffering(scale=TINY, b_values=(10,))
        assert {r.method for r in result.rows} == {"Tile-D", "Tile-D-b"}

    def test_progress_callback_invoked(self):
        seen = []
        fig13_group_size(scale=TINY, group_sizes=(2,), progress=seen.append)
        assert len(seen) == 3  # one per policy


class TestSection7Referee:
    """The §7 numbers, pinned as literals: whichever driver plays the
    groups, every row's integer measures must come out unchanged."""

    def test_fig13_rows_pinned(self):
        rows = fig13_group_size(scale=TINY).rows
        assert [
            (r.method, r.x_label, r.update_events, r.packets) for r in rows
        ] == [
            ("Circle", "2", 6, 29),
            ("Tile", "2", 8, 39),
            ("Tile-D", "2", 3, 14),
            ("Circle", "3", 41, 326),
            ("Tile", "3", 45, 358),
            ("Tile-D", "3", 24, 190),
            ("Circle", "4", 41, 448),
            ("Tile", "4", 45, 492),
            ("Tile-D", "4", 25, 272),
        ]

    def test_fig16_rows_pinned(self):
        rows = fig16_buffering(scale=TINY).rows
        assert [
            (r.method, r.x_label, r.update_events, r.packets) for r in rows
        ] == [
            (method, b, 3, 14)
            for b in ("10", "25", "50", "75", "100")
            for method in ("Tile-D", "Tile-D-b")
        ]

    def test_adaptive_alpha_history_pinned(self):
        dataset = build_dataset(
            DatasetSpec(
                name="geolife", n_pois=300, n_trajectories=3, n_timestamps=200
            )
        )
        metrics, controller = run_adaptive_simulation(
            tile_policy(alpha=6, split_level=1),
            dataset.trajectories,
            dataset.tree,
            AdaptiveConfig(alpha_min=2, alpha_max=16, target_interval=5.0),
        )
        assert controller.history == [
            6, 4, 4, 4, 4, 7, 10, 15, 16, 16, 16, 16, 16, 16, 16, 16, 16,
            16, 16, 16, 16, 12, 9, 7, 5, 4, 4, 4, 4, 4, 3, 2, 2,
        ]
        assert (metrics.update_events, metrics.packets_total) == (33, 262)
