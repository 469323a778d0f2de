"""Per-figure experiment builders (Section 7, Figures 13-19).

Every function returns an :class:`ExperimentResult` holding the same
series the corresponding paper figure plots.  The ``scale`` argument
selects workload size (see :mod:`repro.experiments.scales`); the
``dataset_name`` selects the GeoLife-like or Oldenburg-like trajectory
substitute.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Sequence

from repro.experiments.harness import ExperimentResult, SweepPoint, run_experiment
from repro.experiments.scales import SMALL, ExperimentScale
from repro.gnn.aggregate import Aggregate
from repro.simulation.policies import (
    Policy,
    circle_policy,
    tile_d_b_policy,
    tile_d_policy,
    tile_policy,
)
from repro.workloads.datasets import Dataset, DatasetSpec, build_dataset

GROUP_SIZES = (2, 3, 4, 5, 6)  # Table 2
DATA_FRACTIONS = (0.25, 0.5, 0.75, 1.0)  # Table 2
SPEED_FRACTIONS = (0.25, 0.5, 0.75, 1.0)  # Table 2
BUFFER_VALUES = (10, 25, 50, 75, 100)  # Fig. 16/19 x-axis


def _dataset(scale: ExperimentScale, dataset_name: str) -> Dataset:
    spec = DatasetSpec(
        name=dataset_name,
        n_pois=scale.n_pois,
        n_trajectories=scale.n_trajectories,
        n_timestamps=scale.n_timestamps,
        speed=scale.speed,
    )
    return build_dataset(spec)


def _main_policies(scale: ExperimentScale, objective: Aggregate) -> list[Policy]:
    """Circle / Tile / Tile-D — the lineup of Figs. 13-15 and 17-18."""
    kwargs = dict(
        objective=objective, alpha=scale.alpha, split_level=scale.split_level
    )
    return [circle_policy(objective), tile_policy(**kwargs), tile_d_policy(**kwargs)]


def _group_size_figure(
    figure: str,
    objective: Aggregate,
    scale: ExperimentScale,
    dataset_name: str,
    group_sizes: Sequence[int],
    progress: Callable[[str], None] | None,
) -> ExperimentResult:
    ds = _dataset(scale, dataset_name)
    points = []
    for m in group_sizes:
        if m > len(ds.trajectories):
            continue
        points.append(
            SweepPoint(label=str(m), groups=ds.groups(m, scale.max_groups), tree=ds.tree)
        )
    return run_experiment(
        figure, "m", points, _main_policies(scale, objective), progress=progress
    )


def fig13_group_size(
    scale: ExperimentScale = SMALL,
    dataset_name: str = "geolife",
    group_sizes: Sequence[int] = GROUP_SIZES,
    progress: Callable[[str], None] | None = None,
) -> ExperimentResult:
    """Fig. 13: vary the user group size m (MPN)."""
    return _group_size_figure(
        "fig13", Aggregate.MAX, scale, dataset_name, group_sizes, progress
    )


def fig17_sum_group_size(
    scale: ExperimentScale = SMALL,
    dataset_name: str = "geolife",
    group_sizes: Sequence[int] = GROUP_SIZES,
    progress: Callable[[str], None] | None = None,
) -> ExperimentResult:
    """Fig. 17: vary the user group size m (Sum-MPN)."""
    return _group_size_figure(
        "fig17", Aggregate.SUM, scale, dataset_name, group_sizes, progress
    )


def _data_size_figure(
    figure: str,
    objective: Aggregate,
    scale: ExperimentScale,
    dataset_name: str,
    fractions: Sequence[float],
    progress: Callable[[str], None] | None,
) -> ExperimentResult:
    ds = _dataset(scale, dataset_name)
    m = scale.default_group_size
    points = []
    for frac in fractions:
        variant = ds.with_poi_fraction(frac)
        points.append(
            SweepPoint(
                label=f"{frac:g}N",
                groups=variant.groups(m, scale.max_groups),
                tree=variant.tree,
            )
        )
    return run_experiment(
        figure, "n", points, _main_policies(scale, objective), progress=progress
    )


def fig14_data_size(
    scale: ExperimentScale = SMALL,
    dataset_name: str = "geolife",
    fractions: Sequence[float] = DATA_FRACTIONS,
    progress: Callable[[str], None] | None = None,
) -> ExperimentResult:
    """Fig. 14: vary the POI count n as a fraction of N (MPN)."""
    return _data_size_figure(
        "fig14", Aggregate.MAX, scale, dataset_name, fractions, progress
    )


def fig18_sum_data_size(
    scale: ExperimentScale = SMALL,
    dataset_name: str = "geolife",
    fractions: Sequence[float] = DATA_FRACTIONS,
    progress: Callable[[str], None] | None = None,
) -> ExperimentResult:
    """Fig. 18: vary the POI count n (Sum-MPN)."""
    return _data_size_figure(
        "fig18", Aggregate.SUM, scale, dataset_name, fractions, progress
    )


def fig15_speed(
    scale: ExperimentScale = SMALL,
    dataset_name: str = "geolife",
    fractions: Sequence[float] = SPEED_FRACTIONS,
    progress: Callable[[str], None] | None = None,
) -> ExperimentResult:
    """Fig. 15: vary the user speed as a fraction of the limit V (MPN)."""
    ds = _dataset(scale, dataset_name)
    m = scale.default_group_size
    points = []
    for frac in fractions:
        variant = ds.with_speed_fraction(frac)
        points.append(
            SweepPoint(
                label=f"{frac:g}V",
                groups=variant.groups(m, scale.max_groups),
                tree=variant.tree,
            )
        )
    return run_experiment(
        "fig15", "speed", points, _main_policies(scale, Aggregate.MAX), progress=progress
    )


def _buffering_figure(
    figure: str,
    objective: Aggregate,
    scale: ExperimentScale,
    dataset_name: str,
    b_values: Sequence[int],
    progress: Callable[[str], None] | None,
) -> ExperimentResult:
    """Figs. 16/19: Tile-D vs Tile-D-b as a function of b.

    Tile-D is b-independent; the paper plots it as a flat reference
    line.  One point plays Tile-D and every Tile-D-b together, and the
    one Tile-D row is reported at every x-value.
    """
    ds = _dataset(scale, dataset_name)
    groups = ds.groups(scale.default_group_size, scale.max_groups)
    kwargs = dict(
        objective=objective, alpha=scale.alpha, split_level=scale.split_level
    )
    point = SweepPoint(label=",".join(map(str, b_values)), groups=groups, tree=ds.tree)
    policies = [tile_d_policy(**kwargs)]
    policies += [tile_d_b_policy(b=b, **kwargs) for b in b_values]
    reference, *buffered = run_experiment(
        figure, "b", [point], policies, progress=progress
    ).rows
    rows = []
    for b, row in zip(b_values, buffered):
        rows.append(replace(reference, x_label=str(b)))
        rows.append(replace(row, method="Tile-D-b", x_label=str(b)))
    return ExperimentResult(figure=figure, x_name="b", rows=rows)


def fig16_buffering(
    scale: ExperimentScale = SMALL,
    dataset_name: str = "geolife",
    b_values: Sequence[int] = BUFFER_VALUES,
    progress: Callable[[str], None] | None = None,
) -> ExperimentResult:
    """Fig. 16: effect of the buffering parameter b (MPN)."""
    return _buffering_figure(
        "fig16", Aggregate.MAX, scale, dataset_name, b_values, progress
    )


def fig19_sum_buffering(
    scale: ExperimentScale = SMALL,
    dataset_name: str = "geolife",
    b_values: Sequence[int] = BUFFER_VALUES,
    progress: Callable[[str], None] | None = None,
) -> ExperimentResult:
    """Fig. 19: effect of the buffering parameter b (Sum-MPN)."""
    return _buffering_figure(
        "fig19", Aggregate.SUM, scale, dataset_name, b_values, progress
    )


ALL_FIGURES = {
    "fig13": fig13_group_size,
    "fig14": fig14_data_size,
    "fig15": fig15_speed,
    "fig16": fig16_buffering,
    "fig17": fig17_sum_group_size,
    "fig18": fig18_sum_data_size,
    "fig19": fig19_sum_buffering,
}
