"""Experiment harness: regenerate every figure of Section 7.

Each figure has a config builder in :mod:`repro.experiments.figures`
and runs through :func:`repro.experiments.harness.run_experiment`,
which plays each sweep point as one ``run_service`` stream and produces
the same series the paper plots (update frequency, communication cost
in packets, CPU time) as printable rows.
"""

from repro.experiments.scales import ExperimentScale, SCALES
from repro.experiments.harness import (
    ExperimentResult,
    ExperimentRow,
    format_table,
    run_experiment,
)
from repro.experiments.figures import (
    fig13_group_size,
    fig14_data_size,
    fig15_speed,
    fig16_buffering,
    fig17_sum_group_size,
    fig18_sum_data_size,
    fig19_sum_buffering,
    ALL_FIGURES,
)

__all__ = [
    "ExperimentScale",
    "SCALES",
    "ExperimentResult",
    "ExperimentRow",
    "format_table",
    "run_experiment",
    "fig13_group_size",
    "fig14_data_size",
    "fig15_speed",
    "fig16_buffering",
    "fig17_sum_group_size",
    "fig18_sum_data_size",
    "fig19_sum_buffering",
    "ALL_FIGURES",
]
