"""Generic sweep runner producing the paper's figure series."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.index.backend import SpatialIndex
from repro.mobility.trajectory import Trajectory
from repro.simulation import Policy, SimulationMetrics, run_groups


@dataclass(frozen=True)
class SweepPoint:
    """One x-axis value of a figure: a label plus the runnable inputs."""

    label: str
    groups: Sequence[Sequence[Trajectory]]
    tree: SpatialIndex


@dataclass
class ExperimentRow:
    """One (method, x-value) cell with the paper's three measures.

    ``cpu_seconds`` is the server wall clock charged to each group's
    session for its recomputations, averaged over the groups: per wave,
    the session's equal share of that wave's wall clock.  The §7 harness
    plays one group per service, so every share is a whole one-session
    computation.
    """

    method: str
    x_label: str
    update_frequency: float
    update_events: int
    packets: int
    cpu_seconds: float
    metrics: SimulationMetrics = field(repr=False, default=None)  # type: ignore[assignment]


@dataclass
class ExperimentResult:
    """All rows of one figure, with pretty-printing."""

    figure: str
    x_name: str
    rows: list[ExperimentRow]

    def series(self, measure: str) -> dict[str, list[tuple[str, float]]]:
        """Per-method series of (x_label, value) — what the paper plots."""
        out: dict[str, list[tuple[str, float]]] = {}
        for row in self.rows:
            out.setdefault(row.method, []).append(
                (row.x_label, getattr(row, measure))
            )
        return out

    def methods(self) -> list[str]:
        seen: list[str] = []
        for row in self.rows:
            if row.method not in seen:
                seen.append(row.method)
        return seen


def run_experiment(
    figure: str,
    x_name: str,
    points: Sequence[SweepPoint],
    policies: Sequence[Policy],
    n_timestamps: int | None = None,
    check_every: int = 0,
    progress: Callable[[str], None] | None = None,
) -> ExperimentResult:
    """Run every policy at every sweep point; collect the figure rows."""
    rows: list[ExperimentRow] = []
    for point in points:
        for policy in policies:
            if progress is not None:
                progress(f"{figure}: {policy.name} @ {x_name}={point.label}")
            metrics = run_groups(
                policy, point.groups, point.tree, n_timestamps, check_every
            )
            rows.append(
                ExperimentRow(
                    method=policy.name,
                    x_label=point.label,
                    update_frequency=metrics.update_frequency,
                    update_events=metrics.update_events,
                    packets=metrics.packets_total,
                    cpu_seconds=metrics.server_cpu_seconds,
                    metrics=metrics,
                )
            )
    return ExperimentResult(figure=figure, x_name=x_name, rows=rows)


def format_table(result: ExperimentResult, measure: str = "update_events") -> str:
    """Render one measure as a method x sweep table (paper-style)."""
    series = result.series(measure)
    x_labels: list[str] = []
    for row in result.rows:
        if row.x_label not in x_labels:
            x_labels.append(row.x_label)
    header = f"{result.figure} — {measure} (columns: {result.x_name})"
    lines = [header, "-" * len(header)]
    name_w = max(len(m) for m in series) + 2
    lines.append(" " * name_w + "  ".join(f"{x:>12}" for x in x_labels))
    for method, values in series.items():
        by_x = dict(values)
        cells = []
        for x in x_labels:
            v = by_x.get(x)
            if v is None:
                cells.append(f"{'-':>12}")
            elif isinstance(v, float) and measure == "cpu_seconds":
                cells.append(f"{v:>12.3f}")
            elif isinstance(v, float) and v < 1.0:
                cells.append(f"{v:>12.4f}")
            else:
                cells.append(f"{v:>12.0f}")
        lines.append(f"{method:<{name_w}}" + "  ".join(cells))
    return "\n".join(lines)
