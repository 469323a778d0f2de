"""Metrics collected by the simulation engine (Section 7.1 measures)."""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.core.types import SafeRegionStats
from repro.simulation.messages import Message


@dataclass
class SimulationMetrics:
    """Counters for one simulated run of one group."""

    timestamps: int = 0
    update_events: int = 0  # server-side recomputations (initial excluded)
    result_changes: int = 0  # how often the optimal point actually changed
    messages_up: int = 0
    messages_down: int = 0
    packets_up: int = 0
    packets_down: int = 0
    server_cpu_seconds: float = 0.0
    index_node_accesses: int = 0
    index_queries: int = 0
    tile_verifications: int = 0
    region_values_sent: int = 0

    def charge_update(
        self, cpu_seconds: float, stats: SafeRegionStats | None = None
    ) -> None:
        """Charge one server-side recomputation (and its index work)."""
        self.update_events += 1
        self.server_cpu_seconds += cpu_seconds
        if stats is not None:
            self.index_node_accesses += stats.index_node_accesses
            self.index_queries += stats.index_queries
            self.tile_verifications += stats.tile_verifications

    def charge_round(
        self,
        up: int,
        packets_up: int,
        down: int,
        packets_down: int,
        region_values: int = 0,
    ) -> None:
        """Charge one protocol step's traffic as totals (closed form in
        :mod:`repro.simulation.messages`); equals one
        :meth:`record_message` per message of the step."""
        self.messages_up += up
        self.packets_up += packets_up
        self.messages_down += down
        self.packets_down += packets_down
        self.region_values_sent += region_values

    def record_message(self, message: Message) -> None:
        if message.upstream:
            self.messages_up += 1
            self.packets_up += message.packets
        else:
            self.messages_down += 1
            self.packets_down += message.packets

    @property
    def messages_total(self) -> int:
        return self.messages_up + self.messages_down

    @property
    def packets_total(self) -> int:
        return self.packets_up + self.packets_down

    @property
    def update_frequency(self) -> float:
        """Update events per timestamp (the paper's update frequency)."""
        if self.timestamps == 0:
            return 0.0
        return self.update_events / self.timestamps

    @property
    def cpu_per_update(self) -> float:
        """Computation time for safe regions per update (Section 7.1)."""
        if self.update_events == 0:
            return 0.0
        return self.server_cpu_seconds / self.update_events

    def merge(self, other: "SimulationMetrics") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


def counter_fields(metrics=SimulationMetrics) -> tuple[str, ...]:
    """The integer counters of a metrics class or instance, by
    annotation — everything but wall-clock seconds, which never replay
    identically."""
    return tuple(f.name for f in fields(metrics) if f.type in ("int", int))


def average_metrics(runs: list[SimulationMetrics]) -> SimulationMetrics:
    """Per-group average, as reported in Section 7.1."""
    if not runs:
        raise ValueError("no runs to average")
    total = SimulationMetrics()
    for run in runs:
        total.merge(run)
    mean = {f.name: getattr(total, f.name) / len(runs) for f in fields(total)}
    for name in counter_fields():
        mean[name] = round(mean[name])
    return SimulationMetrics(**mean)
