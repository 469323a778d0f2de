"""Self-tuning tile budgets (inspired by ref. [9]'s adjustable regions).

Tile-MSR's tile limit alpha trades server CPU against update frequency
(see the alpha ablation in ``benchmarks/test_ablation.py``).  The right
alpha depends on the group's behaviour: fast erratic groups escape even
large regions quickly, so the extra tiles are wasted work; slow groups
amortize big regions over long quiet stretches.  The paper fixes
alpha = 30 for its workloads; ref. [9] shows such knobs can self-tune
from the observed update stream.

:class:`AdaptiveAlphaController` implements a multiplicative
increase/decrease rule on the *observed inter-update interval*:

* interval shorter than ``target_interval`` — the region was escaped
  too quickly for the effort spent; growing it further has better
  marginal value, so alpha increases;
* interval much longer than the target — the region outlived its
  usefulness; shrink alpha and save CPU;
* an optional hard ``cpu_budget`` per update overrides growth.

The driver plays its one group as a
:class:`~repro.simulation.engine.TrajectoryGroups` stream through
:func:`repro.scenarios.run_scenario`, like every other session-based
run.  A thin proxy around the service retunes the session through
:meth:`repro.service.MPNService.update_policy` before each of its
waves and feeds the controller after it — the alpha swap is a policy
update on a live session, not a new server.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

from repro.index.backend import SpatialIndex
from repro.mobility.trajectory import Trajectory
from repro.service.service import MPNService
from repro.simulation.engine import TrajectoryGroups, _steps
from repro.simulation.metrics import SimulationMetrics
from repro.simulation.policies import Policy


@dataclass
class AdaptiveConfig:
    """Tuning of the alpha controller."""

    alpha_min: int = 4
    alpha_max: int = 48
    target_interval: float = 40.0  # desired quiet timestamps per update
    grow_factor: float = 1.5
    shrink_factor: float = 0.75
    cpu_budget: Optional[float] = None  # max seconds per update

    def __post_init__(self) -> None:
        if not 1 <= self.alpha_min <= self.alpha_max:
            raise ValueError("need 1 <= alpha_min <= alpha_max")
        if self.grow_factor <= 1.0 or not 0.0 < self.shrink_factor < 1.0:
            raise ValueError("grow_factor > 1 and 0 < shrink_factor < 1 required")


class AdaptiveAlphaController:
    """Multiplicative increase/decrease of the tile budget."""

    def __init__(self, config: AdaptiveConfig, initial_alpha: int = 16):
        self.config = config
        self._alpha = float(
            min(max(initial_alpha, config.alpha_min), config.alpha_max)
        )
        self.history: list[int] = [self.alpha]

    @property
    def alpha(self) -> int:
        return int(round(self._alpha))

    def observe_update(self, interval: float, cpu_seconds: float) -> int:
        """Feed one update event; returns the alpha for the next one."""
        cfg = self.config
        if cfg.cpu_budget is not None and cpu_seconds > cfg.cpu_budget:
            self._alpha *= cfg.shrink_factor
        elif interval < cfg.target_interval:
            self._alpha *= cfg.grow_factor
        elif interval > 2.0 * cfg.target_interval:
            self._alpha *= cfg.shrink_factor
        self._alpha = min(max(self._alpha, cfg.alpha_min), cfg.alpha_max)
        self.history.append(self.alpha)
        return self.alpha


class _Retuned:
    """:func:`run_adaptive_simulation`'s backend: before each wave of
    its one session, the policy takes the controller's alpha; after it,
    the controller observes the interval since the last wave and the
    wave's server time.  Everything else passes through."""

    def __init__(
        self,
        service: MPNService,
        stream: TrajectoryGroups,
        controller: AdaptiveAlphaController,
        tuned_policy: Callable[[], Policy],
    ):
        self._service = service
        self._stream = stream
        self._controller = controller
        self._tuned_policy = tuned_policy
        self._last_update_t = 0

    def __getattr__(self, name: str):
        return getattr(self._service, name)

    def report_many(self, events):
        (event,) = events
        self._service.update_policy(event.session_id, self._tuned_policy())
        metrics = self._service.session_metrics(event.session_id)
        cpu_before = metrics.server_cpu_seconds
        notifications = self._service.report_many(events)
        t = self._stream.tick
        self._controller.observe_update(
            float(t - self._last_update_t),
            metrics.server_cpu_seconds - cpu_before,
        )
        self._last_update_t = t
        return notifications


def run_adaptive_simulation(
    base_policy: Policy,
    trajectories: Sequence[Trajectory],
    tree: SpatialIndex,
    adaptive: AdaptiveConfig | None = None,
    n_timestamps: Optional[int] = None,
) -> tuple[SimulationMetrics, AdaptiveAlphaController]:
    """The monitoring loop with a per-update alpha adjustment.

    ``base_policy`` must be a tile policy; its config's alpha seeds the
    controller and the session's policy is retuned before every
    recomputation.
    """
    from repro.scenarios.runner import run_scenario

    if base_policy.tile_config is None:
        raise ValueError("adaptive tuning applies to tile policies only")
    if adaptive is None:
        adaptive = AdaptiveConfig()
    controller = AdaptiveAlphaController(
        adaptive, base_policy.tile_config.alpha
    )
    steps = _steps([trajectories], n_timestamps)

    def tuned_policy() -> Policy:
        config = replace(base_policy.tile_config, alpha=controller.alpha)
        return replace(base_policy, tile_config=config)

    service = MPNService(tree)
    stream = TrajectoryGroups([trajectories], [tuned_policy()], steps)
    run_scenario(stream, _Retuned(service, stream, controller, tuned_policy))
    metrics = service.session_metrics(0)
    metrics.timestamps = steps
    return metrics, controller
