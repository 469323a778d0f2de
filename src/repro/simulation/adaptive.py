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

The driver retunes the session through
:meth:`repro.service.MPNService.update_policy` before each
recomputation — the alpha swap is a policy update on a live session,
not a new server.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

from repro.index.backend import SpatialIndex
from repro.mobility.trajectory import Trajectory
from repro.service.service import MPNService
from repro.simulation.engine import (
    _advance_and_find_trigger,
    _deliver,
    _make_clients,
    _open_group_session,
    _steps,
)
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

    clients = _make_clients(base_policy, trajectories)
    service = MPNService(tree)
    session_id, _ = _open_group_session(service, tuned_policy(), clients)
    metrics = service.session_metrics(session_id)
    last_update_t = 0

    for t in range(1, steps):
        escaped = _advance_and_find_trigger(clients, t)
        if escaped is None:
            continue
        trigger, state = escaped
        service.update_policy(session_id, tuned_policy())
        cpu_before = metrics.server_cpu_seconds
        notification = service.report(
            session_id, trigger, state.point, state.heading, state.theta
        )
        if notification is None:  # pragma: no cover - escape implies a round
            continue
        _deliver(clients, notification)
        cpu_spent = metrics.server_cpu_seconds - cpu_before
        controller.observe_update(float(t - last_update_t), cpu_spent)
        last_update_t = t
    metrics.timestamps = steps
    return metrics, controller
