"""Client-server monitoring simulation (Section 3.1, Fig. 3).

The engine replays trajectory groups against the session-oriented
serving layer (:mod:`repro.service`).  Whenever a user leaves her safe
region the three-step protocol runs: (1) she reports her location;
(2) the server probes the other members; (3) the server notifies
everyone of the new optimal meeting point and their new safe regions.
Message and packet accounting follows the paper's model (576-byte MTU,
40-byte header, 67 doubles per packet).

:func:`run_service` plays fleets of fixed trajectory groups — a
:class:`TrajectoryGroups` tick stream — through
:func:`repro.scenarios.run_scenario`, the one ``report_many`` tick
loop; :func:`run_simulation` is its one-group case, and
:func:`run_adaptive_simulation` retunes one session between rounds.
"""

from repro.simulation.messages import (
    VALUES_PER_PACKET,
    Message,
    MessageKind,
    packets_for_values,
)
from repro.simulation.metrics import SimulationMetrics
from repro.simulation.policies import (
    Policy,
    PolicyKind,
    circle_policy,
    custom_policy,
    net_circle_policy,
    net_tile_policy,
    periodic_policy,
    tile_policy,
    tile_d_policy,
    tile_d_b_policy,
)
from repro.simulation.engine import (
    SafeRegionViolation,
    ServiceRunResult,
    TrajectoryGroups,
    run_groups,
    run_service,
    run_simulation,
)
from repro.simulation.adaptive import (
    AdaptiveAlphaController,
    AdaptiveConfig,
    run_adaptive_simulation,
)
from repro.simulation.cost_model import CostEstimate, estimate_costs

__all__ = [
    "VALUES_PER_PACKET",
    "Message",
    "MessageKind",
    "packets_for_values",
    "SimulationMetrics",
    "Policy",
    "PolicyKind",
    "circle_policy",
    "custom_policy",
    "net_circle_policy",
    "net_tile_policy",
    "periodic_policy",
    "tile_policy",
    "tile_d_policy",
    "tile_d_b_policy",
    "SafeRegionViolation",
    "run_simulation",
    "run_groups",
    "run_service",
    "ServiceRunResult",
    "TrajectoryGroups",
    "AdaptiveAlphaController",
    "AdaptiveConfig",
    "run_adaptive_simulation",
    "CostEstimate",
    "estimate_costs",
]
