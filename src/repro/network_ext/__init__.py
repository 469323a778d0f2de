"""Road-network extension (the paper's future work, Section 8).

"In future, we plan to extend our techniques to the road network space.
For Circle, we may replace a circular region by a range search region
over road segments."

This subpackage implements that extension:

* :mod:`repro.network_ext.space` — positions on a road graph (node or
  point along an edge) and exact shortest-path distances between them;
* :mod:`repro.network_ext.ball` — the network analogue of a circular
  safe region: the set of points within network distance ``r`` of the
  user, stored as per-edge coverage intervals (a "range search region
  over road segments");
* :mod:`repro.network_ext.gnn` — MAX-/SUM-GNN under network distance;
* :mod:`repro.network_ext.circle_msr` — Algorithm 1 transplanted to the
  network metric.  Theorems 1 and 5 carry over verbatim because their
  proofs only use the triangle inequality, which shortest-path distance
  satisfies;
* :mod:`repro.network_ext.strategies` — the ``net_circle`` /
  ``net_tile`` registry strategies serving network sessions through
  :class:`repro.service.MPNService` (see also
  :class:`repro.space.network.NetworkPOISpace` and
  :class:`repro.index.network.NetworkIndex`);
* :mod:`repro.network_ext.monitor` — network trajectories, which
  :func:`repro.simulation.run_service` replays like planar ones.
"""

from repro.network_ext.space import NetworkPosition, NetworkSpace
from repro.network_ext.ball import NetworkBall
from repro.network_ext.gnn import network_gnn
from repro.network_ext.circle_msr import NetworkCircleResult, network_circle_msr
from repro.network_ext.tile_msr import (
    NetworkTileConfig,
    NetworkTileRegion,
    NetworkTileResult,
    network_tile_msr,
)
from repro.network_ext.strategies import NetworkCircleStrategy, NetworkTileStrategy
from repro.network_ext.monitor import NetworkTrajectory, network_trajectory

__all__ = [
    "NetworkPosition",
    "NetworkSpace",
    "NetworkBall",
    "network_gnn",
    "NetworkCircleResult",
    "network_circle_msr",
    "NetworkTileConfig",
    "NetworkTileRegion",
    "NetworkTileResult",
    "network_tile_msr",
    "NetworkCircleStrategy",
    "NetworkTileStrategy",
    "NetworkTrajectory",
    "network_trajectory",
]
