"""repro — Meeting Point Notification via independent safe regions.

A from-scratch reproduction of:

    Li, Thomsen, Yiu, Mamoulis.  "Efficient Notification of Meeting
    Points for Moving Groups via Independent Safe Regions."
    ICDE 2013; extended version IEEE TKDE 27(7), 2015.

Public entry points:

* :func:`repro.core.circle_msr` — circular safe regions (Algorithm 1).
* :func:`repro.core.tile_msr` — tile-based safe regions (Algorithm 3)
  with GT-Verify, index pruning and the buffering optimization, for
  both the MAX (MPN) and SUM (Sum-MPN) objectives.
* :mod:`repro.service` — the session-oriented serving layer:
  :class:`MPNService` (open_session / report / update_pois), the
  pluggable safe-region strategy registry, and the transport-ready
  envelope API (:mod:`repro.service.api`: versioned request/response
  dataclasses + the ``ServiceBackend`` dispatch protocol).
* :mod:`repro.cluster` — :class:`MPNCluster`, the sharded front door:
  consistent-hash session routing over per-shard service workers with
  replicated POI indexes, answer-identical to a single service.
* :mod:`repro.space` — the metric-space abstraction the serving layer
  is generic over; road networks plug in via
  :class:`repro.space.network.NetworkPOISpace` and the ``net_circle``
  / ``net_tile`` strategies.
* :mod:`repro.simulation` — the client-server monitoring loop with the
  paper's message/packet accounting.
* :mod:`repro.experiments` — harnesses regenerating Figures 13-19.
"""

import logging

from repro.core import (
    circle_msr,
    tile_msr,
    TileMSRConfig,
    Ordering,
    VerifierKind,
)
from repro.gnn import Aggregate, find_max_gnn, find_sum_gnn
from repro.geometry import Point, Rect, Circle, Tile, TileRegion
from repro.index import FlatRTree, SpatialIndex, build_index
from repro.service import (
    MPNService,
    Notification,
    ServiceBackend,
    SessionHandle,
    UnknownSessionError,
    available_strategies,
    get_strategy,
    register_strategy,
)
from repro.cluster import MPNCluster
from repro.space import EuclideanSpace, Space, as_space, replicate_space

__version__ = "1.4.0"

# Library etiquette: lifecycle events (``repro.transport``) are silent
# unless the application configures logging.
logging.getLogger("repro").addHandler(logging.NullHandler())

__all__ = [
    "circle_msr",
    "tile_msr",
    "TileMSRConfig",
    "Ordering",
    "VerifierKind",
    "Aggregate",
    "find_max_gnn",
    "find_sum_gnn",
    "Point",
    "Rect",
    "Circle",
    "Tile",
    "TileRegion",
    "FlatRTree",
    "SpatialIndex",
    "build_index",
    "MPNService",
    "MPNCluster",
    "ServiceBackend",
    "Notification",
    "SessionHandle",
    "UnknownSessionError",
    "register_strategy",
    "get_strategy",
    "available_strategies",
    "Space",
    "EuclideanSpace",
    "as_space",
    "replicate_space",
    "__version__",
]
