"""Moving-object substrate: trajectories and their generators.

The paper evaluates on two trajectory sets (Section 7.1): GeoLife (real
taxi traces) and Oldenburg (Brinkhoff's network-based generator).
Neither asset ships with this reproduction, so we provide synthetic
equivalents that exercise the same code paths:

* :func:`repro.mobility.random_waypoint.geolife_like` — destination-
  directed waypoint motion with speed noise and pauses (taxi-trace
  stand-in);
* :func:`repro.mobility.network.brinkhoff_like` — shortest-path motion
  on a synthetic road network (Brinkhoff stand-in).

Both emit :class:`~repro.mobility.trajectory.Trajectory` objects with
one location per timestamp, plus the speed-scaling transform the paper
uses for its "effect of user speed" experiment (Section 7.2).
"""

from repro.mobility.trajectory import Trajectory, scale_speed
from repro.mobility.random_waypoint import geolife_like
from repro.mobility.converge import ConvergeParams, generate_converge_trajectory
from repro.mobility.direction import DirectionPredictor

__all__ = [
    "Trajectory",
    "scale_speed",
    "geolife_like",
    "ConvergeParams",
    "generate_converge_trajectory",
    "DirectionPredictor",
]
