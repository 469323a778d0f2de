"""Dataset presets combining POIs and trajectory sets.

A :class:`Dataset` is everything one experiment run needs: the POI
R-tree, the trajectory set, and the bookkeeping to derive user groups
and speed-scaled variants.  Two presets mirror the paper's two
workloads (GeoLife-like and Oldenburg-like, Section 7.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.index.backend import SpatialIndex
from repro.mobility.random_waypoint import WaypointParams, geolife_like
from repro.mobility.trajectory import Trajectory, scale_speed
from repro.workloads.groups import partition_groups
from repro.workloads.poi import build_poi_tree, clustered_pois, subset_fraction

# A 100km x 100km world in arbitrary units.
WORLD = Rect(0.0, 0.0, 100_000.0, 100_000.0)


@dataclass(frozen=True)
class DatasetSpec:
    """Scale parameters for one dataset build."""

    name: str = "geolife"  # "geolife" or "oldenburg"
    n_pois: int = 4000
    n_trajectories: int = 12
    n_timestamps: int = 2000
    speed: float = 60.0  # the paper's V, in world units per timestamp
    seed: int = 42


@dataclass
class Dataset:
    """POIs + trajectories, ready for group/speed/data-size sweeps."""

    spec: DatasetSpec
    pois: list[Point]
    trajectories: list[Trajectory]
    tree: SpatialIndex = field(repr=False)

    def groups(self, group_size: int, max_groups: int = 10) -> list[list[Trajectory]]:
        return partition_groups(self.trajectories, group_size, max_groups)

    def with_poi_fraction(self, fraction: float) -> "Dataset":
        """Figures 14/18: a variant with ``fraction`` of the POIs."""
        subset = subset_fraction(self.pois, fraction, seed=self.spec.seed)
        return Dataset(
            spec=self.spec,
            pois=subset,
            trajectories=self.trajectories,
            tree=build_poi_tree(subset),
        )

    def with_speed_fraction(self, fraction: float) -> "Dataset":
        """Figure 15: the paper's consistent-trajectory speed scaling."""
        scaled = [scale_speed(t, fraction) for t in self.trajectories]
        return Dataset(
            spec=self.spec, pois=self.pois, trajectories=scaled, tree=self.tree
        )


def build_dataset(spec: DatasetSpec) -> Dataset:
    """Build a dataset from its spec (deterministic per seed)."""
    pois = clustered_pois(spec.n_pois, WORLD, seed=spec.seed)
    if spec.name == "geolife":
        trajectories = geolife_like(
            spec.n_trajectories,
            spec.n_timestamps,
            WORLD,
            WaypointParams(speed=spec.speed),
            seed=spec.seed + 1,
        )
    elif spec.name == "oldenburg":
        from repro.mobility.network import NetworkParams, brinkhoff_like

        scale = spec.speed / 5.0
        params = NetworkParams(
            speed_classes=tuple(v * scale for v in (2.5, 5.0, 10.0))
        )
        trajectories = brinkhoff_like(
            spec.n_trajectories,
            spec.n_timestamps,
            WORLD,
            params,
            seed=spec.seed + 1,
        )
    else:
        raise ValueError(f"unknown dataset name: {spec.name!r}")
    return Dataset(
        spec=spec,
        pois=pois,
        trajectories=trajectories,
        tree=build_poi_tree(pois),
    )


@lru_cache(maxsize=8)
def _cached(spec: DatasetSpec) -> Dataset:
    return build_dataset(spec)


def geolife_dataset(spec: DatasetSpec | None = None) -> Dataset:
    """The GeoLife-like preset (cached per spec)."""
    if spec is None:
        spec = DatasetSpec(name="geolife")
    if spec.name != "geolife":
        raise ValueError("spec.name must be 'geolife'")
    return _cached(spec)


def oldenburg_dataset(spec: DatasetSpec | None = None) -> Dataset:
    """The Oldenburg-like preset (cached per spec)."""
    if spec is None:
        spec = DatasetSpec(name="oldenburg")
    if spec.name != "oldenburg":
        raise ValueError("spec.name must be 'oldenburg'")
    return _cached(spec)
