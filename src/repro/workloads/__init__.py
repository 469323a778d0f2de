"""Workload construction: POI datasets, user groups, dataset presets."""

from repro.workloads.poi import clustered_pois, uniform_pois, build_poi_tree
from repro.workloads.groups import partition_groups
from repro.workloads.datasets import (
    Dataset,
    DatasetSpec,
    WORLD,
    build_dataset,
    geolife_dataset,
    oldenburg_dataset,
)

__all__ = [
    "clustered_pois",
    "uniform_pois",
    "build_poi_tree",
    "partition_groups",
    "Dataset",
    "DatasetSpec",
    "WORLD",
    "build_dataset",
    "geolife_dataset",
    "oldenburg_dataset",
]
