"""Spatial indexing substrate.

The paper's server "manages a data set P of points-of-interest and
indexes it by an R-tree" (Section 3.1).  This subpackage provides that
index: the vectorized flat R-tree (:mod:`repro.index.flat`), typed
against the :class:`SpatialIndex` protocol of
:mod:`repro.index.backend` and constructed via :func:`build_index`.
Its query surface is the paper's: aggregate k-NN of a group, one
group at a time or a wave at once, and the Theorem-3/6 candidate
scans.  The aggregate (group) nearest-neighbor search of ref. [24]
lives in :mod:`repro.gnn` and runs on the tree's batched kernels.
"""

from repro.index.backend import SpatialIndex, build_index
from repro.index.entries import Entry
from repro.index.flat import FlatRTree

__all__ = [
    "SpatialIndex",
    "build_index",
    "FlatRTree",
    "Entry",
]
