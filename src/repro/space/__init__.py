"""Metric spaces: one serving stack, many worlds.

:class:`Space` (``base``) is the contract; :class:`EuclideanSpace`
(``euclidean``) wraps a spatial-index tree and is what bare trees are
coerced into; :class:`repro.space.network.NetworkPOISpace` serves road
networks (imported lazily by callers — it pulls in :mod:`networkx`
through :mod:`repro.network_ext`, which this package's own import must
not require).
"""

from repro.space.base import Space
from repro.space.euclidean import EuclideanSpace


def as_space(tree_or_space: object) -> Space:
    """Coerce a bare spatial index into a Space (identity on spaces)."""
    if isinstance(tree_or_space, Space):
        return tree_or_space
    return EuclideanSpace(tree_or_space)


def replicate_space(space: Space) -> Space:
    """An independent copy of ``space`` holding the same POI set.

    The cluster front door (:class:`repro.cluster.MPNCluster`) takes
    one defensive copy of a caller-owned space before every shard
    serves it, so churn routed around the front door can never corrupt
    the serving state.  Spaces opt in by
    implementing ``replicate()`` (:class:`EuclideanSpace` rebuilds its
    index from the live entries;
    :class:`repro.space.network.NetworkPOISpace` re-buckets its POIs
    over the shared immutable road graph).
    """
    replicate = getattr(space, "replicate", None)
    if replicate is None:
        raise TypeError(
            f"space {type(space).__name__} does not support replication; "
            "construct the cluster with a space_factory instead"
        )
    return replicate()


__all__ = [
    "Space",
    "EuclideanSpace",
    "as_space",
    "replicate_space",
]
