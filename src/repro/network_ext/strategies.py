"""Registry strategies serving road-network sessions.

The serving layer resolves these through the same registry as the
Euclidean methods (``repro.service.strategies`` registers the
``net_circle`` / ``net_tile`` names with deferred factories, so
:mod:`repro.service` stays importable without :mod:`networkx`):

* ``"net_circle"`` — Circle-MSR under network distance: per-user
  network balls of the Theorem-1 radius (the theorem only uses the
  triangle inequality, which shortest-path distance satisfies);
* ``"net_tile"`` — Tile-MSR as recursive partitions of road segments
  (Section 8's sketch), configured through the policy's
  :class:`~repro.network_ext.tile_msr.NetworkTileConfig`.

Both compute against the session space's
:class:`~repro.index.network.NetworkIndex` — the ``tree`` argument of
the strategy protocol, exactly as Euclidean strategies receive the
R-tree — and retrieve their GNNs through its bulk CSR distance
kernel.  ``net_circle`` implements the batched hooks
(:class:`~repro.service.strategies.BatchableSafeRegionStrategy`): a
fleet wave's bucket is one
:func:`~repro.network_ext.circle_msr.network_circle_msr_batch` — one
oracle-row gather and one scoring pass per chunk, the balls cut from
the rows that pass already combined — and a lone session is the
one-group case of the same code.  ``net_tile`` does not: its partition
growth is data-dependent per group, so fleet waves recompute it per
session (the registry contract's graceful fallback), each seed a
one-group call of the same kernel.
"""

from __future__ import annotations

from typing import ClassVar, Optional, Sequence

from repro.network_ext.circle_msr import (
    network_circle_msr,
    network_circle_msr_batch,
)
from repro.network_ext.space import NetworkPosition
from repro.network_ext.tile_msr import NetworkTileConfig, network_tile_msr
from repro.service.strategies import StrategyResult
from repro.simulation.policies import Policy


class NetworkCircleStrategy:
    """``net_circle``: one maximal network ball per user."""

    periodic: ClassVar[bool] = False
    space_kind: ClassVar[str] = "network"

    def __init__(self, policy: Policy):
        self.objective = policy.objective

    def compute(
        self,
        users: Sequence[NetworkPosition],
        tree,
        headings: Optional[Sequence[Optional[float]]] = None,
        thetas: Optional[Sequence[Optional[float]]] = None,
    ) -> StrategyResult:
        return self._wrap(
            network_circle_msr(tree.space, None, users, self.objective, index=tree)
        )

    def batch_key(self) -> Optional[object]:
        return self.objective

    def build_regions_batch(
        self,
        groups: Sequence[Sequence[NetworkPosition]],
        tree,
        headings: Optional[Sequence[Sequence[Optional[float]]]] = None,
        thetas: Optional[Sequence[Sequence[Optional[float]]]] = None,
    ) -> Optional[list[StrategyResult]]:
        """The whole bucket from one batched two-best-GNN scan."""
        results = network_circle_msr_batch(tree.space, groups, self.objective, tree)
        return [self._wrap(result) for result in results]

    @staticmethod
    def _wrap(result) -> StrategyResult:
        return StrategyResult(
            po=result.po,
            regions=list(result.balls),
            region_values=[ball.wire_values() for ball in result.balls],
        )


class NetworkTileStrategy:
    """``net_tile``: recursive road-segment partitions per user."""

    periodic: ClassVar[bool] = False
    space_kind: ClassVar[str] = "network"

    def __init__(self, policy: Policy):
        cfg = policy.tile_config
        self.config = cfg if isinstance(cfg, NetworkTileConfig) else NetworkTileConfig()
        self.objective = policy.objective

    def compute(
        self,
        users: Sequence[NetworkPosition],
        tree,
        headings: Optional[Sequence[Optional[float]]] = None,
        thetas: Optional[Sequence[Optional[float]]] = None,
    ) -> StrategyResult:
        result = network_tile_msr(
            tree.space,
            tree.poi_nodes(),
            users,
            self.config,
            objective=self.objective,
            index=tree,
        )
        return StrategyResult(
            po=result.po,
            regions=list(result.regions),
            region_values=[region.wire_values() for region in result.regions],
            stats=result.stats,
        )
