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
kernels.  Neither implements the batched hooks, so fleet waves fall
back to the scalar path per session (the registry contract's graceful
fallback).
"""

from __future__ import annotations

from typing import ClassVar, Optional, Sequence

from repro.network_ext.circle_msr import network_circle_msr
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
        result = network_circle_msr(
            tree.space, None, users, self.objective, index=tree
        )
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
