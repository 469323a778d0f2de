"""The safe-region strategy registry.

A *strategy* is the server-side computation behind one safe-region
method: given the group's current locations (and optionally predicted
headings) it produces the optimal meeting point, one region per user
and the wire size of each region.  The built-in strategies wrap the
paper's algorithms:

* ``"circle"`` — Circle-MSR (Algorithm 1, Section 4);
* ``"tile"`` — Tile-MSR (Algorithm 3, Section 5), configured through
  the policy's :class:`~repro.core.types.TileMSRConfig`;
* ``"periodic"`` — the strawman baseline; it computes the exact group
  nearest neighbor and returns no regions (clients re-report every
  timestamp, so there is nothing to cache).

The road-network methods of :mod:`repro.network_ext` are registered
here too, as ``"net_circle"`` / ``"net_tile"`` — through deferred
factories, so this module never imports :mod:`networkx` unless a
network policy is actually served.  A strategy may declare the space
kind it computes in via an optional ``space_kind`` class attribute
(``"euclidean"`` / ``"network"``); the session facade refuses to pair
it with a session space of a different kind.  Further methods plug in
via :func:`register_strategy` without touching the server or the
engine: a :class:`~repro.simulation.policies.Policy` whose
``strategy_name`` matches a registered factory is served end-to-end.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Optional, Protocol, Sequence, runtime_checkable

from repro.core.circle_msr import circle_msr, circle_msr_batch
from repro.core.compression import compress_region
from repro.core.tile_msr import tile_msr
from repro.core.types import SafeRegionStats, TileMSRConfig
from repro.geometry.point import Point
from repro.geometry.region import Region
from repro.gnn.aggregate import find_gnn
from repro.index.backend import SpatialIndex
from repro.service.errors import UnknownStrategyError
from repro.simulation.messages import CIRCLE_VALUES
from repro.simulation.policies import Policy


@dataclass(slots=True)
class StrategyResult:
    """What one safe-region computation hands back to the service."""

    po: Point
    regions: list[Region]
    region_values: list[int]  # wire size per region, in doubles
    stats: SafeRegionStats = field(default_factory=SafeRegionStats)


@runtime_checkable
class SafeRegionStrategy(Protocol):
    """One safe-region method, resolved from the registry by name.

    ``periodic`` marks strategies with no safe regions: the session
    facade rejects them (every client must re-report every timestamp,
    so the event protocol does not apply) and the engine drives them
    through its periodic loop instead.

    Strategies may additionally opt into the batched fleet path by
    implementing the two optional hooks of
    :class:`BatchableSafeRegionStrategy`; the service falls back to
    per-session :meth:`compute` calls for strategies that don't.
    """

    periodic: bool

    def compute(
        self,
        users: Sequence[Point],
        tree: SpatialIndex,
        headings: Optional[Sequence[Optional[float]]] = None,
        thetas: Optional[Sequence[Optional[float]]] = None,
    ) -> StrategyResult: ...


@runtime_checkable
class BatchableSafeRegionStrategy(SafeRegionStrategy, Protocol):
    """The optional vectorized extension of :class:`SafeRegionStrategy`.

    The service's batched fleet path (``MPNService.report_many`` /
    ``recompute_many``) groups sessions whose strategies share a
    ``batch_key()`` (and a group size) and recomputes each bucket with
    ONE :meth:`build_regions_batch` call, letting the strategy dispatch
    the expensive index work through the batched kernels of
    :mod:`repro.index.kernels` instead of per-session scalar queries.

    The contract a batch implementation must honor:

    * **Answer-preserving.**  ``build_regions_batch(groups, ...)`` must
      return exactly ``[self.compute(g, ...) for g in groups]`` — same
      meeting points, same regions, same region wire sizes and the same
      integer work counters in ``stats``.  The built-ins meet it
      exactly, ties included: both flat-index k-GNN paths put the lower
      POI id first among equally-optimal meeting points.  A custom
      strategy may diverge only between equally-optimal meeting points.
      The equivalence suite (``tests/test_service_batch_equivalence.py``)
      enforces this for the built-ins.
    * **batch_key.**  Two strategy instances whose ``batch_key()``
      tokens are equal (and truthy under hashing) must be
      interchangeable for ``build_regions_batch``; the token must cover
      every piece of configuration that affects the computation.
      Returning ``None`` opts the instance out of batching.
    * **Graceful decline.**  ``build_regions_batch`` may return ``None``
      to decline a batch (e.g. an unsupported shape); the service then
      recomputes those sessions through the scalar path.
    """

    def batch_key(self) -> Optional[object]: ...

    def build_regions_batch(
        self,
        groups: Sequence[Sequence[Point]],
        tree: SpatialIndex,
        headings: Optional[Sequence[Sequence[Optional[float]]]] = None,
        thetas: Optional[Sequence[Sequence[Optional[float]]]] = None,
    ) -> Optional[list[StrategyResult]]: ...


StrategyFactory = Callable[[Policy], SafeRegionStrategy]

_REGISTRY: dict[str, StrategyFactory] = {}


def register_strategy(
    name: str, factory: StrategyFactory, *, replace: bool = False
) -> None:
    """Register ``factory`` under ``name`` (``Policy.strategy_name``).

    ``factory`` receives the resolving policy and returns a strategy
    instance configured for it; the service resolves once per session,
    at registration.
    """
    if not replace and name in _REGISTRY:
        raise ValueError(f"strategy {name!r} already registered")
    _REGISTRY[name] = factory


def unregister_strategy(name: str) -> None:
    _REGISTRY.pop(name, None)


def available_strategies() -> list[str]:
    return sorted(_REGISTRY)


def get_strategy(policy: Policy) -> SafeRegionStrategy:
    """Resolve the policy's strategy from the registry."""
    name = policy.strategy_name
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise UnknownStrategyError(name, tuple(available_strategies())) from None
    return factory(policy)


# ----------------------------------------------------------------------
# Built-in strategies
# ----------------------------------------------------------------------


class CircleMSRStrategy:
    """Circle-MSR: one maximal circle per user (Section 4)."""

    periodic: ClassVar[bool] = False
    space_kind: ClassVar[str] = "euclidean"

    def __init__(self, policy: Policy):
        self.objective = policy.objective

    def compute(
        self,
        users: Sequence[Point],
        tree: SpatialIndex,
        headings: Optional[Sequence[Optional[float]]] = None,
        thetas: Optional[Sequence[Optional[float]]] = None,
    ) -> StrategyResult:
        return self._wrap(circle_msr(users, tree, self.objective), len(users))

    def batch_key(self) -> Optional[object]:
        return self.objective

    def build_regions_batch(
        self,
        groups: Sequence[Sequence[Point]],
        tree: SpatialIndex,
        headings: Optional[Sequence[Sequence[Optional[float]]]] = None,
        thetas: Optional[Sequence[Sequence[Optional[float]]]] = None,
    ) -> Optional[list[StrategyResult]]:
        """All groups' circles from one batched two-best-GNN dispatch."""
        results = circle_msr_batch(groups, tree, self.objective)
        return [
            self._wrap(result, len(users))
            for users, result in zip(groups, results)
        ]

    @staticmethod
    def _wrap(result, n_users: int) -> StrategyResult:
        return StrategyResult(
            po=result.po,
            regions=list(result.circles),
            region_values=[CIRCLE_VALUES] * n_users,
            stats=result.stats,
        )


class TileMSRStrategy:
    """Tile-MSR: compressed tile regions (Section 5)."""

    periodic: ClassVar[bool] = False
    space_kind: ClassVar[str] = "euclidean"

    def __init__(self, policy: Policy):
        self.config = policy.tile_config or TileMSRConfig(objective=policy.objective)

    def compute(
        self,
        users: Sequence[Point],
        tree: SpatialIndex,
        headings: Optional[Sequence[Optional[float]]] = None,
        thetas: Optional[Sequence[Optional[float]]] = None,
    ) -> StrategyResult:
        return self._wrap(tile_msr(users, tree, self.config, headings, thetas))

    def batch_key(self) -> Optional[object]:
        # Derived from the dataclass fields so a future config knob
        # cannot silently merge differently-configured sessions.
        return dataclasses.astuple(self.config)

    def build_regions_batch(
        self,
        groups: Sequence[Sequence[Point]],
        tree: SpatialIndex,
        headings: Optional[Sequence[Sequence[Optional[float]]]] = None,
        thetas: Optional[Sequence[Sequence[Optional[float]]]] = None,
    ) -> Optional[list[StrategyResult]]:
        """Batch the Circle-MSR seeds; grow each group's tiles as usual.

        The seed (lines 1-2 of Algorithm 3) is the part every group
        shares in shape — one two-best-GNN per group — so it dispatches
        through :func:`~repro.core.circle_msr.circle_msr_batch` in one
        NumPy pass.  The tile growth that follows is data-dependent per
        group and stays scalar, charging the exact same work counters
        as the per-session path.
        """
        seeds = circle_msr_batch(groups, tree, self.config.objective)
        out = []
        for i, (users, seed) in enumerate(zip(groups, seeds)):
            result = tile_msr(
                users,
                tree,
                self.config,
                headings[i] if headings is not None else None,
                thetas[i] if thetas is not None else None,
                seed=seed,
            )
            out.append(self._wrap(result))
        return out

    @staticmethod
    def _wrap(result) -> StrategyResult:
        return StrategyResult(
            po=result.po,
            regions=list(result.regions),
            region_values=[compress_region(r).value_count for r in result.regions],
            stats=result.stats,
        )


class PeriodicStrategy:
    """The strawman: exact GNN every timestamp, no safe regions."""

    periodic: ClassVar[bool] = True
    space_kind: ClassVar[str] = "euclidean"

    def __init__(self, policy: Policy):
        self.objective = policy.objective

    def compute(
        self,
        users: Sequence[Point],
        tree: SpatialIndex,
        headings: Optional[Sequence[Optional[float]]] = None,
        thetas: Optional[Sequence[Optional[float]]] = None,
    ) -> StrategyResult:
        best = find_gnn(tree, users, 1, self.objective)
        po = best[0][1].point
        # The reply carries only the meeting point; there is no region
        # to cache, so every user pays POINT_VALUES per timestamp.
        return StrategyResult(po=po, regions=[], region_values=[])


def _network_strategy_factory(class_name: str) -> StrategyFactory:
    """Deferred factory for the road-network strategies.

    They live in :mod:`repro.network_ext.strategies` (which needs
    :mod:`networkx`), so the import is delayed until a ``net_*`` policy
    is actually resolved — this module stays importable without the
    network stack installed.

    Both strategies read every distance through their space's shared
    :class:`repro.index.oracle.DistanceOracle`: GNN candidates are
    ALT-landmark-pruned and ``net_circle`` balls build from
    bounded-radius Dijkstra when the oracle is engaged (city-scale
    graphs; see ``OracleConfig``), with answers bit-identical to the
    full-row path either way.
    """

    def factory(policy: Policy) -> SafeRegionStrategy:
        from repro.network_ext import strategies as network_strategies

        return getattr(network_strategies, class_name)(policy)

    return factory


register_strategy("circle", CircleMSRStrategy)
register_strategy("tile", TileMSRStrategy)
register_strategy("periodic", PeriodicStrategy)
register_strategy("net_circle", _network_strategy_factory("NetworkCircleStrategy"))
register_strategy("net_tile", _network_strategy_factory("NetworkTileStrategy"))
