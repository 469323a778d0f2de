"""Result containers, configuration and statistics for safe regions."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.geometry.region import TileRegion
from repro.gnn.aggregate import Aggregate


class Ordering(Enum):
    """Tile browsing order of Section 5.2 / Fig. 8."""

    UNDIRECTED = "undirected"
    DIRECTED = "directed"


class VerifierKind(Enum):
    """Which Tile-Verify implementation Algorithm 2 calls (Section 5.3)."""

    IT = "it"  # individual tile verification (enumerates tile groups)
    GT = "gt"  # group tile verification (Theorem 2 / Algorithm 4)
    EXACT = "exact"  # exact linear-time verification (reference)


@dataclass(slots=True)
class SafeRegionStats:
    """Work counters for one safe-region computation."""

    tile_verifications: int = 0
    point_checks: int = 0
    index_node_accesses: int = 0
    index_queries: int = 0
    tiles_added: int = 0
    tiles_rejected: int = 0
    elapsed_seconds: float = 0.0

    def merge(self, other: "SafeRegionStats") -> None:
        self.tile_verifications += other.tile_verifications
        self.point_checks += other.point_checks
        self.index_node_accesses += other.index_node_accesses
        self.index_queries += other.index_queries
        self.tiles_added += other.tiles_added
        self.tiles_rejected += other.tiles_rejected
        self.elapsed_seconds += other.elapsed_seconds


@dataclass(slots=True)
class CircleResult:
    """Output of Circle-MSR (Algorithm 1)."""

    po: Point
    po_payload: object
    po_dist: float
    second_dist: float
    radius: float
    circles: list[Circle]
    objective: Aggregate
    stats: SafeRegionStats = field(default_factory=SafeRegionStats)


@dataclass(slots=True)
class TileMSRConfig:
    """Parameters of Tile-MSR (Algorithm 3) and its optimizations.

    Defaults follow the paper's experimental configuration (Table 2 and
    Section 7.1): ``alpha=30``, ``split_level=2``; the buffered variants
    use ``buffer_b=100``.
    """

    alpha: int = 30
    split_level: int = 2
    ordering: Ordering = Ordering.UNDIRECTED
    verifier: VerifierKind = VerifierKind.GT
    objective: Aggregate = Aggregate.MAX
    buffer_b: Optional[int] = None  # None = unbuffered (Section 5.3 pruning)
    theta: float = 1.0471975511965976  # 60 degrees; directed-ordering cone
    max_layer: int = 16  # hard stop for the spiral ordering

    def __post_init__(self) -> None:
        if self.alpha < 1:
            raise ValueError("alpha must be >= 1")
        if self.split_level < 0:
            raise ValueError("split_level must be >= 0")
        if self.buffer_b is not None and self.buffer_b < 1:
            raise ValueError("buffer_b must be >= 1 when set")
        if not 0.0 < self.theta <= 3.141592653589793:
            raise ValueError("theta must be in (0, pi]")


@dataclass(slots=True)
class TileMSRResult:
    """Output of Tile-MSR (Algorithm 3)."""

    po: Point
    po_payload: object
    po_dist: float
    radius: float  # the Circle-MSR radius used to seed the tile size
    tile_side: float
    regions: list[TileRegion]
    objective: Aggregate
    stats: SafeRegionStats = field(default_factory=SafeRegionStats)
