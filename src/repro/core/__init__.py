"""The paper's primary contribution: independent safe regions for MPN.

Layout:

* :mod:`repro.core.types` — result containers and statistics.
* :mod:`repro.core.verify` — dominant distances and the conservative
  verification test of Lemma 1.
* :mod:`repro.core.circle_msr` — Circle-MSR (Algorithm 1; Theorems 1/5).
* :mod:`repro.core.tiles` — undirected and directed tile orderings (Fig. 8).
* :mod:`repro.core.gt_verify` — IT-Verify, GT-Verify (Theorem 2) and an
  exact linear-time tile verifier used as reference and fallback.
* :mod:`repro.core.sum_verify` — Sum-GT-Verify (Algorithm 6).
* :mod:`repro.core.divide_verify` — divide-and-conquer tile verification
  (Algorithm 2).
* :mod:`repro.core.pruning` — index pruning of candidates (Theorems 3/6).
* :mod:`repro.core.buffering` — buffering optimization (Section 5.4,
  Theorems 4/7, Algorithm 5).
* :mod:`repro.core.tile_msr` — Tile-MSR (Algorithm 3) for both MPN and
  Sum-MPN objectives.
* :mod:`repro.core.compression` — lossless tile-set compression
  (ICDE'13 ref. [12]) used by the packet-count accounting.
"""

from repro.core.types import (
    CircleResult,
    SafeRegionStats,
    TileMSRConfig,
    TileMSRResult,
    Ordering,
    VerifierKind,
)
from repro.core.verify import (
    dominant_distance,
    dominant_max,
    dominant_min,
    verify_regions,
)
from repro.core.circle_msr import (
    circle_msr,
    maximal_circle_radius,
)
from repro.core.tile_msr import tile_msr
from repro.core.compression import compress_region, decompress_region

__all__ = [
    "CircleResult",
    "SafeRegionStats",
    "TileMSRConfig",
    "TileMSRResult",
    "Ordering",
    "VerifierKind",
    "dominant_distance",
    "dominant_max",
    "dominant_min",
    "verify_regions",
    "circle_msr",
    "maximal_circle_radius",
    "tile_msr",
    "compress_region",
    "decompress_region",
]
