"""Micro-benchmarks for the substrates: spatial index, GNN, compression.

Not paper figures, but the substrate costs that everything above is
built on; regressions here show up multiplied in every experiment.

The spatial-primitive benchmarks (batched MAX / SUM k-GNN and the
Theorem-3/6 candidate scans — the queries the paper's server sends
its index) run at 50k POIs on the flat R-tree and on an exhaustive NumPy
scan of the same points — every query scores every point in one
vectorized call — and the final test computes the flat-over-scan
speedup ratios from the recorded timings and asserts per-op floors:
the index must keep paying for itself against the simplest correct
answer.
"""

from __future__ import annotations

import os
import random
import time

import numpy as np
import pytest

from repro.core.compression import compress_region, decompress_region
from repro.core.tile_msr import tile_msr
from repro.core.types import TileMSRConfig
from repro.geometry.point import Point
from repro.index.backend import build_index
from repro.workloads.datasets import WORLD
from repro.workloads.poi import build_poi_tree, clustered_pois

IMPLS = ["scan", "flat"]
N_POIS = 50_000

# Flat-over-scan floors at 50k POIs: half the smallest ratio of three
# multi-sample runs on a 2-vCPU x86-64 host (find_gnn_max 191.7x,
# find_gnn_sum 99.0x).
SPEEDUP_FLOORS = {"find_gnn_max": 95.8, "find_gnn_sum": 49.5}

# op -> impl -> (best wall-clock seconds, samples), filled in by the
# parametrized benchmarks below and consumed by the speedup test.
RECORDED: dict[str, dict[str, tuple[float, int]]] = {}


class ExhaustiveScan:
    """The comparator: each query scores all n points in NumPy.

    Answers the same batched calls as the tree (k-GNN / Theorem-3/6
    candidates) with point indices instead of entries.
    """

    def __init__(self, points):
        self.xy = np.asarray([[p.x, p.y] for p in points], dtype=np.float64)

    def __len__(self) -> int:
        return len(self.xy)

    def _dists(self, users) -> np.ndarray:
        """Point-to-user distances, shape ``(n, m)``."""
        u = np.asarray([[p.x, p.y] for p in users], dtype=np.float64)
        return np.hypot(
            self.xy[:, 0, None] - u[None, :, 0], self.xy[:, 1, None] - u[None, :, 1]
        )

    @staticmethod
    def _best(scores: np.ndarray, k: int) -> list[int]:
        top = np.argpartition(scores, k)[:k]
        return top[np.argsort(scores[top])].tolist()

    def gnn_many(self, groups, k, agg):
        reduce = np.max if agg == "max" else np.sum
        return [self._best(reduce(self._dists(g), axis=1), k) for g in groups]

    def intersect_balls(self, centers, radii):
        inside = self._dists(centers) <= np.asarray(radii)[None, :]
        return np.flatnonzero(inside.all(axis=1)).tolist()

    def within_dist_sum(self, centers, threshold):
        return np.flatnonzero(self._dists(centers).sum(axis=1) <= threshold).tolist()


def _build(impl: str, points):
    return ExhaustiveScan(points) if impl == "scan" else build_index(points)


def _record(benchmark, op: str, impl: str, fn):
    """Run ``fn`` under pytest-benchmark while keeping our own best time.

    The self-measured minimum keeps the speedup computation independent
    of the benchmark plugin's stats API (and of --benchmark-disable).
    """
    times: list[float] = []

    def wrapper():
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
        return out

    result = benchmark(wrapper)
    RECORDED.setdefault(op, {})[impl] = (min(times), len(times))
    other = RECORDED[op].get("scan")
    if impl == "flat" and other:
        benchmark.extra_info["speedup_vs_scan"] = other[0] / min(times)
    return result


@pytest.fixture(scope="module")
def big_points():
    return clustered_pois(N_POIS, WORLD, seed=31)


@pytest.fixture(scope="module")
def trees(big_points):
    return {impl: _build(impl, big_points) for impl in IMPLS}


@pytest.fixture(scope="module")
def groups():
    """Walking-distance user groups, like the paper's MPN groups."""
    rng = random.Random(2)
    out = []
    for _ in range(100):
        cx, cy = WORLD.sample(rng)
        out.append(
            [
                Point(cx + rng.uniform(-1000.0, 1000.0), cy + rng.uniform(-1000.0, 1000.0))
                for _ in range(4)
            ]
        )
    return out


@pytest.mark.parametrize("impl", IMPLS)
def test_bulk_load_50k(benchmark, big_points, impl):
    tree = _record(benchmark, "bulk_load", impl, lambda: _build(impl, big_points))
    assert len(tree) == len(big_points)


@pytest.mark.parametrize("impl", IMPLS)
def test_max_gnn_50k(benchmark, trees, groups, impl):
    tree = trees[impl]
    result = _record(
        benchmark, "find_gnn_max", impl, lambda: tree.gnn_many(groups, 2, "max")
    )
    assert all(len(r) == 2 for r in result)


@pytest.mark.parametrize("impl", IMPLS)
def test_sum_gnn_50k(benchmark, trees, groups, impl):
    tree = trees[impl]
    result = _record(
        benchmark, "find_gnn_sum", impl, lambda: tree.gnn_many(groups, 2, "sum")
    )
    assert all(len(r) == 2 for r in result)


@pytest.fixture(scope="module")
def pruning_scenarios(trees, groups):
    """Theorem-3/6 bounds built the way tile_msr builds them: the
    current best aggregate distance plus a safe-region slack."""
    tree = trees["flat"]
    balls, sums = [], []
    for g in groups[:20]:
        top = tree.gnn(g, 1, "max")[0][0]
        balls.append((g, [top + 500.0] * len(g)))
        total = tree.gnn(g, 1, "sum")[0][0]
        sums.append((g, total + 2.0 * 500.0 * len(g)))
    return balls, sums


@pytest.mark.parametrize("impl", IMPLS)
def test_pruning_50k(benchmark, trees, pruning_scenarios, impl):
    """Theorem-3/6 candidate scans: intersect_balls + within_dist_sum."""
    tree = trees[impl]
    balls, sums = pruning_scenarios

    def prune():
        out = 0
        for centers, radii in balls:
            out += len(tree.intersect_balls(centers, radii))
        for centers, threshold in sums:
            out += len(tree.within_dist_sum(centers, threshold))
        return out

    result = _record(benchmark, "pruning", impl, prune)
    assert result > 0


def test_incremental_insert_5k(benchmark, big_points):
    """Per-item insert path: 5k single inserts through the delta layer."""
    subset = big_points[:5000]

    def build():
        tree = build_index([], max_entries=16)
        for i, p in enumerate(subset):
            tree.insert(p, i)
        return tree

    tree = benchmark.pedantic(build, rounds=1, iterations=1)
    assert len(tree) == len(subset)
    tree.validate()


def test_speedup_over_scan():
    """The index's headline numbers, computed from the runs above."""
    missing = [
        op for op in SPEEDUP_FLOORS if not set(IMPLS) <= set(RECORDED.get(op, {}))
    ]
    if missing:
        pytest.skip(f"benchmarks did not run for both the tree and the scan: {missing}")
    ratios = {
        op: rec["scan"][0] / rec["flat"][0]
        for op, rec in RECORDED.items()
        if set(IMPLS) <= set(rec)
    }
    print("\nflat-over-scan speedup at 50k POIs:")
    for op, ratio in sorted(ratios.items()):
        print(f"  {op:14s} {ratio:7.2f}x")
    samples = min(min(s for _, s in rec.values()) for rec in RECORDED.values())
    if samples < 3:
        pytest.skip("single-shot run (--benchmark-disable): ratios too noisy")
    if os.environ.get("CI"):
        pytest.skip("shared CI runner: ratios reported above, not gated")
    for op, floor in SPEEDUP_FLOORS.items():
        assert ratios[op] >= floor, f"{op} speedup {ratios[op]:.2f}x < {floor:g}x"


def test_compression_roundtrip(benchmark):
    rng = random.Random(4)
    pois = clustered_pois(1000, WORLD, seed=5)
    tree = build_poi_tree(pois)
    users = [WORLD.sample(rng) for _ in range(3)]
    regions = tile_msr(users, tree, TileMSRConfig(alpha=20, split_level=2)).regions

    def roundtrip():
        out = []
        for region in regions:
            compressed = compress_region(region)
            out.append((compressed.value_count, len(decompress_region(compressed))))
        return out

    result = benchmark(roundtrip)
    naive = [3 * len(r) for r in regions]
    measured = [v for v, _ in result]
    print(f"\ncompressed values {measured} vs naive {naive}")
    for (values, count), region in zip(result, regions):
        assert count == len(region)
