#!/usr/bin/env python
"""Record the gated benchmark suites into ``BENCH_*.json`` files.

Two suites:

* ``--suite churn`` (default) — runs ``benchmarks/test_micro_churn.py``
  in full (multi-sample) mode and appends one perf-trajectory entry to
  ``BENCH_churn.json``, including the >= 3x Euclidean churn gate.
* ``--suite wire`` — runs ``benchmarks/test_micro_wire.py`` (the TCP
  serving stack: sequential round-trip latency plus >= 8 concurrent
  pipelining clients with the backpressure brake engaged, and a
  ``ProcessCluster(2)`` wave gated at one served request per worker)
  and appends p50/p99 latency and throughput to ``BENCH_wire.json``.
* ``--suite elastic`` — runs ``benchmarks/test_micro_elastic.py``
  (live reshard: migration latency, remap fraction, per-session wire
  handoff latency, with the minimal-remap gates armed) and appends the
  numbers to ``BENCH_elastic.json``.
* ``--suite citynet`` — runs ``benchmarks/test_micro_citynet.py`` (the
  distance oracle at 100k+-edge city scale: ALT-pruned GNN >= 3x over
  exact full rows under the same row-cache byte budget, the
  always-armed cache byte ceiling, and a small-radius network ball
  >= 20x over the whole-graph coverage loop) and appends the numbers
  to ``BENCH_citynet.json``.
* ``--suite fleet`` — runs ``benchmarks/test_micro_fleet.py`` with the
  ``metro_fleet`` preset (100,800 declared sessions streamed lazily
  through spawned worker processes, seeded replay spot-check on) and
  appends per-tick p50/p99 dispatch latency, notification
  distributions, and throughput to ``BENCH_fleet.json``.

Each file is a JSON list, newest entry last, so the trajectory can be
tracked commit over commit.

Usage (from the repo root)::

    PYTHONPATH=src python benchmarks/record_bench.py \
        [--suite churn|wire|elastic|citynet|fleet]

A run aborts — and records nothing — if any benchmark test fails,
including the suites' structural gates (churn speedup, backpressure
engagement).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
GATE_MIN_SPEEDUP = 3.0
BALL_GATE_MIN_SPEEDUP = 20.0


class _Collector:
    """Grabs a benchmark module's RECORDED dict after the run."""

    def __init__(self, module_name: str, scale_names: tuple[str, ...]) -> None:
        self.module_name = module_name
        self.scale_names = scale_names
        self.recorded: dict = {}
        self.scale: dict = {}

    def pytest_sessionfinish(self, session, exitstatus) -> None:
        module = sys.modules.get(self.module_name)
        if module is None:
            return
        self.recorded = module.RECORDED
        self.scale = {
            name.lower(): getattr(module, name) for name in self.scale_names
        }


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
        )
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _append(out_file: Path, entry: dict) -> None:
    history = []
    if out_file.exists():
        history = json.loads(out_file.read_text())
    history.append(entry)
    out_file.write_text(json.dumps(history, indent=2) + "\n")
    print(f"recorded entry {len(history)} -> {out_file}")


def _run(collector: _Collector, bench_file: Path) -> int:
    return int(pytest.main(["-q", str(bench_file)], plugins=[collector]))


def record_churn() -> int:
    collector = _Collector(
        "test_micro_churn",
        ("N_POIS", "N_BATCHES", "BATCH", "NET_GRID", "NET_POIS"),
    )
    code = _run(collector, BENCH_DIR / "test_micro_churn.py")
    if code != 0:
        print("benchmark run failed; nothing recorded", file=sys.stderr)
        return code
    recorded = collector.recorded
    if not {"churn_euclidean", "churn_network"} <= set(recorded):
        print("benchmark timings missing; nothing recorded", file=sys.stderr)
        return 1

    results = {}
    for op in ("churn_euclidean", "churn_network"):
        delta_s, samples = recorded[op]["delta"]
        rebuild_s, _ = recorded[op]["rebuild"]
        results[op] = {
            "delta_seconds": delta_s,
            "rebuild_seconds": rebuild_s,
            "speedup": rebuild_s / delta_s,
            "samples": samples,
        }
    cluster = recorded.get("cluster_churn", {}).get("epoch_over_rebuilds")
    if cluster:
        ratio, samples = cluster
        results["cluster_churn"] = {
            "epoch_over_rebuilds": ratio,
            "speedup": 1.0 / ratio,
            "samples": samples,
        }

    entry = {
        "recorded_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "commit": _git_commit(),
        "scale": collector.scale,
        "results": results,
        "gate": {
            "churn_euclidean_min_speedup": GATE_MIN_SPEEDUP,
            "passed": results["churn_euclidean"]["speedup"] >= GATE_MIN_SPEEDUP,
        },
    }
    _append(REPO_ROOT / "BENCH_churn.json", entry)
    for op, row in results.items():
        print(f"  {op:<18} {row['speedup']:7.2f}x")
    return 0


def record_wire() -> int:
    collector = _Collector(
        "test_micro_wire",
        (
            "N_POIS", "N_CLIENTS", "REQUESTS_PER_CLIENT", "MAX_INFLIGHT",
            "WAVE_SESSIONS", "WAVES",
        ),
    )
    code = _run(collector, BENCH_DIR / "test_micro_wire.py")
    if code != 0:
        print("benchmark run failed; nothing recorded", file=sys.stderr)
        return code
    recorded = collector.recorded
    if not {"wire_sequential", "wire_concurrent", "cluster_wave"} <= set(recorded):
        print("benchmark timings missing; nothing recorded", file=sys.stderr)
        return 1

    concurrent = recorded["wire_concurrent"]
    wave = recorded["cluster_wave"]
    entry = {
        "recorded_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "commit": _git_commit(),
        "scale": collector.scale,
        "results": {
            "wire_sequential": dict(recorded["wire_sequential"]),
            "wire_concurrent": dict(concurrent),
            "cluster_wave": dict(wave),
        },
        "gate": {
            "backpressure_engaged": concurrent["backpressure_waits"] > 0,
            "min_concurrent_clients": collector.scale["n_clients"],
            "wave_requests_per_worker": wave["requests_per_worker"],
            "wave_control_ops": wave["control_ops"],
        },
    }
    _append(REPO_ROOT / "BENCH_wire.json", entry)
    print(
        f"  sequential  p50 {recorded['wire_sequential']['p50_ms']:.3f} ms  "
        f"p99 {recorded['wire_sequential']['p99_ms']:.3f} ms"
    )
    print(
        f"  concurrent  {concurrent['throughput_rps']:.0f} req/s  "
        f"p50 {concurrent['p50_ms']:.3f} ms  p99 {concurrent['p99_ms']:.3f} ms  "
        f"({concurrent['backpressure_waits']} backpressure waits)"
    )
    print(
        f"  cluster wave  p50 {wave['p50_ms']:.3f} ms scattered vs "
        f"{wave['one_worker_after_another_p50_ms']:.3f} ms one worker after "
        f"another ({wave['speedup']:.2f}x)"
    )
    return 0


def record_elastic() -> int:
    collector = _Collector(
        "test_micro_elastic",
        ("N_POIS", "N_SHARDS", "N_SESSIONS", "WIRE_SESSIONS"),
    )
    code = _run(collector, BENCH_DIR / "test_micro_elastic.py")
    if code != 0:
        print("benchmark run failed; nothing recorded", file=sys.stderr)
        return code
    recorded = collector.recorded
    if not {"elastic_migration", "elastic_wire_handoff"} <= set(recorded):
        print("benchmark timings missing; nothing recorded", file=sys.stderr)
        return 1

    migration = recorded["elastic_migration"]
    handoff = recorded["elastic_wire_handoff"]
    entry = {
        "recorded_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "commit": _git_commit(),
        "scale": collector.scale,
        "results": {
            "elastic_migration": dict(migration),
            "elastic_wire_handoff": dict(handoff),
        },
        "gate": {
            "minimal_remap": True,  # armed inside the benchmark itself
            "remap_fraction": migration["remap_fraction"],
            "max_remap_fraction": 2.5 / (collector.scale["n_shards"] + 1),
        },
    }
    _append(REPO_ROOT / "BENCH_elastic.json", entry)
    print(
        f"  migration   {migration['moved_sessions']} sessions in "
        f"{migration['grow_seconds'] * 1000.0:.1f} ms "
        f"({migration['grow_per_session_ms']:.2f} ms/session, "
        f"remap fraction {migration['remap_fraction']:.3f})"
    )
    print(
        f"  handoff     p50 {handoff['p50_ms']:.3f} ms  "
        f"p99 {handoff['p99_ms']:.3f} ms per session over TCP"
    )
    return 0


def record_citynet() -> int:
    collector = _Collector(
        "test_micro_citynet",
        ("GRID", "N_POIS", "GROUP_SIZE", "N_GROUPS", "CACHE_ROWS", "LANDMARKS"),
    )
    code = _run(collector, BENCH_DIR / "test_micro_citynet.py")
    if code != 0:
        print("benchmark run failed; nothing recorded", file=sys.stderr)
        return code
    recorded = collector.recorded
    gnn = recorded.get("gnn_2best", {})
    if not {"exact-rows", "alt-pruned"} <= set(gnn):
        print("benchmark timings missing; nothing recorded", file=sys.stderr)
        return 1

    exact_s, exact_samples = gnn["exact-rows"]
    alt_s, alt_samples = gnn["alt-pruned"]
    speedup = exact_s / alt_s
    cache = recorded.get("cache", {})
    stats = recorded.get("alt_stats", {})
    ball = recorded.get("ball_coverage", {})
    entry = {
        "recorded_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "commit": _git_commit(),
        "scale": collector.scale,
        "results": {
            "gnn_exact_seconds": exact_s,
            "gnn_alt_seconds": alt_s,
            "speedup": speedup,
            "samples": min(exact_samples, alt_samples),
            "alt_prune_rate": stats.get("alt_prune_rate"),
            "landmark_bytes": stats.get("landmark_bytes"),
            "cache": cache,
            "ball_coverage": ball,
        },
        "gate": {
            "alt_min_speedup": GATE_MIN_SPEEDUP,
            "passed": speedup >= GATE_MIN_SPEEDUP,
            "ball_min_speedup": BALL_GATE_MIN_SPEEDUP,
            "ball_passed": bool(ball)
            and ball["speedup"] >= BALL_GATE_MIN_SPEEDUP,
            "byte_ceiling_held": bool(cache)
            and cache["resident_bytes"] <= cache["budget_bytes"],
        },
    }
    _append(REPO_ROOT / "BENCH_citynet.json", entry)
    print(
        f"  gnn_2best   {speedup:7.2f}x (exact {exact_s * 1000.0:.1f} ms, "
        f"alt {alt_s * 1000.0:.1f} ms, prune rate "
        f"{stats.get('alt_prune_rate', float('nan')):.3f})"
    )
    if ball:
        print(
            f"  ball        {ball['speedup']:7.1f}x (whole graph "
            f"{ball['whole_graph_seconds'] * 1000.0:.1f} ms, ball "
            f"{ball['ball_seconds'] * 1000.0:.3f} ms, "
            f"{ball['covered_edges']} of {ball['graph_edges']} edges)"
        )
    if cache:
        print(
            f"  row cache   {cache['resident_bytes']} / "
            f"{cache['budget_bytes']} bytes resident, "
            f"{cache['evictions']} evictions"
        )
    return 0


def record_fleet() -> int:
    import os

    os.environ.setdefault("FLEET_PRESET", "metro_fleet")
    preset = os.environ["FLEET_PRESET"]
    collector = _Collector(
        "test_micro_fleet",
        ("FLEET_PRESET", "FLEET_SHARDS", "TOTAL_SESSIONS", "TICKS"),
    )
    code = _run(collector, BENCH_DIR / "test_micro_fleet.py")
    if code != 0:
        print("benchmark run failed; nothing recorded", file=sys.stderr)
        return code
    row = collector.recorded.get(preset)
    if not row:
        print("benchmark timings missing; nothing recorded", file=sys.stderr)
        return 1

    min_sessions = 100_000 if preset == "metro_fleet" else 1
    entry = {
        "recorded_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "commit": _git_commit(),
        "scale": collector.scale,
        "results": dict(row),
        "gate": {
            "min_total_sessions": min_sessions,
            "passed": row["total_opened"] >= min_sessions,
            "spot_check_clean": row["spot_check"]["clean"],
            "streamed_lazily": row["peak_live"] < 0.6 * row["total_opened"],
        },
    }
    _append(REPO_ROOT / "BENCH_fleet.json", entry)
    print(
        f"  fleet       {row['total_opened']} sessions / {row['ticks']} ticks "
        f"(peak live {row['peak_live']}) in {row['elapsed_seconds']:.1f}s "
        f"({row['sessions_per_second']:.0f} sessions/s)"
    )
    print(
        f"  dispatch    p50 {row['p50_ms']:.3f} ms  p99 {row['p99_ms']:.3f} ms "
        f"over {row['dispatch_calls']} calls"
    )
    print(
        f"  exactness   {row['spot_check']['sampled_sessions']} sessions "
        f"replayed, clean={row['spot_check']['clean']}"
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--suite",
        choices=("churn", "wire", "elastic", "citynet", "fleet"),
        default="churn",
        help="which benchmark suite to run and record",
    )
    args = parser.parse_args(argv)
    if args.suite == "churn":
        return record_churn()
    if args.suite == "wire":
        return record_wire()
    if args.suite == "elastic":
        return record_elastic()
    if args.suite == "citynet":
        return record_citynet()
    return record_fleet()


if __name__ == "__main__":
    raise SystemExit(main())
