"""The suite: every declared workload over several seeds, plus a traced run each.

This is the ten-seed check the benchmark's contract asks for — per end-to-end
metric, the median over the seeds and the spread (distance between the first
and third quartile as a share of the median) — and the file ``--compare``
reads.
"""

from __future__ import annotations

import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import time

from bench import ROOT, run
from bench.procs import Children

SEEDS = {"full": 10, "smoke": 1}


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def fingerprint(seed: int, seeds: int, seconds: float, scale: str) -> dict:
    """What a result must record to be comparable with another."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"

    def version(package: str) -> str:
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "seed": seed,
        "seeds": seeds,
        "run_seconds": seconds,
        "min_passes": run.MIN_PASSES[scale],
        "scale": scale,
        "recorded": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def run_suite(
    declared: dict, seed: int, seconds: float, scale: str, out_dir: str, children: Children
) -> int:
    names = [w["name"] for w in declared["workloads"]]
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    seeds = [seed + i for i in range(SEEDS[scale])]
    runs: dict[str, list[dict]] = {name: [] for name in names}
    traces: dict[str, dict] = {}
    incorrect = 0

    def quiet(line: str) -> None:
        if line.startswith(("pass ", "INCORRECT", "spot-check", "error_rate")):
            print(f"    {line}")

    # Seeds outside, workloads inside: drift of the machine during the suite
    # lands on every workload, not on whichever ran last.
    for s in seeds:
        for name in names:
            print(f"== {name} seed {s}")
            result = run.run(name, s, seconds, False, scale, out_dir, children, log=quiet)
            incorrect += not result["correct"]
            runs[name].append(result)
    for name in names:
        print(f"== {name} seed {seed} traced")
        result = run.run(name, seed, seconds, True, scale, out_dir, children, log=quiet)
        incorrect += not result["correct"]
        traces[name] = result

    summary: dict[str, dict] = {}
    print(f"\n{'workload':<16} {'metric':<26} {'median':>12} {'min':>12} {'max':>12} "
          f"{'unit':<8} {'spread':>7} {'bound':>6}")
    for name in names:
        summary[name] = {}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs[name]]
            unit = runs[name][0]["metrics"][metric]["unit"]
            entry = {
                "unit": unit,
                "values": values,
                "median": statistics.median(values),
                "min": min(values),
                "max": max(values),
                "spread": spread(values),
            }
            summary[name][metric] = entry
            flag = " !" if metric != "setup_s" and entry["spread"] > bound else ""
            print(f"{name:<16} {metric:<26} {entry['median']:>12.5g} {entry['min']:>12.5g} "
                  f"{entry['max']:>12.5g} {unit:<8} {entry['spread']:>7.3f} {bound:>6.2f}{flag}")
    payload = {
        "fingerprint": fingerprint(seed, len(seeds), seconds, scale),
        "bounds": bounds,
        "better": {m["name"]: m["better"] for m in declared["end_to_end"]},
        "end_to_end": summary,
        "per_layer": {
            name: {k: v["value"] for k, v in traces[name]["metrics"].items()}
            for name in names
        },
        "failed": {
            name: sum(r["failed"] for r in runs[name]) + traces[name]["failed"]
            for name in names
        },
        "attempted": {
            name: sum(r["attempted"] for r in runs[name]) + traces[name]["attempted"]
            for name in names
        },
    }
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "results.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
    print(f"\nwrote {path}; {incorrect} incorrect runs")
    return 1 if incorrect else 0
