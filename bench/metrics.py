"""From passes to the named metrics ``BENCHMARK.json`` declares.

A run replays one seeded stream several times.  The stream is deterministic,
so the k-th open (wave, churn batch, close, tick) of every pass is the same
operation, and its cost is estimated as the **minimum over the passes**: the
machine's noise only ever adds time (see ``bench/README.md``, "Noise"), and
costs the program pays every time — a collection, a repack — are in every
pass and survive the minimum.  Metrics are then medians, percentiles and sums
over those per-operation costs.
"""

from __future__ import annotations

import statistics

from bench.trace import STEMS

#: name -> unit, in ``BENCHMARK.json`` order.
END_TO_END = {
    "setup_s": "s",
    "fleet_rate": "1/s",
    "report_us_per_event": "us",
    "open_p50_ms": "ms",
    "tick_p90_ms": "ms",
    "churn_ms_per_batch": "ms",
    "peak_rss_mb": "MiB",
    "packets_per_session_tick": "packets",
}

SINGLES = {
    "core.gt_verify.calls": "count",
    "cluster.hashring.lookups": "count",
    "scenarios.runner.escape_ratio": "ratio",
    "service.batch_size_mean": "count",
    "service.renotify_ratio": "ratio",
    "index.flat.node_accesses": "count",
    "index.flat.delta_debt_max": "count",
    "index.oracle.row_hit_ratio": "ratio",
    "index.oracle.resident_mb": "MiB",
    "cluster.shard_skew": "ratio",
    "transport.roundtrips": "count",
    "transport.bytes_sent": "bytes",
    "transport.bytes_received": "bytes",
    "transport.backpressure_waits": "count",
    "transport.overhead_s": "s",
    "backend.open_session.p99_ms": "ms",
    "backend.report_many.p99_ms": "ms",
    "backend.update_pois.max_ms": "ms",
    "trace.overhead_ratio": "ratio",
    "trace.coverage": "ratio",
    "trace.machine_slowdown": "ratio",
    "trace.unresolved_targets": "count",
}


def per_layer_units() -> dict[str, str]:
    """name -> unit for every per-layer metric, in ``BENCHMARK.json`` order."""
    out: dict[str, str] = {}
    for stem in STEMS:
        out[f"{stem}.calls"] = "count"
        out[f"{stem}.total_s"] = "s"
        out[f"{stem}.self_s"] = "s"
    out.update(SINGLES)
    return out


TIMED_SERIES = ("tick_s", "compile_s", "open_s", "report_s", "churn_s", "close_s")


def best_of(passes: list[dict]) -> dict[str, list[float]]:
    """Per-operation minimum over the passes, for every timed series."""
    return {
        key: [min(costs) for costs in zip(*(p[key] for p in passes))]
        for key in TIMED_SERIES
    }


def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (inclusive method); 0.0 for an empty sample."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(passes: list[dict]) -> tuple[dict[str, float], dict[str, int]]:
    """``(metric values, sample counts)`` from a run's untraced passes."""
    best = best_of(passes)
    first = passes[0]
    events = sum(first["report_events"])
    packets = first["counts"]["packets_up"] + first["counts"]["packets_down"]
    churn = best["churn_s"]
    values = {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "fleet_rate": first["session_ticks"] / sum(best["tick_s"]),
        "report_us_per_event": sum(best["report_s"]) / max(1, events) * 1e6,
        "open_p50_ms": percentile(best["open_s"], 50) * 1e3,
        "tick_p90_ms": percentile(best["tick_s"], 90) * 1e3,
        "churn_ms_per_batch": statistics.fmean(churn) * 1e3 if churn else 0.0,
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
        "packets_per_session_tick": packets / first["session_ticks"],
    }
    samples = {
        "setup_s": len(passes),
        "fleet_rate": len(best["tick_s"]),
        "report_us_per_event": events,
        "open_p50_ms": len(best["open_s"]),
        "tick_p90_ms": len(best["tick_s"]),
        "churn_ms_per_batch": len(churn),
        "peak_rss_mb": len(passes),
        "packets_per_session_tick": first["session_ticks"],
    }
    return values, samples


def per_layer(traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    """Every per-layer metric from a traced run's passes.

    The budget is read off one pass — the traced pass with the shortest tick
    loop, i.e. the one the machine slowed least — so that its self times add
    up to that pass's loop; span times are wall clock, and
    ``trace.machine_slowdown`` says how far from nominal speed that pass ran.
    Counts repeat in every pass (the caller checks).  The latency tails and
    the overhead ratio are at nominal speed, like the end-to-end metrics.
    """
    fastest = min(traced, key=lambda p: p["loop_wall_s"])
    summary = fastest["trace"]
    loop_s = fastest["loop_wall_s"]
    out: dict[str, float] = {}
    for stem in STEMS:
        entry = summary["stems"].get(stem, {})
        for key in ("calls", "total_s", "self_s"):
            out[f"{stem}.{key}"] = entry.get(key, 0)

    # The runner's own share of the tick loop: what is left once the compiler
    # and the backend calls are taken out (there is no callable to span).
    backend_s = sum(
        out[f"backend.{op}.total_s"]
        for op in ("open_session", "report_many", "update_pois", "close_session")
    )
    client = "scenarios.runner.client"
    out[f"{client}.calls"] = len(fastest["tick_s"])
    out[f"{client}.total_s"] = max(0.0, loop_s - out["scenarios.compiler.ticks.total_s"])
    out[f"{client}.self_s"] = max(0.0, out[f"{client}.total_s"] - backend_s)

    counts, observed, reads = summary["counts"], summary["observed"], summary["reads"]
    events = sum(fastest["report_events"])
    oracle = reads.get("oracle", {})
    lookups = oracle.get("hits", 0) + oracle.get("misses", 0)
    shard_events = reads.get("shard_events", [])
    best = best_of(untraced)
    out.update({
        "core.gt_verify.calls": counts.get("core.gt_verify.calls", 0),
        "cluster.hashring.lookups": counts.get("cluster.hashring.lookups", 0),
        "scenarios.runner.escape_ratio": events / max(1, fastest["session_ticks"]),
        "service.batch_size_mean": (
            observed["batch_events"] / max(1, observed["batch_calls"])
        ),
        "service.renotify_ratio": (
            observed["renotify_notified"] / max(1, observed["renotify_scanned"])
        ),
        "index.flat.node_accesses": fastest["counts"]["index_node_accesses"],
        "index.flat.delta_debt_max": observed["delta_debt_max"],
        "index.oracle.row_hit_ratio": oracle.get("hits", 0) / max(1, lookups),
        "index.oracle.resident_mb": oracle.get("resident_bytes", 0) / 2**20,
        "cluster.shard_skew": (
            max(shard_events) / max(1e-12, statistics.fmean(shard_events))
            if shard_events
            else 1.0
        ),
        "transport.roundtrips": counts.get("transport.roundtrips", 0),
        "transport.bytes_sent": observed["bytes_sent"],
        "transport.bytes_received": observed["bytes_received"],
        "transport.backpressure_waits": reads.get("backpressure_waits", 0),
        "transport.overhead_s": (
            max(0.0, backend_s - out["worker.dispatch.total_s"])
            if out["worker.dispatch.calls"]
            else 0.0
        ),
        "backend.open_session.p99_ms": percentile(best["open_s"], 99) * 1e3,
        "backend.report_many.p99_ms": percentile(best["report_s"], 99) * 1e3,
        "backend.update_pois.max_ms": max(best["churn_s"], default=0.0) * 1e3,
        "trace.overhead_ratio": (
            sum(best_of(traced)["tick_s"]) / sum(best["tick_s"])
        ),
        # Spans of the driver process only: in a ProcessCluster run the
        # workers' spans overlap the driver's recv_wait.
        "trace.coverage": (summary["front_self_s"] + out[f"{client}.self_s"]) / loop_s,
        "trace.machine_slowdown": fastest["slowdown"],
        "trace.unresolved_targets": len(summary["unresolved"]),
    })
    return out
