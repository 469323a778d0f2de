"""Write ``BENCHMARK.json`` from the names this package reports.

``python3 -m bench.declare`` regenerates the file; the smoke test asserts the
file and the package agree, so the two cannot drift apart unnoticed.
"""

from __future__ import annotations

import json

from bench import DECLARATION, metrics

RUN_SECONDS = 26

WORKLOADS = {
    "euclid_circle": (
        "Circle-MSR fleet on one in-process MPNService: scenario compiler, escape detection, "
        "service waves and index.flat.gnn_many are the whole cost; no cluster, transport, tile or network_ext"
    ),
    "wire_circle": (
        "the same fleet generator through ProcessCluster(2) over TCP: adds api codecs, framing "
        "and round-trips, so a wire-path change must move it and an index change must not"
    ),
    "euclid_churn": (
        "a POI churn batch every tick on 4,000 POIs through MPNCluster(2): index bulk_update "
        "and repack, epoch publish and the Lemma-1 re-notification sweep beside the reads"
    ),
    "citynet_circle": (
        "net_circle on a 16x16 city graph under per-tick churn: the road-network stack "
        "(network_ext balls, index.network, distance oracle); bypasses everything Euclidean"
    ),
}

#: name -> (better, bound).  Bounds: see README, "Bounds".
END_TO_END = {
    "setup_s": ("lower", 0.25),
    "fleet_rate": ("higher", 0.20),
    "report_us_per_event": ("lower", 0.25),
    "open_p50_ms": ("lower", 0.25),
    "tick_p90_ms": ("lower", 0.20),
    "churn_ms_per_batch": ("lower", 0.25),
    "peak_rss_mb": ("lower", 0.05),
    "packets_per_session_tick": ("lower", 0.15),
}

#: Per-layer metrics where more is better; everything else is a cost.
HIGHER_IS_BETTER = {
    "service.batch_size_mean", "index.oracle.row_hit_ratio", "trace.coverage",
}


def build() -> dict:
    return {
        "command": ["python3", "-m", "bench"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": metrics.END_TO_END[n], "better": better, "bound": bound}
            for n, (better, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": n, "unit": unit,
             "better": "higher" if n in HIGHER_IS_BETTER else "lower"}
            for n, unit in metrics.per_layer_units().items()
        ],
    }


if __name__ == "__main__":
    DECLARATION.write_text(json.dumps(build(), indent=1) + "\n")
    print(f"wrote {DECLARATION}")
