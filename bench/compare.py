"""``--compare A.json B.json``: two suite results, one row per workload and metric."""

from __future__ import annotations

import json


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple[str, float]:
    """``(better | same | worse | unresolved, B ÷ A)`` for one metric.

    ``unresolved`` when either side's own seed-to-seed spread exceeds the
    bound: a difference that size cannot be told from the runs' disagreement.
    """
    ratio = b["median"] / a["median"] if a["median"] else float("inf")
    if a["spread"] > bound or b["spread"] > bound:
        return "unresolved", ratio
    worsening = ratio - 1.0 if better == "lower" else 1.0 - ratio
    if worsening > bound:
        return "worse", ratio
    if worsening < -bound:
        return "better", ratio
    return "same", ratio


def compare_files(path_a: str, path_b: str) -> int:
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    for side, data in (("A", a), ("B", b)):
        print(f"{side}: {json.dumps(data['fingerprint'], sort_keys=True)}")
    worse = 0
    print(f"\n{'workload':<16} {'metric':<26} {'A median':>12} {'B median':>12} "
          f"{'B/A':>7} {'bound':>6}  verdict")
    for workload, metrics in a["end_to_end"].items():
        if workload not in b["end_to_end"]:
            continue
        for metric, entry_a in metrics.items():
            entry_b = b["end_to_end"][workload][metric]
            bound = a["bounds"][metric]
            word, ratio = verdict(entry_a, entry_b, a["better"][metric], bound)
            worse += word == "worse"
            print(f"{workload:<16} {metric:<26} {entry_a['median']:>12.5g} "
                  f"{entry_b['median']:>12.5g} {ratio:>7.3f} {bound:>6.2f}  {word} "
                  f"(of A's {entry_a['median']:.5g} {entry_a['unit']})")
    print("\nper-layer metrics that moved by more than 5 % (single traced runs; no verdict)")
    for workload, layers in a["per_layer"].items():
        for name, value_a in layers.items():
            value_b = b["per_layer"].get(workload, {}).get(name)
            if value_b is None or value_a == value_b:
                continue
            base = max(abs(value_a), abs(value_b))
            if abs(value_b - value_a) > 0.05 * base:
                print(f"{workload:<16} {name:<44} {value_a:>14.6g} -> {value_b:>14.6g}")
    return 1 if worse else 0
