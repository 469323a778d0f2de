"""One measured run: several passes of one seeded workload, folded into metrics.

``run()`` starts passes (:mod:`bench.onepass`, each a fresh interpreter in its
own process group) until ``seconds`` are used, checks that they agree with each
other — and, at the pinned seed, with ``bench/pinned.json`` — and returns the
result object the command prints as its last line.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

from bench import ROOT, metrics
from bench.procs import Children

DEFAULT_OUT = str(ROOT / ".bench_out")
MIN_PASSES = {"full": 3, "smoke": 2}
PASS_TIMEOUT_S = 150.0  # a pass takes seconds; the whole command has 180
RUN_LIMIT_S = 150.0  # stop short of MIN_PASSES rather than overrun the command's 180 s


def pinned() -> dict:
    """``bench/pinned.json``: the default seed and the counts it must produce."""
    return json.loads((ROOT / "bench" / "pinned.json").read_text())


class RunFailed(Exception):
    """A pass died or printed no result: there is nothing to report."""


def _one_pass(children: Children, workload, seed, scale, trace, out_dir) -> dict:
    os.makedirs(out_dir, exist_ok=True)
    argv = [
        sys.executable, "-m", "bench.onepass",
        "--workload", workload, "--seed", str(seed), "--scale", scale,
        "--trace", str(int(trace)), "--t0", repr(time.time()), "--out", out_dir,
    ]
    code, out = children.run(argv, cwd=str(ROOT), timeout=PASS_TIMEOUT_S)
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise RunFailed(f"pass exited {code} without a result") from None
    if result["error"] is not None:
        raise RunFailed(f"pass aborted: {result['error']}")
    return result


def _disagreements(passes: list[dict]) -> list[str]:
    """Ways the passes of one seeded stream differ (there must be none)."""
    first = passes[0]
    problems = []
    for i, p in enumerate(passes[1:], start=2):
        if p["counts"] != first["counts"]:
            diff = sorted(
                k for k in first["counts"] if p["counts"].get(k) != first["counts"][k]
            )
            problems.append(f"pass {i} counts differ from pass 1 in {diff}")
        if p["report_events"] != first["report_events"]:
            problems.append(f"pass {i} wave sizes differ from pass 1")
        for key in metrics.TIMED_SERIES:
            if len(p[key]) != len(first[key]):
                problems.append(f"pass {i} made {len(p[key])} {key} calls, pass 1 {len(first[key])}")
    return problems


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: str,
    out_dir: str,
    children: Children,
    log=print,
) -> dict:
    """Measure ``workload`` at ``seed`` for about ``seconds``; the result object."""
    started = time.perf_counter()
    run_dir = os.path.join(out_dir, f"{workload}-{seed}-{os.getpid()}")
    untraced: list[dict] = []
    traced: list[dict] = []
    durations: list[float] = []
    # A traced run alternates untraced and traced passes, so the overhead
    # ratio compares like with like.
    kinds = (False, True) if trace else (False,)
    need = MIN_PASSES[scale] + MIN_PASSES[scale] % len(kinds)  # whole rounds
    try:
        while True:
            n = len(durations)
            if n and n % len(kinds) == 0:
                spent = time.perf_counter() - started
                round_s = sum(durations[-len(kinds):])
                if spent + round_s > (seconds if n >= need else RUN_LIMIT_S):
                    break
            kind = kinds[n % len(kinds)]
            t0 = time.perf_counter()
            result = _one_pass(
                children, workload, seed, scale, kind, os.path.join(run_dir, f"pass{n}")
            )
            durations.append(time.perf_counter() - t0)
            (traced if kind else untraced).append(result)
            log(
                f"pass {n + 1} {'traced' if kind else 'timed '} "
                f"setup {result['setup_s']:.3f} s  "
                f"tick loop {result['loop_wall_s']:.3f} s wall, "
                f"{sum(result['tick_s']):.3f} s at nominal speed "
                f"(machine x{result['slowdown']:.2f})  rss {result['rss_mb']:.0f} MiB"
            )
    finally:
        if out_dir == DEFAULT_OUT:
            shutil.rmtree(run_dir, ignore_errors=True)

    passes = untraced + traced
    problems = _disagreements(passes)
    for p in passes:
        if not p["ok"]:
            problems.append(f"worker exit codes {p['worker_exitcodes']}")
        if p["spot_check"] is not None and p["spot_check"]["mismatches"]:
            problems.append(f"spot-check mismatches: {p['spot_check']}")
    counts = passes[0]["counts"]
    pins = pinned()
    if scale == "full" and seed == pins["seed"]:
        want = pins["counts"].get(workload)
        if want is not None and want != counts:
            problems.append(f"counts differ from bench/pinned.json: {counts} != {want}")
        log(f"counts checked against bench/pinned.json: {'ok' if want == counts else 'no'}")
    else:
        log(f"seed {seed} / scale {scale}: the pinned-count comparison is skipped")
    log(f"counts {json.dumps(counts, sort_keys=True)}")
    if traced:
        check = traced[0]["spot_check"]
        log(f"spot-check: {check['sampled']} sessions, {check['compared']} notifications "
            f"replayed against a fresh MPNService, {check['mismatches']} mismatches")
    for problem in problems:
        log(f"INCORRECT: {problem}")

    if trace:
        values = metrics.per_layer(traced, untraced)
        units = metrics.per_layer_units()
        samples = {}
    else:
        values, samples = metrics.end_to_end(untraced)
        units = metrics.END_TO_END
    for name, unit in units.items():
        n = f"  (n={samples[name]})" if name in samples else ""
        log(f"{name:<44} {values[name]:>16.6g} {unit}{n}")
    failed = sum(p["failed"] for p in passes) + len(problems)
    attempted = sum(p["attempted"] for p in passes)
    log(f"error_rate {failed / attempted:.6g} ({failed} failed of {attempted} operations, "
        f"{len(passes)} passes)")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
    }
