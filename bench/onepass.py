"""One pass: a fresh interpreter streams one seeded workload through its backend.

Run as ``python -m bench.onepass --workload NAME --seed N --scale S --trace 0|1
--t0 EPOCH --out DIR`` by :mod:`bench.run`; prints one JSON object as its last
line.  The pass times every operation the scenario runner sends (one entry per
open, wave, churn batch, close and whole tick, in stream order, so the parent
can line passes up operation by operation) and reads the backend's merged
counters at the end.

Timed passes depend only on ``repro.scenarios`` (``CompiledScenario``,
``run_scenario``, the spec dataclasses) and the three backend constructors.

Machine speed.  The box this runs on changes speed by up to 1.6x for seconds
to minutes at a time (a shared host; CPU time tracks wall clock, so it is the
core that slows, not the scheduler).  Between ticks the pass times a small
fixed kernel (:func:`speed_probe`, ~2 ms) and divides every duration of that tick by
``probe time / NOMINAL_PROBE_S``: reported times are what the operation costs
on a core that runs the probe in its nominal time.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import heapq
import json
import math
import os
import resource
import statistics
import sys
import time

from bench import add_src_to_path
from bench.metrics import TIMED_SERIES

_perf = time.perf_counter

#: The probe's time on this class of machine at full speed.  A constant, so
#: that results taken hours apart share one scale.
NOMINAL_PROBE_S = 600e-6
_PROBE_GRAPH = {
    node: {(node * 7 + k) % 5000: 1.0 + k for k in range(4)} for node in range(5000)
}


def _probe_once() -> float:
    """A bounded Dijkstra over a fixed graph: heap, dict and tuple traffic,
    the mix the program's own hot paths are made of."""
    started = _perf()
    dist = {0: 0.0}
    heap = [(0.0, 0)]
    settled = 0
    while heap and settled < 400:
        d, node = heapq.heappop(heap)
        settled += 1
        for neighbour, weight in _PROBE_GRAPH[node].items():
            candidate = d + weight
            if candidate < dist.get(neighbour, math.inf):
                dist[neighbour] = candidate
                heapq.heappush(heap, (candidate, neighbour))
    list(dist.items())
    return _perf() - started


def speed_probe() -> float:
    """Seconds the fixed kernel takes right now.

    Best of three, so an interrupt landing in one of them does not read as a
    slow machine.
    """
    return min(_probe_once(), _probe_once(), _probe_once())


def _timed_scenario_class():
    from repro.scenarios import CompiledScenario

    class TimedScenario(CompiledScenario):
        """The compiled stream, timing each tick it yields.

        ``compile_s[t]`` is the time inside the compiler producing tick
        ``t``; ``tick_s[t]`` the whole tick, from asking for it to the runner
        coming back for the next one.  ``probe_s`` holds one speed probe
        before every tick and one after the last.
        """

        def __init__(self, spec, tracer=None):
            super().__init__(spec)
            self.compile_s: list[float] = []
            self.tick_s: list[float] = []
            self.probe_s: list[float] = []
            self.session_ticks = 0  # MoveEvents streamed
            self._tracer = tracer
            self._stem = tracer.stem_id("scenarios.compiler.ticks") if tracer else None

        @property
        def tick_index(self) -> int:
            """Position in the stream of the tick being served."""
            return len(self.compile_s) - 1

        def ticks(self):
            stream = super().ticks()
            tracer = self._tracer
            while True:
                self.probe_s.append(speed_probe())
                started = _perf()
                record = tracer.begin(self._stem) if tracer else None
                try:
                    events = next(stream)
                except StopIteration:
                    if tracer is not None:
                        tracer.end(record)
                        tracer.close()
                    return
                if record is not None:
                    tracer.end(record)
                self.compile_s.append(_perf() - started)
                self.session_ticks += len(events.moves)
                if tracer is not None:
                    tracer.tick = events.tick
                yield events
                self.tick_s.append(_perf() - started)

        def slowdown(self) -> list[float]:
            """Per tick: how much slower than nominal the machine ran (the
            probes on either side of the tick, averaged)."""
            probes = self.probe_s
            return [
                (before + after) / (2.0 * NOMINAL_PROBE_S)
                for before, after in zip(probes, probes[1:])
            ]

    return TimedScenario


class TimingProxy:
    """The backend the runner drives, with each dispatch call timed.

    Each series holds ``(tick index, seconds)`` per call, in stream order.
    Everything the runner does not send as an operation (``session_metrics``
    for the spot-check, attribute reads) passes straight through.
    """

    OPERATIONS = ("open_session", "report_many", "update_pois", "close_session")

    def __init__(self, backend, compiled, tracer=None):
        self._backend = backend
        self._compiled = compiled
        self._tracer = tracer
        self.calls: dict[str, list[tuple[int, float]]] = {op: [] for op in self.OPERATIONS}
        self.report_events: list[int] = []
        self.attempted = 0
        self.failed = 0
        self._stems = {
            op: tracer.stem_id(f"backend.{op}") if tracer else None
            for op in self.OPERATIONS
        }

    def __getattr__(self, name):
        return getattr(self._backend, name)

    def _call(self, op, *args, **kwargs):
        self.attempted += 1
        if op == "report_many":
            self.report_events.append(len(args[0]))
        tracer = self._tracer
        record = tracer.begin(self._stems[op]) if tracer else None
        started = _perf()
        try:
            return getattr(self._backend, op)(*args, **kwargs)
        except BaseException:
            self.failed += 1
            raise
        finally:
            self.calls[op].append((self._compiled.tick_index, _perf() - started))
            if record is not None:
                tracer.end(record)

    open_session = functools.partialmethod(_call, "open_session")
    report_many = functools.partialmethod(_call, "report_many")
    update_pois = functools.partialmethod(_call, "update_pois")
    close_session = functools.partialmethod(_call, "close_session")


@contextlib.contextmanager
def open_backend(kind: str, spec, shards: int, worker_factory=None):
    """The workload's backend; a ``ProcessCluster`` is always closed.

    Yields ``(backend, exitcodes)``; ``exitcodes`` is filled with the workers'
    exit codes once the cluster has drained (in-process backends: empty).
    """
    exitcodes: list = []
    if kind == "service":
        from repro.service.service import MPNService

        yield MPNService(spec.space()), exitcodes
    elif kind == "cluster":
        from repro.cluster.cluster import MPNCluster

        yield MPNCluster(shards, spec.space), exitcodes
    elif kind == "process":
        from repro.transport.worker import ProcessCluster

        cluster = ProcessCluster(shards, worker_factory or spec.space)
        try:
            with cluster:
                yield cluster, exitcodes
        finally:
            exitcodes.extend(cluster.worker_exitcodes())
    else:
        raise ValueError(f"unknown backend kind {kind!r}")


def _end_of_run_reads(backend) -> dict:
    """Layer facts the backend itself reports (traced passes only)."""
    out: dict = {}
    oracle_stats = getattr(backend, "oracle_stats", None)
    if oracle_stats is not None:
        hits = misses = resident = 0
        for stats in oracle_stats().values():
            hits += stats.get("row_cache_hits", 0)
            misses += stats.get("row_cache_misses", 0)
            resident += stats.get("resident_bytes", 0)
        out["oracle"] = {"hits": hits, "misses": misses, "resident_bytes": resident}
    shard_metrics = getattr(backend, "shard_metrics", None)
    if shard_metrics is not None:
        out["shard_events"] = [m.update_events for m in shard_metrics()]
    server_stats = getattr(backend, "server_stats", None)
    if server_stats is not None:
        out["backpressure_waits"] = sum(
            s.get("backpressure_waits", 0) for s in server_stats()
        )
    return out


def run_pass(args) -> dict:
    add_src_to_path()
    from repro.scenarios import run_scenario
    from repro.scenarios.runner import COUNTER_FIELDS

    from bench import trace
    from bench.workloads import SHARDS, WORKLOADS

    workload = WORKLOADS[args.workload]
    spec = workload.spec(args.seed, args.scale).validate()
    tracer = None
    worker_factory = None
    if args.trace:
        tracer = trace.Tracer()
        for stem in trace.HARNESS_STEMS:
            tracer.stem_id(stem)
        trace.install(tracer, trace.FRONT)
        if workload.backend == "process":
            worker_factory = trace.TracedSpaceFactory(spec.space, args.out)
    compiled = _timed_scenario_class()(spec, tracer)

    with open_backend(workload.backend, spec, SHARDS, worker_factory) as (backend, exitcodes):
        proxy = TimingProxy(backend, compiled, tracer)
        setup_s = time.time() - args.t0
        error = None
        try:
            result = run_scenario(
                compiled,
                proxy,
                # Traced passes carry the seeded replay against a fresh
                # unsharded service; timed passes must not pay for it.
                spot_check_fraction=(
                    min(1.0, 2.0 * workload.spot_check_cap / spec.total_sessions())
                    if args.trace
                    else 0.0
                ),
                spot_check_cap=workload.spot_check_cap,
            )
        except Exception as exc:  # reported to the parent, which fails the run
            result = None
            error = f"{type(exc).__name__}: {exc}"
        counters = {}
        reads = {}
        if result is not None:
            merged = backend.metrics
            counters = {name: getattr(merged, name) for name in COUNTER_FIELDS}
            if tracer is not None:
                reads = _end_of_run_reads(backend)

    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    # Seconds at nominal machine speed, one entry per operation in stream
    # order.  A pass that aborted reports none: they would not line up.
    series = {key: [] for key in TIMED_SERIES}
    slowdown = []
    if error is None:
        slowdown = compiled.slowdown()
        series["tick_s"] = [t / f for t, f in zip(compiled.tick_s, slowdown)]
        series["compile_s"] = [t / f for t, f in zip(compiled.compile_s, slowdown)]
        for key, op in zip(("open_s", "report_s", "churn_s", "close_s"), proxy.OPERATIONS):
            series[key] = [seconds / slowdown[tick] for tick, seconds in proxy.calls[op]]

    out = {
        "ok": error is None and all(code == 0 for code in exitcodes),
        "error": error,
        "setup_s": setup_s,
        "loop_wall_s": sum(compiled.tick_s),
        "slowdown": statistics.fmean(slowdown) if slowdown else 0.0,
        **series,
        "report_events": proxy.report_events,
        "session_ticks": compiled.session_ticks,
        "rss_mb": (usage + workers) / 1024.0,  # driver + the largest reaped worker
        "attempted": proxy.attempted,
        "failed": proxy.failed,
        "worker_exitcodes": exitcodes,
        "counts": None,
        "spot_check": None,
        "trace": None,
    }
    if result is not None:
        out["counts"] = {
            "opened": result.total_opened,
            "wave_events": result.total_wave_events,
            "notifications": result.total_notifications,
            "churn_notifications": result.total_churn_notifications,
            **counters,
        }
        check = result.spot_check
        if check is not None:
            out["spot_check"] = {
                "sampled": check.sampled_sessions,
                "compared": check.compared_notifications,
                "mismatches": check.notification_mismatches + check.counter_mismatches,
            }
    if tracer is not None:
        tracer.dump(os.path.join(args.out, f"front-{os.getpid()}.json"))
        summary = trace.merged_summary(tracer, args.out)
        summary["reads"] = reads
        out["trace"] = summary
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.onepass")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    out = run_pass(args)
    sys.stdout.flush()
    print(json.dumps(out, separators=(",", ":")))
    return 0 if out["ok"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
