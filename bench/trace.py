"""Spans and counters around the program's public callables, installed from outside.

A traced pass wraps the callables in :data:`SPANS` and :data:`COUNTERS`,
named ``module:qualname`` (public names only).  Spans stay in memory as
``[stem, start, end, parent, tick, nested]`` and are written out when the pass
ends; :meth:`Tracer.summary` folds them into ``calls`` / ``total_s`` /
``self_s`` per stem, where self time is a span's duration minus the part its
child spans cover.

Later changes to the program may not edit this directory, so a target that no
longer resolves is skipped with a warning and counted in
``trace.unresolved_targets``: the trace degrades, it does not crash.

``ProcessCluster`` workers are traced by handing the cluster
:class:`TracedSpaceFactory` in place of the space factory: the worker calls it
in its own process, which installs the same wrappers there and flushes that
process's spans to a per-pid file when the worker exits.
"""

from __future__ import annotations

import functools
import importlib
import json
import multiprocessing
import multiprocessing.util
import os
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional

FRONT = "front"  # the driver process only
WORKER = "worker"  # ProcessCluster worker processes only
ANY = "any"

_API = "repro.service.api"
_REQUESTS = (
    "OpenSessionRequest", "ReportRequest", "ReportManyRequest",
    "UpdateLocationsRequest", "UpdatePoisRequest", "UpdatePolicyRequest",
    "CloseSessionRequest",
)
_RESPONSES = (
    "OpenSessionResponse", "ReportResponse", "ReportManyResponse",
    "UpdateLocationsResponse", "UpdatePoisResponse", "UpdatePolicyResponse",
    "CloseSessionResponse", "ErrorResponse",
)

#: (stem, targets, side, observer name).  Order is the README's table order.
SPANS: tuple[tuple[str, tuple[str, ...], str, Optional[str]], ...] = (
    ("service.open_session", ("repro.service.service:MPNService.open_session",), ANY, None),
    ("service.report_many", ("repro.service.service:MPNService.report_many",), ANY, None),
    ("service.renotify_pois", ("repro.service.service:MPNService.renotify_pois",), ANY, "renotify"),
    ("strategies.circle.build_regions_batch",
     ("repro.service.strategies:CircleMSRStrategy.build_regions_batch",), ANY, "batch"),
    ("strategies.tile.build_regions_batch",
     ("repro.service.strategies:TileMSRStrategy.build_regions_batch",), ANY, "batch"),
    ("strategies.tile.compute", ("repro.service.strategies:TileMSRStrategy.compute",), ANY, None),
    ("core.tile_msr", ("repro.core.tile_msr:tile_msr",), ANY, None),
    ("core.divide_verify", ("repro.core.divide_verify:divide_verify",), ANY, None),
    ("index.flat.gnn_many", ("repro.index.flat:FlatRTree.gnn_many",), ANY, None),
    ("index.flat.gnn", ("repro.index.flat:FlatRTree.gnn",), ANY, None),
    ("index.flat.intersect_balls", ("repro.index.flat:FlatRTree.intersect_balls",), ANY, None),
    ("index.flat.bulk_update", ("repro.index.flat:FlatRTree.bulk_update",), ANY, "delta_debt"),
    ("index.flat.repack", ("repro.index.flat:FlatRTree.repack",), ANY, None),
    ("index.network.gnn", ("repro.index.network:NetworkIndex.gnn",), ANY, None),
    ("index.oracle.rows", ("repro.index.oracle:DistanceOracle.rows",), ANY, None),
    ("network_ext.circle_msr", ("repro.network_ext.circle_msr:network_circle_msr",), ANY, None),
    ("network_ext.ball.construct", ("repro.network_ext.ball:NetworkBall.__init__",), ANY, None),
    ("network_ext.ball.wire_values",
     ("repro.network_ext.ball:NetworkBall.wire_values",), ANY, None),
    ("cluster.report_many",
     ("repro.cluster.cluster:MPNCluster.report_many",
      "repro.transport.worker:ProcessCluster.report_many"), FRONT, None),
    ("cluster.update_pois",
     ("repro.cluster.cluster:MPNCluster.update_pois",
      "repro.transport.worker:ProcessCluster.update_pois"), FRONT, None),
    ("api.encode", tuple(f"{_API}:{name}.to_dict" for name in _REQUESTS), FRONT, None),
    ("api.decode",
     (f"{_API}:response_from_dict", f"{_API}:NotificationPayload.live_regions"), FRONT, None),
    ("transport.framing.encode", ("repro.transport.framing:encode_frame",), FRONT, "sent"),
    ("transport.framing.decode", ("repro.transport.framing:decode_body",), FRONT, "received"),
    ("transport.client.recv_wait", ("repro.transport.framing:SyncFrameStream.recv",), FRONT, None),
    ("worker.dispatch", ("repro.service.service:MPNService.dispatch",), WORKER, None),
    ("worker.api.codec",
     (f"{_API}:request_from_dict",)
     + tuple(f"{_API}:{name}.to_dict" for name in _RESPONSES), WORKER, None),
)

#: Called more than 10^5 times in a run: counted, not spanned.
COUNTERS: tuple[tuple[str, tuple[str, ...], str], ...] = (
    ("core.gt_verify.calls",
     ("repro.core.gt_verify:MaxVerifier.verify", "repro.core.sum_verify:SumVerifier.verify"), ANY),
    ("cluster.hashring.lookups", ("repro.cluster.hashring:HashRing.shard_for",), FRONT),
    ("transport.roundtrips", ("repro.transport.framing:SyncFrameStream.send",), FRONT),
)

#: Every span stem reported, the harness's own six first (see ``onepass``).
HARNESS_STEMS = (
    "scenarios.compiler.ticks", "scenarios.runner.client",
    "backend.open_session", "backend.report_many",
    "backend.update_pois", "backend.close_session",
)
STEMS = HARNESS_STEMS + tuple(stem for stem, _, _, _ in SPANS)

#: Values the observers accumulate (sums unless noted).
OBSERVED = (
    "batch_calls", "batch_events", "renotify_scanned", "renotify_notified",
    "delta_debt_max", "bytes_sent", "bytes_received",
)

_perf = time.perf_counter


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self) -> None:
        self.stems: list[str] = []
        self.counts: dict[str, int] = {name: 0 for name, _, _ in COUNTERS}
        self.observed: dict[str, int] = {name: 0 for name in OBSERVED}
        self.unresolved: list[str] = []
        self.tick = -1
        # One span list per thread (a worker dispatches on one thread and
        # frames on another), so a span's parent index needs no lock.
        self._per_thread: list[list[list]] = []
        self._local = threading.local()
        self._closed: Optional[dict] = None

    # -- recording ------------------------------------------------------

    def stem_id(self, stem: str) -> int:
        """Register ``stem`` (so it is reported even if never entered)."""
        if stem not in self.stems:
            self.stems.append(stem)
        return self.stems.index(stem)

    def _state(self):
        """This thread's (spans, open-span stack, open count per stem)."""
        local = self._local
        try:
            return local.state
        except AttributeError:
            local.state = ([], [], {})
            self._per_thread.append(local.state[0])
            return local.state

    def begin(self, stem_id: int) -> list:
        spans, stack, depth = self._state()
        record = [
            stem_id, 0.0, 0.0, stack[-1] if stack else -1, self.tick,
            depth.get(stem_id, 0) > 0,
        ]
        depth[stem_id] = depth.get(stem_id, 0) + 1
        stack.append(len(spans))
        spans.append(record)
        record[1] = _perf()
        return record

    def end(self, record: list) -> None:
        record[2] = _perf()
        _, stack, depth = self._state()
        stack.pop()
        depth[record[0]] -= 1

    def span_wrapper(self, stem: str, fn: Callable, observe: Optional[Callable]) -> Callable:
        stem_id = self.stem_id(stem)
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = begin(stem_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                end(record)
            if observe is not None:
                try:
                    observe(self.observed, args, result)
                except Exception as exc:  # a changed signature must not stop the run
                    self.note_unresolved(f"{stem} observer", exc)
            return result

        return traced

    def count_wrapper(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def note_unresolved(self, what: str, exc: BaseException) -> None:
        if what not in self.unresolved:
            self.unresolved.append(what)
            print(f"bench.trace: warning: {what} failed ({exc!r}); "
                  "its metrics read 0", file=sys.stderr)

    # -- folding --------------------------------------------------------

    def close(self) -> None:
        """Stop counting: what runs from here on (the spot-check replay
        drives a second service through the same wrappers) is not the run."""
        if self._closed is None:
            self._closed = {
                "lengths": [len(spans) for spans in self._per_thread],
                "counts": dict(self.counts),
                "observed": dict(self.observed),
            }

    def _recorded(self) -> tuple[list[list[list]], dict, dict]:
        closed = self._closed
        if closed is None:
            return self._per_thread, self.counts, self.observed
        spans = [s[:n] for s, n in zip(self._per_thread, closed["lengths"])]
        return spans, closed["counts"], closed["observed"]

    def summary(self) -> dict:
        """Per-stem ``calls`` / ``total_s`` / ``self_s`` plus counters.

        ``total_s`` skips a span nested inside another of its own stem (a
        recursive callee), so recursion is not counted twice.
        """
        per_thread, counts, observed = self._recorded()
        stems = {
            stem: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for stem in self.stems
        }
        for spans in per_thread:
            child_s = [0.0] * len(spans)
            for _, start, stop, parent, _, _ in spans:
                if parent >= 0:
                    child_s[parent] += stop - start
            for i, (stem_id, start, stop, _, _, nested) in enumerate(spans):
                entry = stems[self.stems[stem_id]]
                entry["calls"] += 1
                entry["self_s"] += (stop - start) - child_s[i]
                if not nested:
                    entry["total_s"] += stop - start
        return {
            "stems": stems,
            "counts": dict(counts),
            "observed": dict(observed),
            "unresolved": list(self.unresolved),
        }

    def dump(self, path: str) -> None:
        """Write this process's spans and their summary to ``path``."""
        payload = self.summary()
        payload["pid"] = os.getpid()
        payload["stem_names"] = self.stems
        payload["spans_by_thread"] = self._recorded()[0]
        tmp = f"{path}.tmp"
        with open(tmp, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))
        os.replace(tmp, path)


# ----------------------------------------------------------------------
# Observers: values read at a span's boundary
# ----------------------------------------------------------------------


def _observe_batch(observed, args, result) -> None:
    observed["batch_calls"] += 1
    observed["batch_events"] += len(args[1])  # (self, groups, tree, ...)


def _observe_renotify(observed, args, result) -> None:
    # Sessions scanned by the Lemma-1 sweep: everything live on the service.
    observed["renotify_scanned"] += len(args[0].session_ids())
    observed["renotify_notified"] += len(result)


def _observe_delta_debt(observed, args, result) -> None:
    observed["delta_debt_max"] = max(observed["delta_debt_max"], args[0].delta_debt())


def _observe_sent(observed, args, result) -> None:
    observed["bytes_sent"] += len(result)


def _observe_received(observed, args, result) -> None:
    observed["bytes_received"] += len(args[0]) + 4  # body + length header


_OBSERVERS = {
    "batch": _observe_batch,
    "renotify": _observe_renotify,
    "delta_debt": _observe_delta_debt,
    "sent": _observe_sent,
    "received": _observe_received,
}


def merged_summary(tracer: Tracer, out_dir: str) -> dict:
    """The driver's summary with every worker dump in ``out_dir`` folded in.

    ``front_self_s`` keeps the driver's own self time apart: worker spans run
    while the driver waits in ``recv``, so adding them would count that time
    twice.
    """
    summary = tracer.summary()
    summary["front_self_s"] = sum(e["self_s"] for e in summary["stems"].values())
    summary["workers_merged"] = 0
    for name in sorted(os.listdir(out_dir)):
        if not (name.startswith("worker-") and name.endswith(".json")):
            continue
        with open(os.path.join(out_dir, name)) as fh:
            worker = json.load(fh)
        summary["workers_merged"] += 1
        for stem, entry in worker["stems"].items():
            mine = summary["stems"].setdefault(
                stem, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            for key, value in entry.items():
                mine[key] += value
        for counter, value in worker["counts"].items():
            summary["counts"][counter] = summary["counts"].get(counter, 0) + value
        for observed, value in worker["observed"].items():
            if observed == "delta_debt_max":
                value = max(value, summary["observed"].get(observed, 0))
            else:
                value += summary["observed"].get(observed, 0)
            summary["observed"][observed] = value
        summary["unresolved"] += [
            t for t in worker["unresolved"] if t not in summary["unresolved"]
        ]
    return summary


# ----------------------------------------------------------------------
# Installing wrappers by module:qualname
# ----------------------------------------------------------------------


def _resolve(target: str):
    """``(owner, attribute name, callable)`` for a ``module:qualname`` target."""
    module_name, _, qualname = target.partition(":")
    owner = importlib.import_module(module_name)
    *path, name = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    fn = vars(owner).get(name) or getattr(owner, name)
    if isinstance(fn, (staticmethod, classmethod)) or not callable(fn):
        raise TypeError(f"{target} is not a plain function or method")
    return owner, name, fn


def _replace(owner, name: str, fn: Callable, wrapper: Callable) -> None:
    """Rebind ``fn`` to ``wrapper`` on its owner and wherever it was imported by name."""
    setattr(owner, name, wrapper)
    if isinstance(owner, type):
        return
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                setattr(module, attr, wrapper)


def _wrap(tracer: Tracer, targets: tuple[str, ...], make: Callable) -> None:
    for target in targets:
        try:
            owner, name, fn = _resolve(target)
        except (ImportError, AttributeError, TypeError) as exc:
            tracer.note_unresolved(target, exc)
            continue
        _replace(owner, name, fn, make(fn))


def install(tracer: Tracer, side: str) -> None:
    """Wrap every target that belongs on ``side`` (``FRONT`` or ``WORKER``).

    A module that binds a target by name (``from x import f``) after this runs
    reads the already-patched attribute, so load order does not matter.
    """
    for stem, targets, where, observer in SPANS:
        if where in (ANY, side):
            observe = _OBSERVERS[observer] if observer else None
            tracer.stem_id(stem)
            _wrap(tracer, targets, lambda fn: tracer.span_wrapper(stem, fn, observe))
    for name, targets, where in COUNTERS:
        if where in (ANY, side):
            _wrap(tracer, targets, lambda fn: tracer.count_wrapper(name, fn))


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

#: The one tracer of a worker process (a worker has no other place to keep it:
#: the factory is the only code of ours it ever calls).
_WORKER_TRACER: Optional[Tracer] = None


@dataclass(frozen=True)
class TracedSpaceFactory:
    """A picklable space factory that traces the process it is called in.

    ``ProcessCluster`` calls its factory once in every worker (and once in
    the front door, for the mirror).  In a worker the first call installs the
    wrappers and registers the exit-time flush to
    ``<out_dir>/worker-<pid>.json``; everywhere the space comes from
    ``inner``.
    """

    inner: Callable
    out_dir: str

    def __call__(self):
        global _WORKER_TRACER
        if multiprocessing.parent_process() is not None and _WORKER_TRACER is None:
            _WORKER_TRACER = tracer = Tracer()
            install(tracer, WORKER)
            path = os.path.join(self.out_dir, f"worker-{os.getpid()}.json")
            # multiprocessing children leave through os._exit, which skips
            # atexit; Finalize callbacks with an exit priority do run.
            multiprocessing.util.Finalize(None, tracer.dump, args=(path,), exitpriority=10)
        return self.inner()
