"""Multi-process shard workers and the :class:`ProcessCluster` front door.

:class:`repro.cluster.MPNCluster` shards sessions across services *in
one process*; this module puts each shard in its **own OS process**
behind the wire server — the deployment shape the in-process cluster
was rehearsing for.  Each worker process builds its shard's space from
a picklable zero-argument factory and serves a
:class:`~repro.service.MPNService` over it through a
:class:`~repro.transport.server.WireServer` on an OS-assigned port —
dispatching each request on the thread that read it (the server's
concurrency model), so a round-trip pays no thread hand-off inside the
worker.

:class:`ProcessCluster` is the second constructor of
:class:`repro.cluster.cluster.ShardedFrontDoor`: routing, numbering,
front-door wave validation, scatter-gather of waves and churn,
reassembly, resharding, snapshots and the metrics merge are that
class's, stated once in :mod:`repro.cluster.cluster` and shared with
:class:`~repro.cluster.MPNCluster` — same ring, same session ids, same
answers.  Here a shard is a
:class:`~repro.transport.client.RemoteBackend`, so every hop is a wire
round-trip, and this module adds only what processes make different:

* **Replicas by construction.**  Every process calls the same factory,
  so the factories must be deterministic (build from literal data or a
  seeded generator).  That keeps cluster answers bit-identical to a
  single service — proven over the wire by
  ``tests/test_wire_equivalence.py``.
* **The mirror validates churn.**  The front door keeps its own replica
  of every space; a churn batch is applied to it first — what the
  mirror accepts every worker accepts, so a bad removal raises before
  any worker hears anything.  Each worker then applies the batch to its
  own index (one ``bulk_update``, hence exactly one new space
  ``epoch`` per worker per batch) and
  runs its own Lemma-1 re-notification sweep, overlapping its
  siblings'.
* **The churn log.**  Every accepted batch is also logged, in order:
  the catch-up feed a late-spawned worker replays (below).
* **Waves cost no validation round-trip.**  The group sizes the front
  door validates a wave against are the ones the shard backends already
  hold client-side; "submitting" a sub-wave sends its frame and returns
  the function that reads the reply, so the workers compute at the same
  time.
* **Closes do not wait**: the shard backend drops its client-side
  state, sends the frame and parks the acknowledgement, which the next
  call on that worker's connection reads first
  (:meth:`RemoteBackend.close_session
  <repro.transport.client.RemoteBackend.close_session>`).

Spawn, reshard, drain
---------------------

:meth:`ProcessCluster.add_shard` spawns a **fresh worker process**
mid-run: the newcomer builds its replica from the factory, replays the
churn log (each ``update_pois`` batch, in order, so its index — and its
epoch counter — catches up with the incumbents; the log grows with
churn, the price of factory-built replicas), and then receives the
ring's minimal remap set, each session crossing the wire through the
``export_session`` / ``import_session`` control ops with its mirror
state moving along client-side.
:meth:`ProcessCluster.remove_shard` is the reverse, after which the
departing process drains and exits
(``tests/test_elastic_equivalence.py``).

Shutdown (:meth:`ProcessCluster.close`) is drain-and-stop: each worker
acknowledges the ``shutdown`` control op, finishes its in-flight
requests, closes its listener, and exits 0; the front door then joins
the processes.  A worker that outlives the timeout is terminated, and
any terminated or non-zero exit is surfaced as a
:class:`WorkerShutdownError` (pass ``raise_on_error=False`` for a
best-effort close); ``close`` is idempotent either way.  Worker spawn,
readiness and exit codes are logged on ``repro.transport``.
"""

from __future__ import annotations

import logging
import multiprocessing
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.cluster.cluster import ShardedFrontDoor, SpaceFactory
from repro.service.messages import ReportEvent
from repro.space import Space
from repro.transport.client import RemoteBackend
from repro.transport.framing import DEFAULT_MAX_FRAME_BYTES
from repro.transport.server import DEFAULT_MAX_INFLIGHT

log = logging.getLogger("repro.transport")


class WorkerShutdownError(RuntimeError):
    """One or more worker processes failed to drain cleanly.

    ``exitcodes`` maps shard id to the process's final exit code —
    negative for a signal (``-15`` = had to be terminated after
    outliving the drain timeout), positive for a worker that exited
    with an error of its own.
    """

    def __init__(self, exitcodes: dict[int, Optional[int]]):
        self.exitcodes = dict(exitcodes)
        detail = ", ".join(
            f"worker {shard_id}: exit code {code}"
            for shard_id, code in sorted(self.exitcodes.items())
        )
        super().__init__(f"workers failed to drain cleanly ({detail})")


@dataclass(frozen=True)
class UniformPoiSpaceFactory:
    """A picklable, deterministic space factory: seeded uniform POIs.

    Worker processes are spawned, so their space factories must pickle
    — a lambda closing over a POI list does not.  This one carries only
    literals; every call (each worker, the front door's mirror, an
    in-process twin in an equivalence test) rebuilds the identical
    tree, which is exactly the replicas-by-construction contract.
    """

    n_pois: int = 300
    seed: int = 7
    world: tuple[float, float, float, float] = (0.0, 0.0, 1000.0, 1000.0)

    def __call__(self) -> Space:
        from repro.geometry.rect import Rect
        from repro.space import as_space
        from repro.workloads.poi import build_poi_tree, uniform_pois

        x0, y0, x1, y1 = self.world
        pois = uniform_pois(self.n_pois, Rect(x0, y0, x1, y1), seed=self.seed)
        return as_space(build_poi_tree(pois))


@dataclass(frozen=True)
class GridNetworkSpaceFactory:
    """Picklable road-network replica: perturbed grid + seeded POI nodes."""

    grid_size: int = 5
    seed: int = 33
    n_pois: int = 10
    poi_seed: int = 1

    def __call__(self) -> Space:
        import random

        from repro.network_ext.space import NetworkSpace
        from repro.space.network import NetworkPOISpace

        net = NetworkSpace.from_grid(grid_size=self.grid_size, seed=self.seed)
        rng = random.Random(self.poi_seed)
        pois = rng.sample(list(net.graph.nodes), self.n_pois)
        return NetworkPOISpace(net, pois)


def _worker_main(
    shard_index: int,
    factory: SpaceFactory,
    extra_factories: dict[str, SpaceFactory],
    batched: bool,
    host: str,
    ready_queue,
    max_frame_bytes: int,
    max_inflight: int,
    request_timeout: Optional[float],
) -> None:  # pragma: no cover - runs in a child process
    """One shard: build the replica space, serve it, drain on shutdown."""
    import asyncio

    from repro.service.service import MPNService
    from repro.transport.server import WireServer

    try:
        service = MPNService(factory(), batched=batched)
        for name, extra in extra_factories.items():
            service.add_space(name, extra())
        server = WireServer(
            service,
            host=host,
            port=0,
            max_frame_bytes=max_frame_bytes,
            max_inflight=max_inflight,
            request_timeout=request_timeout,
        )

        async def main() -> None:
            address = await server.start()
            ready_queue.put((shard_index, address))
            await server.serve_forever()

        asyncio.run(main())
    except Exception as exc:
        ready_queue.put((shard_index, exc))
        raise


def _reap(shard_id: int, process, timeout: float, failed: dict) -> None:
    """Join a draining worker; one that had to be terminated, or exited
    non-zero, lands in ``failed`` with its exit code."""
    process.join(timeout=timeout)
    outlived = process.is_alive()
    if outlived:
        process.terminate()
        process.join(timeout=10)
    log.info("worker %d exited with code %s", shard_id, process.exitcode)
    if outlived or process.exitcode not in (0, None):
        failed[shard_id] = process.exitcode


class ProcessCluster(ShardedFrontDoor):
    """A sharded ``ServiceBackend`` over worker *processes* on the wire.

    ``space_factory`` (and each ``extra_spaces`` value) must be a
    picklable zero-argument callable building the shard's space — a
    module-level function or :func:`functools.partial`, not a lambda:
    workers are spawned, and each one (plus the front door's local
    mirror, plus any worker :meth:`add_shard` spawns later) calls it
    once.  ``ring_replicas`` defaults to
    :class:`~repro.cluster.MPNCluster`'s, so both front doors route any
    given session id to the same shard index.  ``request_timeout``
    (default: none) bounds every worker dispatch at the price of a
    thread hop per request, ~0.2 ms — see
    :mod:`repro.transport.server`'s concurrency model.

    The front door also keeps client-side session state (group sizes,
    the mirror space for region decoding) through its per-shard
    :class:`~repro.transport.client.RemoteBackend` objects, so
    :func:`repro.simulation.run_service` drives a process cluster
    exactly like an in-process backend.
    """

    _live_space_error = (
        "cluster spaces are per-worker replicas; register the space by "
        "name (extra_spaces=...) and reference it by that name"
    )

    def __init__(
        self,
        num_shards: int,
        space_factory: SpaceFactory,
        *,
        extra_spaces: Optional[dict[str, SpaceFactory]] = None,
        batched: bool = True,
        ring_replicas: int = 64,
        host: str = "127.0.0.1",
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        request_timeout: Optional[float] = None,
        spawn_timeout: float = 120.0,
    ):
        super().__init__(num_shards, ring_replicas)
        # Spawn configuration is kept verbatim: add_shard() boots late
        # workers with exactly the parameters the incumbents got.
        self.batched = batched
        self._space_factory = space_factory
        self._extra_spaces = dict(extra_spaces or {})
        self._host = host
        self._max_frame_bytes = max_frame_bytes
        self._max_inflight = max_inflight
        self._request_timeout = request_timeout
        self._spawn_timeout = spawn_timeout
        # The front door's own replica: answers ``.space`` /
        # ``get_space`` reads locally and validates every churn batch
        # before any worker sees it.
        self._mirror = space_factory()
        self._mirrors: dict[str, Space] = {"default": self._mirror}
        for name, factory in self._extra_spaces.items():
            self._mirrors[name] = factory()
        self._closed = False
        # Every accepted churn batch, in order — the catch-up feed a
        # late-spawned worker replays so its factory-built replica
        # reaches the cluster's live POI set (and epoch count).
        self._churn_log: list[tuple[tuple, tuple, Optional[str]]] = []
        # Live workers, and every worker ever spawned (exit codes
        # outlive a remove_shard).
        self._processes: dict[int, multiprocessing.process.BaseProcess] = {}
        self._all_processes: dict[int, multiprocessing.process.BaseProcess] = {}
        self._shards = self._spawn_workers(range(num_shards))

    def _spawn_workers(
        self, shard_ids: Sequence[int]
    ) -> dict[int, RemoteBackend]:
        """Boot one worker process per id and connect to each; returns
        ``{id: backend}``.  All-or-nothing: a worker failing to start
        terminates every sibling spawned by this call."""
        ctx = multiprocessing.get_context("spawn")
        ready_queue = ctx.Queue()
        processes: dict[int, multiprocessing.process.BaseProcess] = {}
        for shard_id in shard_ids:
            process = ctx.Process(
                target=_worker_main,
                args=(
                    shard_id,
                    self._space_factory,
                    self._extra_spaces,
                    self.batched,
                    self._host,
                    ready_queue,
                    self._max_frame_bytes,
                    self._max_inflight,
                    self._request_timeout,
                ),
                daemon=True,
                name=f"mpn-worker-{shard_id}",
            )
            process.start()
            log.info("worker %d spawned (pid %s)", shard_id, process.pid)
            processes[shard_id] = process
        addresses: dict[int, tuple[str, int]] = {}
        try:
            for _ in shard_ids:
                shard_id, payload = ready_queue.get(
                    timeout=self._spawn_timeout
                )
                if isinstance(payload, Exception):
                    raise RuntimeError(
                        f"worker {shard_id} failed to start: {payload}"
                    ) from payload
                addresses[shard_id] = tuple(payload)
                log.info("worker %d ready on %s:%d", shard_id, *payload)
        except Exception:
            for process in processes.values():
                if process.is_alive():
                    process.terminate()
                process.join(timeout=10)
            raise
        self._processes.update(processes)
        self._all_processes.update(processes)
        # Every shard backend shares the front door's mirrors (regions
        # decode against them) but must NOT apply churn to them — the
        # front door applies each batch to the mirror exactly once.
        return {
            shard_id: RemoteBackend(
                *addresses[shard_id],
                spaces=self._mirrors,
                max_frame_bytes=self._max_frame_bytes,
                mirror_updates=False,
            )
            for shard_id in shard_ids
        }

    # ------------------------------------------------------------------
    # Where a shard lives: in a worker process, across a connection
    # ------------------------------------------------------------------

    def _new_shard(self, shard_id: int) -> RemoteBackend:
        (backend,) = self._spawn_workers([shard_id]).values()
        for adds, removes, space in self._churn_log:
            backend.update_pois(adds=adds, removes=removes, space=space)
        return backend

    def _session_size(self, shard: RemoteBackend, session_id: int) -> int:
        return shard.session_size(session_id)

    def _submit_wave(self, shard: RemoteBackend, events: list[ReportEvent]):
        return shard.submit_report_many(events)

    def _apply_churn(self, adds, removes, name) -> None:
        super()._apply_churn(adds, removes, name)  # the mirror
        self._churn_log.append((adds, removes, name))

    def _submit_churn(self, shard: RemoteBackend, adds, removes, space):
        return shard.submit_update_pois(adds, removes, space)

    # ------------------------------------------------------------------
    # Lifecycle: close, reshard, drain
    # ------------------------------------------------------------------

    def close(self, timeout: float = 30.0, raise_on_error: bool = True) -> None:
        """Drain-and-stop every worker, then join the processes.

        Idempotent — the second call is a no-op.  A worker that
        outlives ``timeout`` is terminated; terminated or non-zero
        exits are raised as :class:`WorkerShutdownError` (carrying the
        per-shard exit codes) unless ``raise_on_error`` is false.
        """
        if self._closed:
            return
        self._closed = True
        late_ack: Optional[Exception] = None
        for shard in self._shards.values():
            try:
                shard.shutdown_server()
            except (ConnectionError, OSError):  # pragma: no cover
                pass
            except Exception as exc:
                # A parked close ack that failed surfaces on this, the
                # connection's last call; every worker still drains.
                late_ack = late_ack or exc
            shard.close()
        failed: dict[int, Optional[int]] = {}
        for shard_id in sorted(self._processes):
            _reap(shard_id, self._processes[shard_id], timeout, failed)
        if failed and raise_on_error:
            raise WorkerShutdownError(failed)
        if late_ack is not None and raise_on_error:
            raise late_ack

    def __enter__(self) -> "ProcessCluster":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # A shutdown report must not mask an exception already in
        # flight; on the clean path it raises like a direct close().
        self.close(raise_on_error=exc_type is None)

    def worker_exitcodes(self) -> list[Optional[int]]:
        """Exit codes of every worker ever spawned, in shard-id order —
        retired shards included; all zero after graceful drains."""
        return [
            self._all_processes[shard_id].exitcode
            for shard_id in sorted(self._all_processes)
        ]

    def add_shard(self) -> int:
        """Grow the cluster by one **worker process**, migrating live
        (see the module docstring).  Returns the new shard's id."""
        if self._closed:
            raise RuntimeError("cluster is closed")
        return super().add_shard()

    def remove_shard(self, shard_id: int, timeout: float = 30.0) -> None:
        """Retire one worker process, migrating its sessions out first.

        The worker then drains gracefully; a terminated or non-zero
        exit raises :class:`WorkerShutdownError` *after* the topology
        change — the cluster keeps serving on the survivors either way.
        """
        if self._closed:
            raise RuntimeError("cluster is closed")
        retiring = self.shard(shard_id)
        super().remove_shard(shard_id)
        try:
            retiring.shutdown_server()
        except (ConnectionError, OSError):  # pragma: no cover
            pass
        retiring.close()
        failed: dict[int, Optional[int]] = {}
        _reap(shard_id, self._processes.pop(shard_id), timeout, failed)
        if failed:  # pragma: no cover - drain failures
            raise WorkerShutdownError(failed)

    # ------------------------------------------------------------------
    # Spaces (the front door's mirrors) and per-worker reads
    # ------------------------------------------------------------------

    @property
    def space(self) -> Space:
        return self._mirror

    def get_space(self, name: str = "default") -> Space:
        try:
            return self._mirrors[name]
        except KeyError:
            raise ValueError(
                f"no mirror for space {name!r}; build the cluster with "
                "extra_spaces={...}"
            ) from None

    def space_names(self) -> list[str]:
        return sorted(self._mirrors)

    def worker_epochs(self, name: str = "default") -> list[object]:
        """Each worker's published epoch for the named shared space."""
        return [shard.space_epoch(name) for shard in self.shards]

    def server_stats(self) -> list[dict]:
        """Each worker's transport-level stats, in shard-id order."""
        return [shard.server_stats() for shard in self.shards]
