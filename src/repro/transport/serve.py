"""``python -m repro.transport.serve`` — serve a demo MPN backend.

Builds a seeded uniform POI space (the same workload generator the
tests use), wraps it in an :class:`~repro.service.MPNService` — or an
in-process :class:`~repro.cluster.MPNCluster` with ``--shards N`` —
and serves it on the wire until a client sends the ``shutdown``
control op (or the process receives SIGINT/SIGTERM).

Prints exactly one line to stdout once the socket is bound::

    listening on 127.0.0.1:41327

so a parent process (the CI smoke job, ``examples/wire_fleet.py``'s
subprocess mode) can pass ``--port 0`` and parse the OS-assigned port.
Exits 0 on a graceful drain — that exit code *is* the CI smoke job's
shutdown assertion.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import signal
import sys

from repro.space import as_space
from repro.transport.server import WireServer
from repro.workloads.poi import build_poi_tree, uniform_pois


def build_backend(pois: int, seed: int, shards: int, batched: bool):
    """The demo backend: uniform POIs on the tests' small world."""
    from repro.geometry.rect import Rect

    world = Rect(0.0, 0.0, 1000.0, 1000.0)
    points = uniform_pois(pois, world, seed=seed)
    if shards <= 1:
        from repro.service.service import MPNService

        return MPNService(as_space(build_poi_tree(points)), batched=batched)
    from repro.cluster import MPNCluster

    return MPNCluster(
        shards,
        lambda: as_space(build_poi_tree(points)),
        batched=batched,
    )


async def _serve(args: argparse.Namespace) -> int:
    backend = build_backend(args.pois, args.seed, args.shards, args.batched)
    server = WireServer(
        backend,
        host=args.host,
        port=args.port,
        max_inflight=args.max_inflight,
        request_timeout=args.request_timeout,
    )
    host, port = await server.start()
    print(f"listening on {host}:{port}", flush=True)
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        # Signal handlers are a nicety, not a requirement: asyncio only
        # installs them from the main thread (RuntimeError otherwise,
        # NotImplementedError on loops without signal support).  A
        # ``main()`` embedded in a worker thread still drains cleanly
        # via the ``shutdown`` control op.
        with contextlib.suppress(NotImplementedError, RuntimeError):
            loop.add_signal_handler(
                signum, lambda: asyncio.ensure_future(server.stop())
            )
    await server.serve_forever()
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.transport.serve",
        description="Serve a demo MPN backend over the wire.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=0, help="0 = OS-assigned (printed)"
    )
    parser.add_argument("--pois", type=int, default=300)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help="serve an in-process MPNCluster with this many shards",
    )
    parser.add_argument(
        "--scalar",
        dest="batched",
        action="store_false",
        help="use the scalar (non-batched) fleet path",
    )
    parser.add_argument(
        "--max-inflight",
        type=int,
        default=32,
        help="per-connection in-flight request bound",
    )
    parser.add_argument(
        "--request-timeout",
        type=float,
        default=None,
        help="seconds before an in-flight dispatch times out (moves "
        "dispatch off the loop thread: ~0.2 ms more per request)",
    )
    args = parser.parse_args(argv)
    return asyncio.run(_serve(args))


if __name__ == "__main__":
    sys.exit(main())
