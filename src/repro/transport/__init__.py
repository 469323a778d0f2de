"""Serving over the wire: the paper's protocol on a real TCP socket.

After six PRs of in-process growth, this package is the deployment
layer: the envelopes of :mod:`repro.service.api` framed as
length-prefixed JSON over TCP, served by asyncio, consumed by a
drop-in remote backend, and scaled out to one worker *process* per
shard.

* :mod:`repro.transport.framing` — the frame protocol (4-byte
  big-endian length + UTF-8 JSON) with async and blocking codecs, and
  the failure taxonomy (oversized = close, malformed body = report and
  continue, partial = end-of-stream).
* :mod:`repro.transport.server` — :class:`WireServer`, serving any
  ``ServiceBackend.dispatch`` with per-connection backpressure,
  frame-size limits, request timeouts, error envelopes and graceful
  drain; :class:`ThreadedWireServer` runs one on a background thread
  for in-process deployments (tests, benchmarks, examples).
* :mod:`repro.transport.client` — :class:`RemoteBackend`, a
  ``ServiceBackend`` whose methods speak TCP; every existing fleet
  driver (``run_service`` included) runs unchanged against it.
  :class:`WireClient` is the raw caller.
* :mod:`repro.transport.worker` — :class:`ProcessCluster`: each shard
  an OS process serving its replica through the wire, behind the same
  front door as :class:`repro.cluster.MPNCluster`
  (:class:`repro.cluster.cluster.ShardedFrontDoor`) — with bit-identical
  answers, proven by ``tests/test_wire_equivalence.py``.  ``add_shard`` /
  ``remove_shard`` reshape the worker fleet live, migrating sessions
  by snapshot without disturbing a single notification
  (``tests/test_elastic_equivalence.py``); a worker that fails to
  drain surfaces as :class:`WorkerShutdownError`.
* ``python -m repro.transport.serve`` — a small CLI that builds a
  demo service and serves it (used by the CI transport smoke job).
"""

from repro.transport.client import (
    ControlError,
    RemoteBackend,
    WireClient,
)
from repro.transport.framing import (
    DEFAULT_MAX_FRAME_BYTES,
    ConnectionClosed,
    FrameDecodeError,
    FrameTooLargeError,
    SyncFrameStream,
    TransportError,
    connect_stream,
    decode_body,
    encode_frame,
    read_frame,
    write_frame,
)
from repro.transport.server import (
    DEFAULT_MAX_INFLIGHT,
    ThreadedWireServer,
    WireServer,
)
from repro.transport.worker import (
    GridNetworkSpaceFactory,
    ProcessCluster,
    UniformPoiSpaceFactory,
    WorkerShutdownError,
)

__all__ = [
    "TransportError",
    "ConnectionClosed",
    "FrameTooLargeError",
    "FrameDecodeError",
    "DEFAULT_MAX_FRAME_BYTES",
    "DEFAULT_MAX_INFLIGHT",
    "SyncFrameStream",
    "connect_stream",
    "decode_body",
    "encode_frame",
    "read_frame",
    "write_frame",
    "WireServer",
    "ThreadedWireServer",
    "WireClient",
    "ControlError",
    "RemoteBackend",
    "ProcessCluster",
    "WorkerShutdownError",
    "UniformPoiSpaceFactory",
    "GridNetworkSpaceFactory",
]
