"""The asyncio wire server: any ``ServiceBackend`` behind a TCP port.

:class:`WireServer` serves the :mod:`repro.service.api` envelopes over
the length-prefixed JSON framing of :mod:`repro.transport.framing`.
It is backend-agnostic by construction — anything with
``dispatch(request) -> response`` works, so a single
:class:`repro.service.MPNService`, an in-process
:class:`repro.cluster.MPNCluster`, or one shard of a
multi-process :class:`repro.transport.ProcessCluster` all sit behind
the identical wire.

Concurrency model
-----------------

Every ``dispatch`` — and every control op that reads backend state —
runs **on the event-loop thread**, the one that read the request's
bytes: no hand-off to a second thread and back (two futex wakes and two
GIL hand-overs, ~0.2 ms of what was a ~1 ms ``open_session``
round-trip).  The loop thread serializes backend access by itself (the
serving stack is synchronous, deliberately — exactness proofs care
about event order).
Requests from *one* connection are answered in arrival order; requests
from different connections interleave at dispatch granularity, exactly
like threads contending for one service lock.  The price: **while a
dispatch runs nothing else on this server moves** — other connections'
bytes wait in the kernel, and a ``ping`` is answered after the
dispatch, not during it.

Only ``request_timeout`` changes that.  Answering ``timeout`` while the
work is still running needs a second thread by definition, so a server
built with one dispatches on a single-worker ``wire-dispatch`` thread
pool instead (the same serialization, plus the hop) and its loop stays
free to read, write and time out other connections meanwhile.

Degradation knobs
-----------------

* ``max_inflight`` — per-connection bound on decoded-but-unanswered
  requests.  When a client pipelines past it the server simply stops
  reading that connection until answers drain, which surfaces to the
  peer as TCP backpressure; ``stats.backpressure_waits`` counts how
  often that brake engaged.
* ``max_frame_bytes`` — per-frame byte limit, both directions.  An
  oversized *incoming* frame is unrecoverable (the bytes were never
  read), so the connection gets one ``frame_too_large`` error frame
  with ``"id": null`` and closes; an oversized *outgoing* response is
  the server's own fault and is reported as an ``internal`` error on
  the request's id, connection kept.
* ``request_timeout`` — seconds before an in-flight dispatch is
  answered with a ``timeout`` :class:`~repro.service.api.ErrorResponse`.
  The synchronous backend work itself is not cancellable — the worker
  thread finishes (its result is discarded) and later requests queue
  behind it; the timeout bounds the *caller's* wait, not the server's
  work.  Setting it is what selects the executor (above): the bound
  costs every request the thread hop, ~0.2 ms.

Failures a request can cause — bad envelopes, unknown sessions, bad
removals, strategy exceptions — come back as
:class:`~repro.service.api.ErrorResponse` envelopes on that request's
id; the connection (and every sibling session) keeps working.  Frames
whose body is not valid JSON are answered with ``"id": null`` and the
connection keeps reading (framing stayed intact).

Shutdown (:meth:`WireServer.stop`) drains: the listener closes first,
idle connections close at once, and a connection with requests in
flight stays open until every one of them is answered — a frame that
arrives on it meanwhile is answered ``shutting_down`` on its id and
never dispatched.  The ``shutdown`` control op triggers the same path
remotely after acknowledging.

Lifecycle events (listening, drain begin / end, a fired timeout, a
refused frame) go to the ``repro.transport`` logger; nothing is logged
per request.
"""

from __future__ import annotations

import asyncio
import contextlib
import logging
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

from repro.service.api import (
    ErrorResponse,
    ServiceSnapshot,
    SessionSnapshot,
    encode_record,
    error_response_for,
    request_from_dict,
)
from repro.transport.framing import (
    DEFAULT_MAX_FRAME_BYTES,
    ConnectionClosed,
    FrameDecodeError,
    FrameTooLargeError,
    read_frame,
    write_frame,
)

DEFAULT_MAX_INFLIGHT = 32

log = logging.getLogger("repro.transport")


def _frame_id(frame: object) -> Optional[int]:
    frame_id = frame.get("id") if isinstance(frame, dict) else None
    return frame_id if isinstance(frame_id, int) else None


class _Connection:
    """Book-keeping for one accepted client connection."""

    def __init__(self, writer: asyncio.StreamWriter, max_inflight: int):
        self.writer = writer
        self.write_lock = asyncio.Lock()  # frames must not interleave
        self.inflight = asyncio.Semaphore(max_inflight)
        self.tasks: set[asyncio.Task] = set()
        # The _handle_connection task this is built in; the drain
        # waits for it.
        self.handler = asyncio.current_task()

    async def send(self, frame: dict, max_bytes: int) -> None:
        async with self.write_lock:
            await write_frame(self.writer, frame, max_bytes)


class WireServer:
    """Serve one ``ServiceBackend`` over TCP.  See the module docstring."""

    def __init__(
        self,
        backend,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        request_timeout: Optional[float] = None,
    ):
        if max_inflight < 1:
            raise ValueError("max_inflight must be at least 1")
        self.backend = backend
        self.host = host
        self.port = port
        self.max_frame_bytes = max_frame_bytes
        self.max_inflight = max_inflight
        self.request_timeout = request_timeout
        self.backpressure_waits = 0
        self.requests_served = 0
        self.errors_sent = 0
        self._server: Optional[asyncio.base_events.Server] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._connections: set[_Connection] = set()
        self._stopping = False
        self._stopped = asyncio.Event()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` — read after :meth:`start`."""
        if self._server is None:
            raise RuntimeError("server is not started")
        return self._server.sockets[0].getsockname()[:2]

    async def start(self) -> tuple[str, int]:
        if self._server is not None:
            raise RuntimeError("server is already started")
        if self.request_timeout is not None:
            # Answering ``timeout`` while the work still runs takes a
            # second thread; nothing else does (see the module
            # docstring's concurrency model).
            self._executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="wire-dispatch"
            )
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self.address[1]
        log.info(
            "listening on %s:%d, dispatch=%s",
            *self.address,
            "loop-thread"
            if self._executor is None
            else f"executor, timeout={self.request_timeout}s",
        )
        return self.address

    async def serve_forever(self) -> None:
        """Block until :meth:`stop` (or the ``shutdown`` control op)."""
        if self._server is None:
            await self.start()
        await self._stopped.wait()

    async def stop(self) -> None:
        """Graceful drain: stop accepting, finish in-flight, close."""
        if self._stopping:
            await self._stopped.wait()
            return
        self._stopping = True
        log.info("drain begins: %d connection(s) open", len(self._connections))
        if self._server is not None:
            self._server.close()
            await asyncio.gather(*map(self._drain, list(self._connections)))
            await self._server.wait_closed()
        if self._executor is not None:
            self._executor.shutdown(wait=True)
        log.info("drain ends: %d request(s) served", self.requests_served)
        self._stopped.set()

    async def _drain(self, conn: _Connection) -> None:
        # A frame decoded just before the drain began may become a task
        # after this wait started, so wait until none is left.
        while conn.tasks:
            await asyncio.wait(conn.tasks)
        conn.writer.close()
        # Its handler sees end-of-stream, closes up and returns.
        await asyncio.wait([conn.handler])

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Connection(writer, self.max_inflight)
        self._connections.add(conn)
        try:
            await self._read_loop(reader, conn)
        finally:
            if conn.tasks:
                await asyncio.gather(*conn.tasks, return_exceptions=True)
            self._connections.discard(conn)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _read_loop(
        self, reader: asyncio.StreamReader, conn: _Connection
    ) -> None:
        while True:
            try:
                frame = await read_frame(reader, self.max_frame_bytes)
            except ConnectionClosed:
                return
            except FrameTooLargeError as exc:
                # The oversized bytes were never read; no way to resync.
                await self._send_error(conn, None, exc, code="frame_too_large")
                return
            except FrameDecodeError as exc:
                # Framing intact: report and keep reading.
                await self._send_error(conn, None, exc, code="malformed_envelope")
                continue
            except (ConnectionError, OSError):
                return
            if self._stopping:
                # The drain keeps this connection open for its in-flight
                # work only: refuse the late frame, never dispatch it.
                log.warning("refused a frame that arrived during the drain")
                await self._send_error(
                    conn,
                    _frame_id(frame),
                    ConnectionError("server is shutting down"),
                    code="shutting_down",
                )
                continue
            # Backpressure: stop reading this connection while it has
            # max_inflight unanswered requests.
            if conn.inflight.locked():
                self.backpressure_waits += 1
            await conn.inflight.acquire()
            task = asyncio.ensure_future(self._serve_frame(conn, frame))
            conn.tasks.add(task)
            task.add_done_callback(conn.tasks.discard)

    async def _send_error(
        self,
        conn: _Connection,
        frame_id: object,
        exc: BaseException,
        code: Optional[str] = None,
    ) -> None:
        error = error_response_for(exc)
        if code is not None:
            error = ErrorResponse(
                code=code, message=error.message, details=error.details
            )
        self.errors_sent += 1
        with contextlib.suppress(ConnectionError, OSError):
            await conn.send(
                {"id": frame_id, "response": error.to_dict()},
                self.max_frame_bytes,
            )

    async def _serve_frame(self, conn: _Connection, frame: object) -> None:
        try:
            if not isinstance(frame, dict):
                await self._send_error(
                    conn,
                    None,
                    ValueError(f"frame must be a JSON object, got {frame!r}"),
                    code="malformed_envelope",
                )
                return
            frame_id = _frame_id(frame)
            try:
                if "request" in frame:
                    payload = await self._serve_request(frame["request"])
                    reply = {"id": frame_id, "response": payload}
                elif "control" in frame:
                    payload = await self._serve_control(frame["control"])
                    reply = {"id": frame_id, "result": payload}
                else:
                    raise ValueError(
                        "frame carries neither 'request' nor 'control'"
                    )
            except BaseException as exc:  # noqa: BLE001 - becomes an envelope
                await self._send_error(conn, frame_id, exc)
                return
            if isinstance(payload, dict) and payload.get("op") == "error":
                self.errors_sent += 1
            self.requests_served += 1
            try:
                await conn.send(reply, self.max_frame_bytes)
            except FrameTooLargeError as exc:
                await self._send_error(conn, frame_id, exc, code="internal")
            except (ConnectionError, OSError):
                pass  # client went away; nothing left to tell it
        finally:
            conn.inflight.release()

    # ------------------------------------------------------------------
    # Request + control dispatch
    # ------------------------------------------------------------------

    async def _dispatch_blocking(self, fn, *args):
        """The one door to the backend, and the one place that picks its
        thread: this one, unless a ``request_timeout`` must be kept."""
        if self.request_timeout is None:
            return fn(*args)
        future = asyncio.get_running_loop().run_in_executor(
            self._executor, fn, *args
        )
        try:
            return await asyncio.wait_for(
                asyncio.shield(future), self.request_timeout
            )
        except asyncio.TimeoutError:
            # The worker thread cannot be interrupted; the result is
            # discarded when it eventually lands.
            log.warning(
                "a dispatch outlived the %ss request timeout; it runs on",
                self.request_timeout,
            )
            raise TimeoutError(
                f"request exceeded the {self.request_timeout}s server timeout"
            ) from None

    async def _serve_request(self, envelope: object) -> dict:
        """One request envelope -> one response envelope (dict form)."""
        try:
            request = request_from_dict(envelope)
        except Exception as exc:
            return error_response_for(exc).to_dict()
        try:
            response = await self._dispatch_blocking(
                self.backend.dispatch, request
            )
            return response.to_dict()
        except TimeoutError as exc:
            return error_response_for(exc).to_dict()
        except Exception as exc:
            return error_response_for(exc).to_dict()

    async def _serve_control(self, control: object) -> object:
        """The out-of-band surface: metrics, liveness, shutdown.

        Control operations mirror the backend accessors a fleet driver
        reads around the envelope API (``metrics``,
        ``session_metrics``, …).  They go through the same door as
        requests (:meth:`_dispatch_blocking`), so a control read never
        observes a half-applied wave.
        """
        if not isinstance(control, dict) or "op" not in control:
            raise ValueError(f"malformed control frame: {control!r}")
        op = control["op"]
        if op == "ping":
            return {"ok": True}
        if op == "shutdown":
            # Acknowledge first, then drain in the background; the
            # in-flight bookkeeping keeps this reply ordered before the
            # connection closes.
            asyncio.ensure_future(self.stop())
            return {"ok": True}
        if op == "stats":
            stats = {
                "sessions": len(
                    await self._dispatch_blocking(self.backend.session_ids)
                ),
                "connections": len(self._connections),
                "max_inflight": self.max_inflight,
                "backpressure_waits": self.backpressure_waits,
                "requests_served": self.requests_served,
                "errors_sent": self.errors_sent,
            }
            oracle_stats = getattr(self.backend, "oracle_stats", None)
            if oracle_stats is not None:
                # Road-network backends: the distance oracle's
                # row-cache / landmark counters, per space name.
                stats["oracle"] = await self._dispatch_blocking(oracle_stats)
            return stats
        if op == "metrics":
            metrics = await self._dispatch_blocking(
                lambda: self.backend.metrics
            )
            return encode_record(metrics)
        if op == "session_metrics":
            metrics = await self._dispatch_blocking(
                self.backend.session_metrics, int(control["session_id"])
            )
            return encode_record(metrics)
        if op == "session_ids":
            return await self._dispatch_blocking(self.backend.session_ids)
        if op == "space_names":
            return await self._dispatch_blocking(self.backend.space_names)
        if op == "space_epoch":
            def epoch():
                space = self.backend.get_space(control.get("space", "default"))
                return getattr(space, "epoch", None)

            return {"epoch": await self._dispatch_blocking(epoch)}
        if op == "export_session":
            # Session migration, source side: the full session state as
            # a snapshot envelope.  A read — the session
            # keeps serving here until the front door closes it.
            snapshot = await self._dispatch_blocking(
                self.backend.export_session, int(control["session_id"])
            )
            return snapshot.to_dict()
        if op == "import_session":
            # Session migration, target side: install the snapshot
            # verbatim — no recomputation, no metric charges — so a
            # migrated fleet's notification stream cannot tell.
            snapshot = SessionSnapshot.from_dict(control["snapshot"])
            await self._dispatch_blocking(
                self.backend.import_session, snapshot
            )
            return {"ok": True, "session_id": snapshot.session_id}
        if op == "snapshot":
            snapshot = await self._dispatch_blocking(self.backend.snapshot)
            return snapshot.to_dict()
        if op == "restore":
            snapshot = ServiceSnapshot.from_dict(control["snapshot"])
            restored = await self._dispatch_blocking(
                self.backend.restore, snapshot
            )
            return {"ok": True, "session_ids": list(restored)}
        raise ValueError(f"unknown control op {op!r}")


class ThreadedWireServer:
    """A :class:`WireServer` on a background thread — the in-process
    deployment used by tests, benchmarks and examples.

    Runs its own event loop on a daemon thread, starts the server,
    exposes the bound address, and joins cleanly::

        with ThreadedWireServer(MPNService(space)) as server:
            backend = RemoteBackend(*server.address)
            ...

    The backend is called on that thread (``wire-server``; on
    ``wire-dispatch`` when a ``request_timeout`` is passed), never on
    the caller's.  ``stop()`` (or leaving the ``with`` block) runs the
    same graceful drain as :meth:`WireServer.stop`.
    """

    def __init__(self, backend, **kwargs):
        self.server = WireServer(backend, **kwargs)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._serving: Optional[asyncio.Task] = None  # None once exiting
        self._exit_lock = threading.Lock()
        self.address: Optional[tuple[str, int]] = None

    def start(self) -> tuple[str, int]:
        if self._thread is not None:
            raise RuntimeError("server thread is already running")
        self._loop = asyncio.new_event_loop()
        started = threading.Event()
        failure: list[BaseException] = []

        def run() -> None:
            asyncio.set_event_loop(self._loop)
            try:
                self.address = self._loop.run_until_complete(
                    self.server.start()
                )
            except BaseException as exc:  # pragma: no cover - bind failures
                failure.append(exc)
                started.set()
                return
            self._serving = self._loop.create_task(self.server.serve_forever())
            started.set()
            try:
                self._loop.run_until_complete(self._serving)
            except asyncio.CancelledError:
                pass  # stop() asked for the drain
            finally:
                with self._exit_lock:  # stop() schedules nothing from here
                    self._serving = None
                # The drain (already done after the ``shutdown`` op).
                self._loop.run_until_complete(self.server.stop())
                self._loop.run_until_complete(
                    self._loop.shutdown_asyncgens()
                )
                self._loop.close()

        self._thread = threading.Thread(
            target=run, name="wire-server", daemon=True
        )
        self._thread.start()
        started.wait()
        if failure:  # pragma: no cover - bind failures
            self._thread.join()
            self._thread = None
            raise failure[0]
        return self.address

    def stop(self, timeout: float = 30.0) -> None:
        if self._thread is None:
            return
        # Wake the serve thread to drain and close its own loop: a plain
        # callback, harmless if it lands after serving ended, and never
        # scheduled once the loop is closing.
        with self._exit_lock:
            if self._serving is not None:
                self._loop.call_soon_threadsafe(self._serving.cancel)
        self._thread.join(timeout)
        self._thread = None

    def __enter__(self) -> "ThreadedWireServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
