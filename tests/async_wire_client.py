"""A coroutine-side wire caller for the transport tests and benchmarks.

Import it as ``from tests.async_wire_client import AsyncWireClient``
(the repository root must be on ``sys.path``, as under
``python -m pytest``).
"""

from __future__ import annotations

import asyncio
import itertools
from typing import Optional

from repro.service.api import (
    ErrorResponse,
    Request,
    Response,
    raise_error_response,
    response_from_dict,
)
from repro.transport.framing import (
    DEFAULT_MAX_FRAME_BYTES,
    ConnectionClosed,
    read_frame,
    write_frame,
)


class AsyncWireClient:
    """The coroutine-side caller: pipelined requests over one connection.

    Unlike :class:`~repro.transport.client.WireClient` this one
    multiplexes — many coroutines may await :meth:`dispatch`
    concurrently; replies are matched by frame id.  The transport tests
    and the wire micro-benchmarks use it to drive the server's
    backpressure brake from a single process.
    """

    def __init__(self, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES):
        self.max_frame_bytes = max_frame_bytes
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._ids = itertools.count()
        self._pending: dict[int, asyncio.Future] = {}
        self._pump: Optional[asyncio.Task] = None

    async def connect(self, host: str, port: int) -> "AsyncWireClient":
        self._reader, self._writer = await asyncio.open_connection(host, port)
        self._pump = asyncio.ensure_future(self._pump_replies())
        return self

    async def close(self) -> None:
        if self._pump is not None:
            self._pump.cancel()
            try:
                await self._pump
            except (asyncio.CancelledError, Exception):
                pass
            self._pump = None
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._writer = None

    async def _pump_replies(self) -> None:
        try:
            while True:
                reply = await read_frame(self._reader, self.max_frame_bytes)
                if not isinstance(reply, dict):
                    continue
                future = self._pending.pop(reply.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(reply)
        except (ConnectionClosed, ConnectionError, OSError, asyncio.CancelledError) as exc:
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(
                        ConnectionClosed(f"connection lost: {exc!r}")
                    )
            self._pending.clear()

    async def _roundtrip(self, frame: dict) -> dict:
        future = asyncio.get_running_loop().create_future()
        self._pending[frame["id"]] = future
        await write_frame(self._writer, frame, self.max_frame_bytes)
        return await future

    async def dispatch(self, request: Request) -> Response:
        frame = {"id": next(self._ids), "request": request.to_dict()}
        reply = await self._roundtrip(frame)
        return response_from_dict(reply["response"])

    async def call(self, request: Request) -> Response:
        response = await self.dispatch(request)
        if isinstance(response, ErrorResponse):
            raise_error_response(response)
        return response

    async def control(self, op: str, **params: object) -> object:
        frame = {"id": next(self._ids), "control": {"op": op, **params}}
        reply = await self._roundtrip(frame)
        if "response" in reply:
            raise_error_response(ErrorResponse.from_dict(reply["response"]))
        return reply["result"]
