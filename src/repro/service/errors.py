"""Errors raised by the serving layer.

Both errors subclass :class:`KeyError`: an unknown session id or
strategy name is a failed lookup, so a caller's ``except KeyError``
handler catches either.
"""

from __future__ import annotations


class ServiceError(Exception):
    """Base class for serving-layer errors."""


class UnknownSessionError(ServiceError, KeyError):
    """A session id that the service does not know about."""

    def __init__(self, session_id: object):
        super().__init__(session_id)
        self.session_id = session_id

    def __str__(self) -> str:
        return f"unknown session {self.session_id!r}"


class UnknownStrategyError(ServiceError, KeyError):
    """A safe-region strategy name absent from the registry."""

    def __init__(self, name: object, available: tuple[str, ...] = ()):
        super().__init__(name)
        self.name = name
        self.available = available

    def __str__(self) -> str:
        hint = f"; registered: {', '.join(self.available)}" if self.available else ""
        return f"unknown safe-region strategy {self.name!r}{hint}"


class UnknownSpaceError(ServiceError, KeyError):
    """A space name absent from the backend's space registry."""

    def __init__(self, name: object, available: tuple[str, ...] = ()):
        super().__init__(name)
        self.name = name
        self.available = available

    def __str__(self) -> str:
        hint = f"; registered: {', '.join(self.available)}" if self.available else ""
        return f"unknown space {self.name!r}{hint}"


class EnvelopeError(ServiceError):
    """A request/response envelope cannot cross the wire as asked.

    Raised by ``to_dict`` when an envelope holds in-process-only state
    (a live space object, a non-scalar POI payload) and by the codecs
    when a value has no wire form.
    """


class SchemaVersionError(EnvelopeError):
    """An envelope dict carries a schema version this build can't serve."""

    def __init__(self, version: object, supported: int):
        super().__init__(version)
        self.version = version
        self.supported = supported

    def __str__(self) -> str:
        return (
            f"unsupported envelope schema version {self.version!r} "
            f"(this build speaks version {self.supported})"
        )


class MalformedEnvelopeError(EnvelopeError):
    """An envelope dict is structurally broken (bad op, missing fields,
    values of the wrong shape)."""
