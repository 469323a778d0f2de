"""The serving layer: sessions, events and pluggable region strategies.

This package is the public API for deploying the paper's protocol:

* :mod:`repro.service.strategies` — the safe-region strategy registry
  (``register_strategy`` / ``get_strategy``); Circle-MSR, Tile-MSR and
  the periodic baseline ship pre-registered, new methods plug in by
  name.
* :mod:`repro.service.service` — :class:`MPNService`, the
  session-oriented facade: ``open_session`` / ``report`` /
  ``update_pois`` with per-session and service-wide metrics, plus the
  batched fleet path (``report_many`` / ``recompute_many``) that
  serves whole waves of escape events through the strategies'
  vectorized ``build_regions_batch`` hooks
  (:class:`~repro.service.strategies.BatchableSafeRegionStrategy`).
* :mod:`repro.service.messages` — the typed envelopes crossing the
  service boundary (``MemberState``, ``ReportEvent``, ``Notification``,
  ``SessionHandle``).
* :mod:`repro.service.api` — the transport-ready surface: versioned,
  JSON-safe request/response envelopes (one dataclass per operation),
  the :class:`~repro.service.api.ServiceBackend` protocol
  (``dispatch(request) -> Response``) that ``MPNService`` and
  :class:`repro.cluster.MPNCluster` both implement, and the shared
  dispatch router.

The trajectory drivers in :mod:`repro.simulation` play fleets against
this layer through one ``report_many`` tick loop
(:func:`repro.simulation.run_service`).
"""

# Load the simulation layer first.  Its leaf modules (messages,
# metrics, policies) sit below this package, while its drivers (engine,
# adaptive) sit above it; importing the package up front
# makes either entry point (`import repro.service` or
# `import repro.simulation`) resolve the cross-package imports in a
# fully-initialized order.
import repro.simulation  # noqa: F401  (imported for its side effect)

from repro.service.errors import (
    EnvelopeError,
    MalformedEnvelopeError,
    SchemaVersionError,
    ServiceError,
    UnknownSessionError,
    UnknownSpaceError,
    UnknownStrategyError,
)
from repro.service.api import (
    ERROR_CODES,
    SCHEMA_VERSION,
    CloseSessionRequest,
    CloseSessionResponse,
    ErrorResponse,
    NotificationPayload,
    OpenSessionRequest,
    OpenSessionResponse,
    ReportManyRequest,
    ReportManyResponse,
    ReportRequest,
    ReportResponse,
    Request,
    Response,
    ServiceBackend,
    ServiceSnapshot,
    SessionSnapshot,
    UpdateLocationsRequest,
    UpdateLocationsResponse,
    UpdatePoisRequest,
    UpdatePoisResponse,
    UpdatePolicyRequest,
    UpdatePolicyResponse,
    dispatch_request,
    error_response_for,
    raise_error_response,
    request_from_dict,
    response_from_dict,
)
from repro.service.regions import decode_region, encode_region
from repro.service.messages import (
    MemberState,
    Notification,
    ReportEvent,
    SessionHandle,
)
from repro.service.session import ServiceSession, sum_verify_regions
from repro.service.service import MPNService
from repro.service.strategies import (
    BatchableSafeRegionStrategy,
    CircleMSRStrategy,
    PeriodicStrategy,
    SafeRegionStrategy,
    StrategyResult,
    TileMSRStrategy,
    available_strategies,
    get_strategy,
    register_strategy,
    unregister_strategy,
)

__all__ = [
    "ServiceError",
    "UnknownSessionError",
    "UnknownSpaceError",
    "UnknownStrategyError",
    "EnvelopeError",
    "SchemaVersionError",
    "MalformedEnvelopeError",
    "SCHEMA_VERSION",
    "ServiceBackend",
    "Request",
    "Response",
    "OpenSessionRequest",
    "OpenSessionResponse",
    "ReportRequest",
    "ReportResponse",
    "ReportManyRequest",
    "ReportManyResponse",
    "UpdateLocationsRequest",
    "UpdateLocationsResponse",
    "UpdatePoisRequest",
    "UpdatePoisResponse",
    "UpdatePolicyRequest",
    "UpdatePolicyResponse",
    "CloseSessionRequest",
    "CloseSessionResponse",
    "NotificationPayload",
    "SessionSnapshot",
    "ServiceSnapshot",
    "ErrorResponse",
    "ERROR_CODES",
    "error_response_for",
    "raise_error_response",
    "encode_region",
    "decode_region",
    "dispatch_request",
    "request_from_dict",
    "response_from_dict",
    "MemberState",
    "ReportEvent",
    "Notification",
    "SessionHandle",
    "ServiceSession",
    "sum_verify_regions",
    "MPNService",
    "SafeRegionStrategy",
    "BatchableSafeRegionStrategy",
    "StrategyResult",
    "CircleMSRStrategy",
    "TileMSRStrategy",
    "PeriodicStrategy",
    "register_strategy",
    "unregister_strategy",
    "get_strategy",
    "available_strategies",
]
