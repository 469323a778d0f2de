"""Message and packet accounting (Section 7.1, "Measures").

"A packet contains at most (576 - 40) / 8 = 67 (double-precision)
values since the typical maximum transmission unit (MTU) over a network
is 576 bytes and a packet has a 40-byte header."  Shapes cost: 3 values
per circle, 3 per square, 4 per rectangle; tile regions ship in the
compressed form of :mod:`repro.core.compression`.

Both measures are a function of the protocol *event* (Fig. 3), so the
ledger (:meth:`~repro.simulation.metrics.SimulationMetrics.charge_round`)
takes a whole round as plain integers rather than one :class:`Message`
at a time.  In a group of ``m`` with per-member region sizes ``v_i``:

* registration: ``m`` location updates up (``m`` packets);
* an escape: the trigger's update plus ``m - 1`` probe replies up
  (``m`` messages, ``m`` packets), ``m - 1`` probe requests down (one
  packet each, an empty payload still costs a header);
* every recomputation: ``m`` notifications down carrying
  ``POINT_VALUES + v_i`` values, i.e. ``sum(notify_packets(v_i))``
  packets and ``sum(v_i)`` region values.

:class:`Message`, the factories below and ``record_message`` stay as the
protocol's vocabulary and as the message-by-message reference
``tests/test_round_accounting.py`` replays the closed form against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

MTU_BYTES = 576
HEADER_BYTES = 40
VALUE_BYTES = 8
VALUES_PER_PACKET = (MTU_BYTES - HEADER_BYTES) // VALUE_BYTES  # 67

LOCATION_VALUES = 2  # (x, y)
POINT_VALUES = 2  # the optimal meeting point in a notification
CIRCLE_VALUES = 3
SQUARE_VALUES = 3
RECT_VALUES = 4


class MessageKind(Enum):
    """The three message types of Fig. 3, plus the periodic baseline's."""

    LOCATION_UPDATE = "location_update"  # step 1 and probe replies
    PROBE_REQUEST = "probe_request"  # step 2, server -> client
    RESULT_NOTIFY = "result_notify"  # step 3, server -> client
    PERIODIC_REPORT = "periodic_report"  # baseline without safe regions


@dataclass(frozen=True, slots=True)
class Message:
    """One message with its payload size in values."""

    kind: MessageKind
    values: int
    upstream: bool  # True: client -> server

    @property
    def packets(self) -> int:
        return packets_for_values(self.values)


def packets_for_values(values: int) -> int:
    """TCP packets needed for a payload of ``values`` doubles (min 1)."""
    if values < 0:
        raise ValueError("negative payload")
    return max(1, math.ceil(values / VALUES_PER_PACKET))


def notify_packets(region_values: int) -> int:
    """Packets of one result notification: the point plus one region."""
    return packets_for_values(POINT_VALUES + region_values)


LOCATION_UPDATE_PACKETS = packets_for_values(LOCATION_VALUES)
PROBE_REQUEST_PACKETS = packets_for_values(0)


def location_update() -> Message:
    return Message(MessageKind.LOCATION_UPDATE, LOCATION_VALUES, upstream=True)


def probe_request() -> Message:
    return Message(MessageKind.PROBE_REQUEST, 0, upstream=False)


def result_notify(region_values: int) -> Message:
    """Step 3: the meeting point plus one safe region."""
    return Message(
        MessageKind.RESULT_NOTIFY, POINT_VALUES + region_values, upstream=False
    )


def periodic_report() -> Message:
    return Message(MessageKind.PERIODIC_REPORT, LOCATION_VALUES, upstream=True)


def periodic_reply() -> Message:
    return Message(MessageKind.RESULT_NOTIFY, POINT_VALUES, upstream=False)
