"""Wire protocol of the network front door: framing and event codec.

Two surfaces share one listening socket (see
:class:`repro.serve.server.PipelineServer`):

- the **framed TCP protocol**: the client opens a connection, sends the
  4-byte magic ``RPV1`` once, and from then on both directions exchange
  *frames* -- a 4-byte big-endian unsigned length followed by a UTF-8
  JSON object.  Requests carry an ``op`` (``ingest``, ``metrics``,
  ``ping``, ``bye``) and responses echo it with an ``ok`` flag;
- the **HTTP/1.1 surface** (:mod:`repro.serve.http`): any connection
  whose first bytes are not the magic is parsed as HTTP.

Events travel as compact JSON objects -- ``{"t": type, "s": seq,
"ts": timestamp, "a": attrs}`` -- and round-trip losslessly through
:func:`event_to_wire` / :func:`wire_to_event` (JSON doubles preserve
Python floats exactly), which is what lets detections over the wire
stay bit-identical to an in-process replay.
"""

from __future__ import annotations

import asyncio
import json
from typing import Dict, Iterable, List, Optional, Tuple

from repro.cep.events import Event

#: Connection preamble announcing the framed protocol.
MAGIC = b"RPV1"

#: Hard ceiling on one frame's JSON body (bounded server memory).
MAX_FRAME = 8 * 1024 * 1024


class ProtocolError(Exception):
    """A malformed frame, event or request on the wire."""


# ----------------------------------------------------------------------
# frames
# ----------------------------------------------------------------------
def encode_frame(payload: Dict[str, object]) -> bytes:
    """One wire frame: 4-byte big-endian length + JSON body."""
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME:
        raise ProtocolError(f"frame of {len(body)} bytes exceeds {MAX_FRAME}")
    return len(body).to_bytes(4, "big") + body


async def read_sized_frame(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[Dict[str, object], int]]:
    """Read one frame: the decoded payload and its body length in bytes.

    The length is the one the 4-byte header announced (the header
    itself is not counted); ``None`` on a clean EOF between frames.
    """
    try:
        header = await reader.readexactly(4)
    except (asyncio.IncompleteReadError, ConnectionResetError):
        return None
    length = int.from_bytes(header, "big")
    if length > MAX_FRAME:
        raise ProtocolError(f"frame of {length} bytes exceeds {MAX_FRAME}")
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError("connection closed mid-frame") from exc
    try:
        payload = json.loads(body)
    except ValueError as exc:
        raise ProtocolError(f"frame body is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError("frame body must be a JSON object")
    return payload, length


async def read_frame(reader: asyncio.StreamReader) -> Optional[Dict[str, object]]:
    """Read one frame; ``None`` on a clean EOF between frames."""
    frame = await read_sized_frame(reader)
    return None if frame is None else frame[0]


# ----------------------------------------------------------------------
# event codec
# ----------------------------------------------------------------------
def event_to_wire(event: Event) -> Dict[str, object]:
    """Compact JSON form of one primitive event."""
    wire: Dict[str, object] = {
        "t": event.event_type,
        "s": event.seq,
        "ts": event.timestamp,
    }
    if event.attrs:
        wire["a"] = event.attrs
    return wire


def wire_to_event(obj: object) -> Event:
    """Decode one wire event; raises :class:`ProtocolError` on bad shape."""
    if not isinstance(obj, dict):
        raise ProtocolError(f"event must be a JSON object, got {type(obj).__name__}")
    try:
        event_type = obj["t"]
        seq = obj["s"]
        timestamp = obj["ts"]
    except KeyError as exc:
        raise ProtocolError(f"event missing field {exc.args[0]!r}") from exc
    if not isinstance(event_type, str):
        raise ProtocolError("event type must be a string")
    if not isinstance(seq, int) or isinstance(seq, bool):
        raise ProtocolError("event seq must be an integer")
    if not isinstance(timestamp, (int, float)) or isinstance(timestamp, bool):
        raise ProtocolError("event timestamp must be a number")
    attrs = obj.get("a", {})
    if not isinstance(attrs, dict):
        raise ProtocolError("event attrs must be a JSON object")
    return Event(event_type, seq, float(timestamp), attrs)


def events_to_wire(events: Iterable[Event]) -> List[Dict[str, object]]:
    """Encode a slice of the stream for one ingest request."""
    return [event_to_wire(event) for event in events]


def wire_to_events(objs: object) -> List[Event]:
    """Decode an ingest request's event list, preserving order."""
    if not isinstance(objs, list):
        raise ProtocolError("'events' must be a JSON array")
    return [wire_to_event(obj) for obj in objs]
