"""Length-prefixed JSON wire codec for the real-socket backend.

The simulator moves :class:`~repro.sim.events.Message` values through an
in-process event queue; the net backend moves the *same* value type through
TCP streams.  A frame is::

    [4-byte big-endian payload length][UTF-8 JSON payload]

JSON (rather than pickle) because frames cross trust and version boundaries
once peers are separate OS processes or separate hosts: a frame is
inspectable with ``tcpdump``, can never execute code on decode, and stays
readable across interpreter versions.  The 4-byte prefix makes framing
self-delimiting over a byte stream; :data:`MAX_FRAME` bounds what a peer
will buffer for one frame so a corrupt or hostile length prefix cannot OOM
the process.

Two layers:

* **frames** — :func:`pack_frame` / :func:`unpack_frames` (bytes-level, used
  by tests and non-asyncio callers) and :func:`read_frame` /
  :func:`write_frame` (asyncio stream form).  A frame body is any
  JSON-serializable dict.
* **messages** — :func:`encode_message` / :func:`decode_message` map
  :class:`~repro.sim.events.Message` to/from a tagged dict.  Algorithm
  payloads (:class:`~repro.core.messages.RoundMessage`,
  :class:`~repro.core.messages.TimeMessage`,
  :class:`~repro.core.messages.ReadyMessage`) are tagged by ``_type`` so the
  receiving side rebuilds the exact payload dataclass; plain
  ``int``/``float``/``str``/``None`` payloads pass through untagged.

``delivery_time`` is *receiver-assigned* in a real network — the sender
cannot know it — so :func:`encode_message` writes ``null`` and
:func:`decode_message` lets the caller stamp the arrival
(``delivery_time=...``), defaulting to NaN for "not delivered yet".
"""

from __future__ import annotations

import asyncio
import json
import math
import struct
from typing import Any, Dict, List, Optional, Tuple

from ..core.messages import ReadyMessage, RoundMessage, TimeMessage
from ..sim.events import Message, MessageKind

__all__ = [
    "MAX_FRAME",
    "WireError",
    "pack_frame",
    "unpack_frames",
    "read_frame",
    "write_frame",
    "encode_message",
    "decode_message",
]

#: hard per-frame size limit (bytes of JSON payload).  Sync traffic is tiny
#: (~200 bytes/frame); anything near this limit is corruption or abuse.
MAX_FRAME = 1 << 20

_LENGTH = struct.Struct(">I")


class WireError(ValueError):
    """A frame or message failed to encode/decode."""


# ---------------------------------------------------------------------------
# frame layer
# ---------------------------------------------------------------------------

def pack_frame(body: Dict[str, Any]) -> bytes:
    """One wire frame: 4-byte big-endian length + UTF-8 JSON body."""
    data = json.dumps(body, separators=(",", ":"),
                      allow_nan=False).encode("utf-8")
    if len(data) > MAX_FRAME:
        raise WireError(f"frame of {len(data)} bytes exceeds MAX_FRAME "
                        f"({MAX_FRAME})")
    return _LENGTH.pack(len(data)) + data


def unpack_frames(buffer: bytes) -> Tuple[List[Dict[str, Any]], bytes]:
    """Decode every complete frame in ``buffer``; returns (frames, rest).

    ``rest`` is the trailing partial frame (possibly empty) to prepend to
    the next read — the incremental-parse form for non-asyncio transports.
    """
    frames: List[Dict[str, Any]] = []
    offset = 0
    while len(buffer) - offset >= _LENGTH.size:
        (length,) = _LENGTH.unpack_from(buffer, offset)
        if length > MAX_FRAME:
            raise WireError(f"frame length {length} exceeds MAX_FRAME "
                            f"({MAX_FRAME}); corrupt or hostile stream")
        if len(buffer) - offset - _LENGTH.size < length:
            break
        start = offset + _LENGTH.size
        try:
            body = json.loads(buffer[start:start + length].decode("utf-8"))
        except ValueError as err:  # bad UTF-8 or JSON, or a >4300-digit int
            raise WireError(f"undecodable frame body: {err}") from None
        if not isinstance(body, dict):
            raise WireError(f"frame body must be a JSON object, "
                            f"got {type(body).__name__}")
        frames.append(body)
        offset = start + length
    return frames, buffer[offset:]


async def read_frame(reader: asyncio.StreamReader) -> Optional[Dict[str, Any]]:
    """Read one frame from an asyncio stream; ``None`` on clean EOF."""
    try:
        header = await reader.readexactly(_LENGTH.size)
    except (asyncio.IncompleteReadError, ConnectionError):
        return None
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME:
        raise WireError(f"frame length {length} exceeds MAX_FRAME "
                        f"({MAX_FRAME}); corrupt or hostile stream")
    try:
        data = await reader.readexactly(length)
    except (asyncio.IncompleteReadError, ConnectionError):
        return None
    try:
        body = json.loads(data.decode("utf-8"))
    except ValueError as err:  # bad UTF-8 or JSON, or a >4300-digit int
        raise WireError(f"undecodable frame body: {err}") from None
    if not isinstance(body, dict):
        raise WireError(f"frame body must be a JSON object, "
                        f"got {type(body).__name__}")
    return body


async def write_frame(writer: asyncio.StreamWriter,
                      body: Dict[str, Any]) -> None:
    """Write one frame and drain the transport buffer."""
    writer.write(pack_frame(body))
    await writer.drain()


# ---------------------------------------------------------------------------
# message layer
# ---------------------------------------------------------------------------

def _encode_payload(payload: Any) -> Any:
    if payload is None or isinstance(payload, (int, float, str)):
        return payload
    if isinstance(payload, RoundMessage):
        return {"_type": "round", "round_time": payload.round_time}
    if isinstance(payload, TimeMessage):
        return {"_type": "time", "value": payload.value}
    if isinstance(payload, ReadyMessage):
        return {"_type": "ready"}
    raise WireError(f"payload {payload!r} has no wire encoding; supported: "
                    f"RoundMessage, TimeMessage, ReadyMessage, scalars, None")


def _decode_payload(payload: Any) -> Any:
    if not isinstance(payload, dict):
        return payload
    tag = payload.get("_type")
    if tag == "round":
        return RoundMessage(round_time=float(payload["round_time"]))
    if tag == "time":
        return TimeMessage(value=float(payload["value"]))
    if tag == "ready":
        return ReadyMessage()
    raise WireError(f"unknown payload tag {tag!r}")


def encode_message(message: Message) -> Dict[str, Any]:
    """A :class:`Message` as a JSON-ready frame body (``delivery_time`` null:
    in a real network the receiver, not the sender, knows the arrival)."""
    return {
        "kind": message.kind.value,
        "sender": message.sender,
        "recipient": message.recipient,
        "payload": _encode_payload(message.payload),
        "send_time": message.send_time,
        "delivery_time": None,
    }


def decode_message(body: Dict[str, Any],
                   delivery_time: Optional[float] = None) -> Message:
    """Rebuild a :class:`Message` from a frame body.

    ``delivery_time`` stamps the arrival as observed by the receiver; when
    omitted (and the body carries none) it is NaN — "in flight".
    """
    try:
        kind = MessageKind(body["kind"])
        arrival = delivery_time if delivery_time is not None \
            else body.get("delivery_time")
        return Message(
            kind=kind,
            sender=int(body["sender"]),
            recipient=int(body["recipient"]),
            payload=_decode_payload(body["payload"]),
            send_time=float(body["send_time"]),
            delivery_time=math.nan if arrival is None else float(arrival),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        if isinstance(err, WireError):
            raise
        raise WireError(f"malformed message body {body!r}: {err}") from None
