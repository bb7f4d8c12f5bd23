"""Unit tests for the length-prefixed JSON wire codec (repro.net.wire)."""

import math
import struct

import pytest

from repro.core.messages import ReadyMessage, RoundMessage, TimeMessage
from repro.net.wire import (
    MAX_FRAME,
    WireError,
    decode_message,
    encode_message,
    pack_frame,
    unpack_frames,
)
from repro.sim.events import Message, MessageKind


class TestFrames:
    def test_pack_then_unpack_roundtrips(self):
        body = {"type": "ping", "seq": 3, "t": 1.25}
        frames, rest = unpack_frames(pack_frame(body))
        assert frames == [body]
        assert rest == b""

    def test_multiple_frames_in_one_buffer(self):
        buffer = pack_frame({"a": 1}) + pack_frame({"b": 2})
        frames, rest = unpack_frames(buffer)
        assert frames == [{"a": 1}, {"b": 2}]
        assert rest == b""

    def test_partial_frame_returned_as_rest(self):
        whole = pack_frame({"type": "hello", "sender": 0})
        for cut in (1, 3, 4, len(whole) - 1):
            frames, rest = unpack_frames(whole[:cut])
            assert frames == []
            assert rest == whole[:cut]
            # feeding the remainder completes the frame
            frames, rest = unpack_frames(rest + whole[cut:])
            assert frames == [{"type": "hello", "sender": 0}]
            assert rest == b""

    def test_oversize_length_prefix_rejected(self):
        hostile = struct.pack(">I", MAX_FRAME + 1) + b"x"
        with pytest.raises(WireError, match="MAX_FRAME"):
            unpack_frames(hostile)

    def test_oversize_body_rejected_at_pack(self):
        with pytest.raises(WireError, match="MAX_FRAME"):
            pack_frame({"blob": "x" * (MAX_FRAME + 1)})

    def test_undecodable_body_rejected(self):
        corrupt = struct.pack(">I", 4) + b"\xff\xfe{]"
        with pytest.raises(WireError, match="undecodable"):
            unpack_frames(corrupt)

    def test_integer_past_the_digit_limit_rejected(self):
        # json.loads raises a plain ValueError for a >4300-digit integer.
        payload = b'{"seq":' + b"1" * 5000 + b"}"
        framed = struct.pack(">I", len(payload)) + payload
        with pytest.raises(WireError, match="undecodable"):
            unpack_frames(framed)

    def test_non_object_body_rejected(self):
        payload = b"[1,2]"
        framed = struct.pack(">I", len(payload)) + payload
        with pytest.raises(WireError, match="JSON object"):
            unpack_frames(framed)

    def test_nan_payload_rejected_at_pack(self):
        # allow_nan=False: NaN would not survive a JSON round trip anyway.
        with pytest.raises(ValueError):
            pack_frame({"t": math.nan})


class TestMessages:
    def roundtrip(self, message, delivery_time=None):
        body = encode_message(message)
        # The frame body must survive the actual wire format.
        frames, _ = unpack_frames(pack_frame({"msg": body}))
        return decode_message(frames[0]["msg"], delivery_time=delivery_time)

    def test_round_message_roundtrips(self):
        message = Message(kind=MessageKind.ORDINARY, sender=2, recipient=-1,
                          payload=RoundMessage(round_time=4.5),
                          send_time=1.0, delivery_time=1.001)
        decoded = self.roundtrip(message, delivery_time=1.002)
        assert decoded.kind is MessageKind.ORDINARY
        assert decoded.sender == 2 and decoded.recipient == -1
        assert isinstance(decoded.payload, RoundMessage)
        assert decoded.payload.round_time == 4.5
        assert decoded.send_time == 1.0
        # delivery is receiver-stamped, never the sender's value
        assert decoded.delivery_time == 1.002

    def test_delivery_time_defaults_to_nan_in_flight(self):
        message = Message(kind=MessageKind.ORDINARY, sender=0, recipient=1,
                          payload=TimeMessage(value=2.0),
                          send_time=0.5, delivery_time=0.6)
        decoded = self.roundtrip(message)
        assert math.isnan(decoded.delivery_time)
        assert isinstance(decoded.payload, TimeMessage)
        assert decoded.payload.value == 2.0

    def test_ready_and_scalar_payloads(self):
        ready = Message(kind=MessageKind.ORDINARY, sender=1, recipient=2,
                        payload=ReadyMessage(), send_time=0.0,
                        delivery_time=0.0)
        assert isinstance(self.roundtrip(ready).payload, ReadyMessage)
        for payload in (None, 7, 2.5, "go"):
            message = Message(kind=MessageKind.ORDINARY, sender=0,
                              recipient=1, payload=payload, send_time=0.0,
                              delivery_time=0.0)
            assert self.roundtrip(message).payload == payload

    def test_unencodable_payload_rejected(self):
        message = Message(kind=MessageKind.ORDINARY, sender=0, recipient=1,
                          payload=object(), send_time=0.0, delivery_time=0.0)
        with pytest.raises(WireError, match="no wire encoding"):
            encode_message(message)

    def test_unknown_payload_tag_rejected(self):
        body = encode_message(Message(
            kind=MessageKind.ORDINARY, sender=0, recipient=1,
            payload=RoundMessage(round_time=1.0), send_time=0.0,
            delivery_time=0.0))
        body["payload"]["_type"] = "mystery"
        with pytest.raises(WireError, match="unknown payload tag"):
            decode_message(body)

    def test_malformed_body_rejected(self):
        with pytest.raises(WireError, match="malformed"):
            decode_message({"kind": "ordinary", "sender": 0})

    def test_infinite_sender_rejected(self):
        # 1e400 parses to inf, and int(inf) raises OverflowError.
        with pytest.raises(WireError, match="malformed"):
            decode_message({"kind": "ordinary", "sender": math.inf,
                            "recipient": 0, "payload": None,
                            "send_time": 0.0})
