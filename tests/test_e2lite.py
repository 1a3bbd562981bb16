"""Wire codec: framing, round trips, totality under fuzz, payload schemas."""

import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexsim import e2lite
from hexsim.e2lite import E2LiteFrame, FrameReader, MsgType, decode, decode_first, encode
from hexsim.errors import (
    BadJson,
    BadMagic,
    BadVersion,
    CodecError,
    FrameTooLarge,
    SchemaViolation,
    ShortFrame,
)


class TestFraming:
    def test_header_is_twelve_bytes_and_round_trips(self):
        frame = E2LiteFrame(MsgType.SETUP_REQUEST, 7, {"functions": []})
        data = encode(frame)
        assert data[:2] == b"E2"
        assert data[2] == 1  # version
        assert data[3] == MsgType.SETUP_REQUEST
        payload_len = int.from_bytes(data[8:12], "big")
        assert len(data) == e2lite.HEADER_LEN + payload_len == 12 + payload_len
        assert int.from_bytes(data[4:8], "big") == 7
        assert decode(data) == frame

    def test_integers_are_big_endian(self):
        frame = E2LiteFrame(MsgType.INDICATION, 0x01020304, {})
        data = encode(frame)
        assert data[4:8] == bytes([1, 2, 3, 4])

    def test_truncated_payload_is_short_frame(self):
        data = encode(E2LiteFrame(MsgType.CONTROL_REQUEST, 1, {"a": 1}))
        with pytest.raises(ShortFrame):
            decode(data[:-1])
        with pytest.raises(ShortFrame):
            decode(data[:8])

    def test_bad_magic_and_version(self):
        data = bytearray(encode(E2LiteFrame(MsgType.CONTROL_ACK, 1, {})))
        wrong_magic = b"XX" + bytes(data[2:])
        with pytest.raises(BadMagic):
            decode(wrong_magic)
        data[2] = 9
        with pytest.raises(BadVersion):
            decode(bytes(data))

    def test_a_frame_holds_no_version_and_a_version_2_header_is_refused(self):
        assert E2LiteFrame._fields == ("msg_type", "correlation_id", "payload")
        data = bytearray(encode(E2LiteFrame(MsgType.CONTROL_ACK, 1, {})))
        assert data[2] == e2lite.VERSION == 1
        data[2] = 2
        with pytest.raises(BadVersion):
            decode(bytes(data))
        with pytest.raises(BadVersion):
            FrameReader().feed(bytes(data))

    def test_bad_json_payload(self):
        head = e2lite.HEADER.pack(b"E2", 1, 6, 1, 4)
        with pytest.raises(BadJson):
            decode(head + b"{{{{")
        # a syntactically valid non-object document is also rejected
        body = b"[1,2]"
        head = e2lite.HEADER.pack(b"E2", 1, 6, 1, len(body))
        with pytest.raises(BadJson):
            decode(head + body)

    def test_unknown_msg_type_still_decodes(self):
        head = e2lite.HEADER.pack(b"E2", 1, 200, 5, 2)
        frame = decode(head + b"{}")
        assert frame.msg_type == 200

    def test_stream_reader_reassembles_split_frames(self):
        frames = [E2LiteFrame(MsgType.CONTROL_REQUEST, i, {"i": i}) for i in range(5)]
        blob = b"".join(encode(f) for f in frames)
        reader = FrameReader()
        got = []
        for k in range(0, len(blob), 7):
            got.extend(reader.feed(blob[k:k + 7]))
        assert got == frames
        assert reader.pending() == 0

    def test_reader_rejects_an_oversized_frame_on_its_header_alone(self):
        reader = FrameReader()
        head = e2lite.HEADER.pack(b"E2", 1, MsgType.CONTROL_REQUEST, 1, e2lite.MAX_FRAME + 1)
        assert reader.feed(head[:11]) == []  # not yet a whole header
        with pytest.raises(FrameTooLarge):
            reader.feed(head[11:])
        # a 4 GiB declaration too, with none of its payload sent
        with pytest.raises(FrameTooLarge):
            FrameReader().feed(e2lite.HEADER.pack(b"E2", 1, 6, 1, 2**32 - 1))
        assert issubclass(FrameTooLarge, CodecError)

    @pytest.mark.parametrize("bad, error", [
        (e2lite.HEADER.pack(b"E2", 1, 6, 1, 2**32 - 1), FrameTooLarge),  # declares 4 GiB
        (b"XX" + bytes(10), BadMagic),
    ], ids=["too_large", "bad_magic"])
    def test_a_rejected_frame_does_not_poison_the_reader(self, bad, error):
        reader = FrameReader()
        with pytest.raises(error):
            reader.feed(bad)
        assert reader.pending() == 0
        good = encode(E2LiteFrame(MsgType.CONTROL_REQUEST, 5, {"i": 1}))
        assert len(good) == 19
        (frame,) = reader.feed(good)
        assert frame.correlation_id == 5 and frame.payload == {"i": 1}
        assert reader.pending() == 0

    def test_frames_before_a_rejected_header_ride_on_the_error(self):
        good = encode(E2LiteFrame(MsgType.CONTROL_REQUEST, 5, {"i": 1}))
        reader = FrameReader()
        with pytest.raises(BadMagic) as err:
            reader.feed(good + b"XX" + bytes(10))
        assert [f.correlation_id for f in err.value.frames] == [5]
        assert reader.pending() == 0

    def test_reader_accepts_a_frame_of_exactly_max_size(self):
        body = b'{"a":"' + b"x" * (e2lite.MAX_FRAME - 8) + b'"}'
        assert len(body) == e2lite.MAX_FRAME
        head = e2lite.HEADER.pack(b"E2", 1, MsgType.CONTROL_REQUEST, 3, len(body))
        reader = FrameReader()
        assert reader.feed(head) == []
        (frame,) = reader.feed(body)
        assert frame.correlation_id == 3
        assert encode(frame) == head + body

    def test_encode_refuses_a_payload_over_max_size(self):
        frame = E2LiteFrame(MsgType.QUERY_RESPONSE, 1, {"a": "x" * (e2lite.MAX_FRAME - 7)})
        with pytest.raises(FrameTooLarge):
            encode(frame)


payloads = st.recursive(
    st.one_of(st.integers(-1000, 1000), st.booleans(), st.text(max_size=12),
              st.floats(allow_nan=False, allow_infinity=False, width=32)),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
    ),
    max_leaves=12,
)


class TestRoundTripProperty:
    @settings(max_examples=400, deadline=None)
    @given(
        msg_type=st.integers(0, 255),
        corr=st.integers(0, 2**32 - 1),
        payload=st.dictionaries(st.text(max_size=8), payloads, max_size=6),
    )
    def test_encode_decode_identity(self, msg_type, corr, payload):
        frame = E2LiteFrame(msg_type, corr, payload)
        decoded, used = decode_first(encode(frame))
        assert used == len(encode(frame))
        assert decoded == frame


class TestStreamReader:
    """The reader walks one buffer by offset: however the bytes are cut
    into chunks, it returns the same frames."""

    @staticmethod
    def _frames(n):
        return [E2LiteFrame(MsgType.CONTROL_REQUEST, i, {"i": i, "pad": "x" * (i % 7)})
                for i in range(n)]

    def test_one_chunk_of_16384_frames_reads_as_16384_feeds(self):
        frames = self._frames(16_384)
        wires = [encode(f) for f in frames]
        one = FrameReader()
        assert one.feed(b"".join(wires)) == frames
        many = FrameReader()
        assert [f for w in wires for f in many.feed(w)] == frames
        assert one.pending() == many.pending() == 0

    def test_a_byte_at_a_time_reads_the_same_frames(self):
        frames = self._frames(200)
        blob = b"".join(encode(f) for f in frames)
        reader = FrameReader()
        got = [f for i in range(len(blob)) for f in reader.feed(blob[i:i + 1])]
        assert got == frames and reader.pending() == 0

    def test_a_partial_frame_waits_for_the_rest(self):
        frames = self._frames(300)
        blob = b"".join(encode(f) for f in frames)
        cut = len(blob) - 5
        reader = FrameReader()
        assert reader.feed(blob[:cut]) == frames[:-1]
        assert reader.pending() == len(encode(frames[-1])) - 5
        assert reader.feed(blob[cut:]) == frames[-1:]
        assert reader.pending() == 0

    def test_a_bad_header_after_good_frames_still_returns_them(self):
        frames = self._frames(1_000)
        blob = b"".join(encode(f) for f in frames)
        reader = FrameReader()
        assert reader.feed(blob[:100]) == frames[:3]  # frames before the chunk, too
        with pytest.raises(BadMagic) as err:
            reader.feed(blob[100:] + b"XX" + bytes(10) + blob)
        assert err.value.frames == frames[3:]
        assert reader.pending() == 0
        assert reader.feed(blob) == frames

    def test_decode_first_reads_at_an_offset(self):
        a, b = self._frames(2)
        wire = encode(a) + encode(b)
        frame, used = decode_first(wire, len(encode(a)))
        assert frame == b and used == len(encode(b))
        with pytest.raises(ShortFrame):
            decode_first(wire, len(wire) - 3)

    @settings(max_examples=100, deadline=None)
    @given(payload=st.dictionaries(st.text(max_size=8), payloads, max_size=6))
    def test_encode_writes_the_bytes_of_json_dumps(self, payload):
        body = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
        assert encode(E2LiteFrame(MsgType.INDICATION, 1, payload))[e2lite.HEADER_LEN:] == body


class TestFuzzDecode:
    def test_decoder_is_total_on_noise_and_mutations(self):
        rng = random.Random(1234)
        seed_frames = [
            encode(E2LiteFrame(rng.randint(0, 255), rng.randint(0, 2**32 - 1),
                               {"k": rng.randint(0, 99)}))
            for _ in range(50)
        ]
        ok = errors = 0
        for k in range(2000):
            if k % 2 == 0:
                data = bytes(rng.getrandbits(8) for _ in range(rng.randint(0, 64)))
            else:
                data = bytearray(rng.choice(seed_frames))
                for _ in range(rng.randint(1, 6)):
                    if data:
                        data[rng.randrange(len(data))] = rng.getrandbits(8)
                data = bytes(data[:rng.randint(0, len(data))])
            try:
                decode(data)
                ok += 1
            except CodecError:
                errors += 1
        assert ok + errors == 2000


CONTROL = MsgType.CONTROL_REQUEST


class TestServiceModelValidation:
    def control(self, routine, params, target="slice", ids=(2,)):
        return {
            "ran_function_id": 1,
            "control_header": {"target": target, "ids": list(ids)},
            "control_message": {"routine": routine, "params": params},
        }

    def test_valid_slice_config(self):
        payload = self.control("slice_config",
                               {"slice_id": 2, "state": "dedicated", "dedicated_rb": 85})
        out = e2lite.validate_sm_payload(CONTROL, payload)
        assert out["control_message"]["params"]["dedicated_rb"] == 85

    def test_negative_rb_rejected(self):
        payload = self.control("slice_config", {"slice_id": 2, "dedicated_rb": -1})
        with pytest.raises(SchemaViolation):
            e2lite.validate_sm_payload(CONTROL, payload)

    def test_valid_ue_config(self):
        payload = self.control("ue_config", {"drb_id": 102, "bearer_priority": 5},
                               target="ue", ids=(102,))
        out = e2lite.validate_sm_payload(CONTROL, payload)
        assert out["control_message"]["params"]["bearer_priority"] == 5

    def test_unknown_routine_state_and_trigger(self):
        with pytest.raises(SchemaViolation):
            e2lite.validate_sm_payload(CONTROL, self.control("reboot", {}))
        with pytest.raises(SchemaViolation):
            e2lite.validate_sm_payload(
                CONTROL, self.control("slice_config", {"slice_id": 1, "state": "turbo"}))
        with pytest.raises(SchemaViolation):
            e2lite.validate_sm_payload(MsgType.SUBSCRIPTION_REQUEST, {
                "service": "slice_context", "targets": {},
                "trigger": {"kind": "periodic", "period_ms": 0},
            })

    @pytest.mark.parametrize("where", ["slice_id", "drb_id", "header_ids", "query_targets",
                                       "subscription_targets"])
    def test_a_boolean_is_not_an_id(self, where):
        event = {"kind": "event", "event": "context_change"}
        msg_type, payload = {
            "slice_id": (CONTROL, self.control("slice_config", {"slice_id": True})),
            "drb_id": (CONTROL, self.control("ue_config", {"drb_id": False,
                                                           "bearer_priority": 1}, target="ue")),
            "header_ids": (CONTROL, self.control("slice_config", {"slice_id": 2},
                                                 ids=(2, True))),
            "query_targets": (MsgType.QUERY_REQUEST, {"service": "slice_context",
                                                      "targets": {"slice_ids": [True]}}),
            "subscription_targets": (MsgType.SUBSCRIPTION_REQUEST, {
                "service": "ue_context", "targets": {"ue_ids": [1, False]}, "trigger": event}),
        }[where]
        with pytest.raises(SchemaViolation, match="integer"):
            e2lite.validate_sm_payload(msg_type, payload)

    @pytest.mark.parametrize("period", [math.inf, math.nan, True, 1e303, 1e-7, "5", -1, 0])
    def test_period_ms_is_a_finite_number_of_at_least_one_nanosecond(self, period):
        with pytest.raises(SchemaViolation, match="period_ms"):
            e2lite.validate_sm_payload(MsgType.SUBSCRIPTION_REQUEST, {
                "service": "slice_context", "targets": {},
                "trigger": {"kind": "periodic", "period_ms": period},
            })

    def test_a_period_of_one_nanosecond_is_accepted(self):
        trigger = {"kind": "periodic", "period_ms": 1e-6}
        out = e2lite.validate_sm_payload(MsgType.SUBSCRIPTION_REQUEST, {
            "service": "slice_context", "targets": {}, "trigger": trigger})
        assert out["trigger"] == trigger

    def test_subscription_and_query_shapes(self):
        sub = e2lite.validate_sm_payload(MsgType.SUBSCRIPTION_REQUEST, {
            "service": "ue_context",
            "targets": {"ue_ids": [1, 2]},
            "trigger": {"kind": "event", "event": "context_change"},
        })
        assert sub["trigger"]["kind"] == "event"
        q = e2lite.validate_sm_payload(MsgType.QUERY_REQUEST, {
            "service": "slice_context", "targets": {"slice_ids": [1]}})
        assert q["targets"]["slice_ids"] == [1]

    @pytest.mark.parametrize("not_an_object", [[], ["slice_id", 2], "x", "", 7, None])
    def test_a_list_or_string_where_an_object_belongs_is_a_schema_violation(
            self, not_an_object):
        """The validators check for dict, which is what a decoded payload holds."""
        control = self.control("slice_config", {"slice_id": 2})
        cases = [
            (CONTROL, not_an_object),
            (CONTROL, dict(control, control_header=not_an_object)),
            (CONTROL, dict(control, control_message=not_an_object)),
            (CONTROL, self.control("slice_config", not_an_object)),
            (CONTROL, self.control("ue_config", not_an_object, target="ue")),
            (MsgType.SUBSCRIPTION_REQUEST, not_an_object),
            (MsgType.SUBSCRIPTION_REQUEST, {"service": "ue_context", "targets": not_an_object,
                                            "trigger": {"kind": "event",
                                                        "event": "context_change"}}),
            (MsgType.SUBSCRIPTION_REQUEST, {"service": "ue_context", "targets": {},
                                            "trigger": not_an_object}),
            (MsgType.QUERY_REQUEST, not_an_object),
            (MsgType.QUERY_REQUEST, {"service": "ue_context", "targets": not_an_object}),
        ]
        for msg_type, payload in cases:
            with pytest.raises(SchemaViolation):
                e2lite.validate_sm_payload(msg_type, payload)
        with pytest.raises(SchemaViolation):
            e2lite.validate_setup_payload(not_an_object)
