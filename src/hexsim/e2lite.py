"""Compact wire protocol for agent <-> controller traffic.

Frame layout (normative, bit-exact), all integers big-endian:

    offset  size  field
    0       2     magic 0x45 0x32 ("E2")
    2       1     version (currently 1)
    3       1     message type
    4       4     correlation id (u32)
    8       4     payload length (u32)
    12      n     payload: UTF-8 JSON object

The payload length is at most ``MAX_FRAME`` (1 MiB): ``encode`` refuses a
longer payload, and the decoder rejects a header declaring one before any of
its payload arrives. The decoder is total: any byte string either yields a
frame or raises a :class:`~hexsim.errors.CodecError` subclass, never anything
else. Unknown message-type bytes decode fine; rejecting them is the
dispatcher's job, which must answer with a failure frame rather than drop the
message. Transport is any reliable byte stream; :class:`FrameReader` does the
reassembly.
"""

from __future__ import annotations

import enum
import json
import math
import struct
from dataclasses import dataclass, field
from typing import Mapping, Optional

from .errors import (
    BadJson,
    BadMagic,
    BadVersion,
    CodecError,
    FrameTooLarge,
    SchemaViolation,
    ShortFrame,
    UnknownFunction,
)

MAGIC = b"E2"
VERSION = 1
HEADER = struct.Struct(">2sBBII")
HEADER_LEN = HEADER.size  # 12 bytes
MAX_FRAME = 1 << 20  # largest payload length a frame may declare (1 MiB)


class MsgType(enum.IntEnum):
    SETUP_REQUEST = 1
    SETUP_RESPONSE = 2
    SUBSCRIPTION_REQUEST = 3
    SUBSCRIPTION_RESPONSE = 4
    INDICATION = 5
    CONTROL_REQUEST = 6
    CONTROL_ACK = 7
    CONTROL_FAILURE = 8
    QUERY_REQUEST = 9
    QUERY_RESPONSE = 10
    EDIT_CONFIG = 11
    CONFIG_ACK = 12
    ALARM_NOTIFICATION = 13


# success response expected for each inbound request type (failures for the
# control path and for malformed traffic travel as CONTROL_FAILURE)
RESPONSE_FOR = {
    MsgType.SETUP_REQUEST: MsgType.SETUP_RESPONSE,
    MsgType.SUBSCRIPTION_REQUEST: MsgType.SUBSCRIPTION_RESPONSE,
    MsgType.CONTROL_REQUEST: MsgType.CONTROL_ACK,
    MsgType.QUERY_REQUEST: MsgType.QUERY_RESPONSE,
    MsgType.EDIT_CONFIG: MsgType.CONFIG_ACK,
}


@dataclass(frozen=True)
class E2LiteFrame:
    msg_type: int
    correlation_id: int
    payload: dict = field(default_factory=dict)
    version: int = VERSION


# what json.dumps(payload, sort_keys=True, separators=(",", ":")) would build
# on every call; an encoder keeps no state between calls. Every payload, and
# every report text built ahead of its frame, is this compact sorted-key JSON.
JSON_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def encode(frame: E2LiteFrame) -> bytes:
    if not isinstance(frame.payload, dict):
        raise BadJson("payload must be a JSON object")
    if not 0 <= frame.msg_type <= 0xFF:
        raise ValueError(f"msg_type out of range: {frame.msg_type}")
    if not 0 <= frame.correlation_id <= 0xFFFFFFFF:
        raise ValueError(f"correlation_id out of range: {frame.correlation_id}")
    return pack(frame.msg_type, frame.correlation_id, JSON_ENCODER.encode(frame.payload),
                frame.version)


def pack(msg_type: int, correlation_id: int, text: str, version: int = VERSION) -> bytes:
    """The frame carrying payload JSON ``text``: the one place a header is
    packed and ``MAX_FRAME`` enforced, for :func:`encode` and for report text
    the agent builds itself."""
    body = text.encode("utf-8")
    if len(body) > MAX_FRAME:
        raise FrameTooLarge(f"payload of {len(body)} bytes exceeds {MAX_FRAME}")
    return HEADER.pack(MAGIC, version, msg_type, correlation_id, len(body)) + body


def decode_first(data: bytes, offset: int = 0) -> tuple[E2LiteFrame, int]:
    """Decode one frame of ``data`` starting at ``offset``; returns (frame,
    bytes consumed)."""
    have = len(data) - offset
    if have < HEADER_LEN:
        raise ShortFrame(f"need {HEADER_LEN} header bytes, have {have}")
    magic, version, msg_type, corr, length = HEADER.unpack_from(data, offset)
    if magic != MAGIC:
        raise BadMagic(f"bad magic {magic!r}")
    if version != VERSION:
        raise BadVersion(f"unsupported version {version}")
    if length > MAX_FRAME:
        raise FrameTooLarge(f"declared payload of {length} bytes exceeds {MAX_FRAME}")
    used = HEADER_LEN + length
    if have < used:
        raise ShortFrame(f"payload truncated: declared {length}, have {have - HEADER_LEN}")
    try:
        payload = json.loads(data[offset + HEADER_LEN:offset + used].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise BadJson(str(exc)) from None
    if not isinstance(payload, dict):
        raise BadJson("payload is not a JSON object")
    return E2LiteFrame(msg_type=msg_type, correlation_id=corr, payload=payload, version=version), used


def decode(data: bytes) -> E2LiteFrame:
    """Decode the first frame in ``data`` (trailing bytes are ignored)."""
    frame, _ = decode_first(data)
    return frame


class FrameReader:
    """Reassembles frames from a byte stream; undecodable header bytes raise."""

    def __init__(self):
        self._buf = bytearray()

    def feed(self, data: bytes) -> list[E2LiteFrame]:
        """The frames ``data`` completes. A :class:`CodecError` clears the
        buffer and carries the frames decoded before it as ``exc.frames``.

        The frames are read off the buffer by offset, and the bytes they used
        are dropped once, so a chunk of many frames costs linear time.
        """
        buf = self._buf
        buf.extend(data)
        frames = []
        at = 0
        try:
            while True:
                frame, used = decode_first(buf, at)
                frames.append(frame)
                at += used
        except ShortFrame:
            del buf[:at]
        except CodecError as exc:
            # the rejected bytes would fail every later feed on this link
            buf.clear()
            exc.frames = frames
            raise
        return frames

    def pending(self) -> int:
        return len(self._buf)


# -- service-model payload validation -----------------------------------------

FS_RAN_FUNCTION_ID = 1
FS_SERVICE_MODEL = "fs"

DEFAULT_FUNCTIONS: Mapping[int, str] = {FS_RAN_FUNCTION_ID: FS_SERVICE_MODEL}

SLICE_STATES = {"dedicated", "prioritized", "shared", "hybrid"}
REPORT_SERVICES = {"slice_context", "ue_context", "context_change"}


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise SchemaViolation(msg)


def _is_int(v) -> bool:
    # not isinstance: a JSON boolean would pass, and a registry finds id 1 by
    # True while a lock or lockout path spells it "True"
    return type(v) is int


def _is_int_list(v) -> bool:
    return isinstance(v, list) and all(type(i) is int for i in v)


def _opt_uint(params: dict, key: str, minimum: int = 0) -> Optional[int]:
    if key not in params:
        return None
    v = params[key]
    _require(_is_int(v) and v >= minimum, f"{key} must be an integer >= {minimum}")
    return v


def validate_slice_config(params: dict) -> dict:
    _require(isinstance(params, dict), "slice_config params must be an object")
    _require("slice_id" in params, "slice_config requires slice_id")
    out: dict = {"slice_id": params["slice_id"]}
    _require(_is_int(out["slice_id"]), "slice_id must be an integer")
    if "state" in params:
        _require(params["state"] in SLICE_STATES, f"unknown slice state {params['state']!r}")
        out["state"] = params["state"]
    for key, minimum in (("dedicated_rb", 0), ("prioritized_rb", 0), ("shared_priority", 1)):
        v = _opt_uint(params, key, minimum)
        if v is not None:
            out[key] = v
    if "fd_scheduler" in params:
        _require(isinstance(params["fd_scheduler"], str), "fd_scheduler must be a string")
        out["fd_scheduler"] = params["fd_scheduler"]
    if "hu_associations" in params:
        hus = params["hu_associations"]
        _require(isinstance(hus, list) and all(isinstance(h, str) for h in hus),
                 "hu_associations must be a list of strings")
        out["hu_associations"] = hus
    return out


def validate_ue_config(params: dict) -> dict:
    _require(isinstance(params, dict), "ue_config params must be an object")
    _require("drb_id" in params, "ue_config requires drb_id")
    _require(_is_int(params["drb_id"]), "drb_id must be an integer")
    bp = _opt_uint(params, "bearer_priority", 1)
    _require(bp is not None, "ue_config requires bearer_priority")
    return {"drb_id": params["drb_id"], "bearer_priority": bp}


ROUTINES = {"slice_config": validate_slice_config, "ue_config": validate_ue_config}


def validate_control_payload(payload: dict) -> dict:
    _require(isinstance(payload, dict), "control payload must be an object")
    header = payload.get("control_header")
    message = payload.get("control_message")
    _require(isinstance(header, dict), "missing control_header")
    _require(header.get("target") in ("slice", "ue"), "control_header.target must be slice or ue")
    ids = header.get("ids")
    _require(_is_int_list(ids), "control_header.ids must be a list of integers")
    _require(isinstance(message, dict), "missing control_message")
    routine = message.get("routine")
    _require(routine in ROUTINES, f"unknown routine {routine!r}")
    params = ROUTINES[routine](message.get("params", {}))
    return {
        "control_header": {"target": header["target"], "ids": ids},
        "control_message": {"routine": routine, "params": params},
    }


def validate_targets(targets: dict) -> dict:
    _require(isinstance(targets, dict), "targets must be an object")
    out = {}
    for key in ("slice_ids", "ue_ids"):
        ids = targets.get(key, [])
        _require(_is_int_list(ids), f"{key} must be a list of integers")
        out[key] = ids
    return out


def validate_trigger(trigger: dict) -> dict:
    _require(isinstance(trigger, dict), "trigger must be an object")
    kind = trigger.get("kind")
    if kind == "periodic":
        period = trigger.get("period_ms")
        # the deadlines advance by whole nanoseconds (clocks.ms_to_ns), so a
        # period under one would never advance them
        _require(type(period) in (int, float) and 1 <= period * 1_000_000 < math.inf,
                 "period_ms must be a finite number >= 1e-6")
        return {"kind": "periodic", "period_ms": period}
    if kind == "event":
        _require(trigger.get("event") == "context_change",
                 f"unknown event trigger {trigger.get('event')!r}")
        return {"kind": "event", "event": "context_change"}
    raise SchemaViolation(f"unknown trigger kind {kind!r}")


def validate_subscription_payload(payload: dict) -> dict:
    _require(isinstance(payload, dict), "subscription payload must be an object")
    service = payload.get("service")
    _require(service in REPORT_SERVICES, f"unknown report service {service!r}")
    return {
        "service": service,
        "targets": validate_targets(payload.get("targets", {})),
        "trigger": validate_trigger(payload.get("trigger", {})),
    }


def validate_query_payload(payload: dict) -> dict:
    _require(isinstance(payload, dict), "query payload must be an object")
    service = payload.get("service")
    _require(service in REPORT_SERVICES, f"unknown report service {service!r}")
    return {"service": service, "targets": validate_targets(payload.get("targets", {}))}


def validate_setup_payload(payload: dict) -> dict:
    _require(isinstance(payload, dict), "setup payload must be an object")
    ids = payload.get("activate", [])
    _require(_is_int_list(ids), "activate must be a list of integers")
    return {"activate": ids}


# the service-model schema of each message type whose payload carries one
_SCHEMAS = {
    MsgType.CONTROL_REQUEST: validate_control_payload,
    MsgType.SUBSCRIPTION_REQUEST: validate_subscription_payload,
    MsgType.QUERY_REQUEST: validate_query_payload,
}


def validate_sm_payload(
    msg_type: int,
    ran_function_id: int,
    payload: dict,
    functions: Mapping[int, str] = DEFAULT_FUNCTIONS,
) -> dict:
    """Check a function-specific payload against the schema of its message
    type (one of ``_SCHEMAS``); returns the normalized value."""
    model = functions.get(ran_function_id)
    if model is None:
        raise UnknownFunction(f"ran function {ran_function_id}")
    if model != FS_SERVICE_MODEL:
        raise UnknownFunction(f"no service model registered for {model!r}")
    return _SCHEMAS[msg_type](payload)
