"""Wire format: length-prefixed frames with a fixed 16-byte header.

Frame layout, all integers big-endian:

    u32 length            covers header + body
    u8  version
    u8  mode              0 plaintext, 1 symmetric, 2 handshake-then-symmetric
    u8  kind              0 data, 1 handshake-init, 2 handshake-ack
    u8  reserved          always 0
    u32 sequence          strictly increasing per camera of a sender
    u64 sent_at           microseconds since the epoch
    ... body              payload, or nonce+ciphertext in encrypted modes

The data payload is the feature record as one newline-free text line:
``camera,frame,timestamp,people,id:dwell:speed:direction;...`` with floats
rendered by repr so records round-trip bit-exactly.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from ..tracking import FeatureRecord, ObjectFeatures

VERSION = 1

MODE_PLAINTEXT = 0
MODE_SYMMETRIC = 1
MODE_HANDSHAKE = 2

MODE_NAMES = {
    "plaintext": MODE_PLAINTEXT,
    "symmetric": MODE_SYMMETRIC,
    "handshake-then-symmetric": MODE_HANDSHAKE,
}
MODE_BYTES = {v: k for k, v in MODE_NAMES.items()}

KIND_DATA = 0
KIND_HANDSHAKE_INIT = 1
KIND_HANDSHAKE_ACK = 2

HEADER = struct.Struct(">BBBBIQ")
assert HEADER.size == 16

MAX_PAYLOAD = 1 << 20  # 1 MiB before encryption
MAX_FRAME = MAX_PAYLOAD + 4096  # generous room for header + AEAD overhead

_FORBIDDEN = set(",;:\n\r")


class EncodeError(ValueError):
    """Payload cannot be put on the wire."""


class FrameRejected(ValueError):
    """Incoming frame failed structural or authenticity checks."""


@dataclass(frozen=True)
class WireMessage:
    version: int
    mode: int
    kind: int
    sequence: int
    sent_at: int  # microseconds
    camera_id: str
    record: FeatureRecord


def encode_record(record: FeatureRecord, camera_id: str) -> bytes:
    """Serialize one feature record to its newline-free payload line."""
    if not camera_id or any(c in _FORBIDDEN for c in camera_id):
        raise EncodeError(f"camera id {camera_id!r} not wire-safe")
    objects = ";".join(
        f"{o.track_id}:{o.dwell_time!r}:{o.speed_change_count}:{o.direction_change_count}"
        for o in record.objects
    )
    line = f"{camera_id},{record.frame_index},{record.timestamp!r},{record.people_count},{objects}"
    payload = line.encode("utf-8")
    if len(payload) > MAX_PAYLOAD:
        raise EncodeError(f"payload {len(payload)} bytes exceeds {MAX_PAYLOAD}")
    return payload


def decode_record(payload: bytes) -> tuple[str, FeatureRecord]:
    try:
        line = payload.decode("utf-8")
        camera_id, frame_index, timestamp, people, objects_field = line.split(",", 4)
        objects = []
        if objects_field:
            for chunk in objects_field.split(";"):
                tid, dwell, sp, dr = chunk.split(":")
                objects.append(ObjectFeatures(
                    track_id=int(tid), dwell_time=float(dwell),
                    speed_change_count=int(sp), direction_change_count=int(dr),
                ))
        record = FeatureRecord(
            frame_index=int(frame_index), timestamp=float(timestamp),
            people_count=int(people), objects=tuple(objects),
        )
    except (ValueError, UnicodeDecodeError) as exc:
        raise FrameRejected(f"malformed payload: {exc}") from exc
    return camera_id, record


def pack_header(mode: int, kind: int, sequence: int, sent_at: int,
                version: int = VERSION) -> bytes:
    return HEADER.pack(version, mode, kind, 0, sequence, sent_at)


def build_frame(header: bytes, body: bytes) -> bytes:
    length = len(header) + len(body)
    if length > MAX_FRAME:
        raise EncodeError(f"frame {length} bytes exceeds {MAX_FRAME}")
    return struct.pack(">I", length) + header + body


def split_frame(frame: bytes) -> tuple[bytes, bytes]:
    """(header, body) of a frame already stripped of its length prefix."""
    if len(frame) < HEADER.size:
        raise FrameRejected(f"frame shorter than header: {len(frame)} bytes")
    return frame[:HEADER.size], frame[HEADER.size:]


def parse_header(header: bytes) -> tuple[int, int, int, int, int]:
    """(version, mode, kind, sequence, sent_at); rejects unknown versions."""
    version, mode, kind, _reserved, sequence, sent_at = HEADER.unpack(header)
    if version != VERSION:
        raise FrameRejected(f"unsupported version {version}")
    if mode not in MODE_BYTES:
        raise FrameRejected(f"unknown mode byte {mode}")
    if kind not in (KIND_DATA, KIND_HANDSHAKE_INIT, KIND_HANDSHAKE_ACK):
        raise FrameRejected(f"unknown frame kind {kind}")
    return version, mode, kind, sequence, sent_at
