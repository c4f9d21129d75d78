"""Length-prefixed binary wire protocol for the KV serving layer.

Every message is one *frame*::

    +--------+---------+------+------------+-------------+=========+
    | magic  | version | type | request id | payload len | payload |
    | u16    | u8      | u8   | u32        | u32         | ...     |
    +--------+---------+------+------------+-------------+=========+

All integers are little-endian.  The 12-byte header is validated before
a single payload byte is read: a bad magic, unknown version, unknown
frame type, or a payload length beyond :data:`MAX_PAYLOAD` raises
:class:`ProtocolError` — the server answers with a typed
:data:`FrameType.ERROR` frame and closes the connection, so a malformed
client can never reach the table.

Batched operations ship their keys/values as raw ``uint32`` arrays
(the table's native dtype) prefixed by a count; a frame carries at most
:data:`MAX_BATCH` keys so one client cannot monopolize the admission
budget with a single giant frame.  Empty batches are legal and
round-trip to empty replies.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from ..errors import ReproError

__all__ = [
    "MAGIC",
    "VERSION",
    "HEADER_BYTES",
    "MAX_BATCH",
    "MAX_PAYLOAD",
    "FrameType",
    "ErrorCode",
    "ProtocolError",
    "ServeError",
    "Frame",
    "encode_frame",
    "decode_header",
    "encode_hello",
    "decode_hello",
    "encode_hello_reply",
    "decode_hello_reply",
    "encode_insert",
    "decode_insert",
    "encode_insert_reply",
    "decode_insert_reply",
    "encode_query",
    "decode_query",
    "encode_query_reply",
    "decode_query_reply",
    "encode_erase",
    "decode_erase",
    "encode_erase_reply",
    "decode_erase_reply",
    "encode_error",
    "decode_error",
    "recv_exact",
    "read_frame",
    "write_frame",
]

#: wire magic ("WD" little-endian) — rejects line noise before anything else
MAGIC: int = 0x4457
#: v2: HELLO_REPLY carries only the GPU count (v1 also sent a cache flag)
VERSION: int = 2
#: header layout: magic u16, version u8, type u8, request_id u32, len u32
_HEADER = struct.Struct("<HBBII")
HEADER_BYTES: int = _HEADER.size

#: hard per-frame key ceiling — admission control is per-batch, so one
#: frame must stay a bounded unit of work
MAX_BATCH: int = 1 << 16
#: insert is the fattest op: count + default + 2 u32 arrays + slack
MAX_PAYLOAD: int = 16 + MAX_BATCH * 8


class ProtocolError(ReproError):
    """A frame violated the wire contract (bad header, short payload)."""

    def __init__(self, message: str, *, code: "ErrorCode | None" = None):
        super().__init__(message)
        self.code = code if code is not None else ErrorCode.MALFORMED


class ServeError(ReproError):
    """The server answered with a typed :data:`FrameType.ERROR` frame."""

    def __init__(self, code: "ErrorCode", message: str):
        super().__init__(f"[{code.name}] {message}")
        self.code = code


class FrameType(IntEnum):
    HELLO = 1
    HELLO_REPLY = 2
    INSERT = 3
    INSERT_REPLY = 4
    QUERY = 5
    QUERY_REPLY = 6
    ERASE = 7
    ERASE_REPLY = 8
    STATS = 9
    STATS_REPLY = 10
    ERROR = 11
    SHUTDOWN = 12


class ErrorCode(IntEnum):
    MALFORMED = 1      #: unparseable header or payload
    TOO_LARGE = 2      #: batch over MAX_BATCH / payload over MAX_PAYLOAD
    OVERLOADED = 3     #: admission budget full — retry later
    BAD_TYPE = 4       #: frame type the server does not accept
    INTERNAL = 5       #: table-side failure (capacity, probing)
    SHUTTING_DOWN = 6  #: server is draining


@dataclass(frozen=True)
class Frame:
    """One decoded frame: type, correlation id, raw payload bytes."""

    type: FrameType
    request_id: int
    payload: bytes = b""


def encode_frame(frame: Frame) -> bytes:
    if len(frame.payload) > MAX_PAYLOAD:
        raise ProtocolError(
            f"payload of {len(frame.payload)} B exceeds {MAX_PAYLOAD} B",
            code=ErrorCode.TOO_LARGE,
        )
    header = _HEADER.pack(
        MAGIC, VERSION, int(frame.type), frame.request_id, len(frame.payload)
    )
    return header + frame.payload


def decode_header(data: bytes) -> tuple[FrameType, int, int]:
    """Validate a 12-byte header → ``(type, request_id, payload_len)``."""
    if len(data) != HEADER_BYTES:
        raise ProtocolError(
            f"header is {len(data)} B, expected {HEADER_BYTES} B"
        )
    magic, version, ftype, request_id, length = _HEADER.unpack(data)
    if magic != MAGIC:
        raise ProtocolError(f"bad magic 0x{magic:04x}")
    if version != VERSION:
        raise ProtocolError(f"unsupported protocol version {version}")
    try:
        ftype = FrameType(ftype)
    except ValueError:
        raise ProtocolError(f"unknown frame type {ftype}") from None
    if length > MAX_PAYLOAD:
        raise ProtocolError(
            f"payload length {length} exceeds {MAX_PAYLOAD} B",
            code=ErrorCode.TOO_LARGE,
        )
    return ftype, request_id, length


# -- payload codecs -----------------------------------------------------------


def _check_count(count: int) -> int:
    if count > MAX_BATCH:
        raise ProtocolError(
            f"batch of {count} keys exceeds MAX_BATCH={MAX_BATCH}",
            code=ErrorCode.TOO_LARGE,
        )
    return count


def _u32_array(payload: bytes, offset: int, count: int, what: str) -> np.ndarray:
    end = offset + 4 * count
    if end > len(payload):
        raise ProtocolError(
            f"{what}: payload truncated at {len(payload)} B, "
            f"needed {end} B"
        )
    return np.frombuffer(payload, dtype="<u4", count=count, offset=offset).astype(
        np.uint32, copy=False
    )


def _keys_values(keys: np.ndarray, values: np.ndarray | None) -> bytes:
    k = np.ascontiguousarray(keys, dtype="<u4")
    out = [k.tobytes()]
    if values is not None:
        v = np.ascontiguousarray(values, dtype="<u4")
        if v.shape != k.shape:
            raise ProtocolError(
                f"keys/values length mismatch ({k.size} != {v.size})"
            )
        out.append(v.tobytes())
    return b"".join(out)


def encode_hello(name: str) -> bytes:
    return name.encode("utf-8")


def decode_hello(payload: bytes) -> str:
    try:
        return payload.decode("utf-8")
    except UnicodeDecodeError:
        raise ProtocolError("hello: client name is not utf-8") from None


def encode_hello_reply(num_gpus: int) -> bytes:
    return struct.pack("<I", num_gpus)


def decode_hello_reply(payload: bytes) -> int:
    if len(payload) != 4:
        raise ProtocolError(f"hello reply is {len(payload)} B, expected 4 B")
    return struct.unpack("<I", payload)[0]


def encode_insert(keys: np.ndarray, values: np.ndarray) -> bytes:
    _check_count(len(keys))
    return struct.pack("<I", len(keys)) + _keys_values(keys, values)


def decode_insert(payload: bytes) -> tuple[np.ndarray, np.ndarray]:
    if len(payload) < 4:
        raise ProtocolError("insert: missing count word")
    count = _check_count(struct.unpack_from("<I", payload)[0])
    keys = _u32_array(payload, 4, count, "insert keys")
    values = _u32_array(payload, 4 + 4 * count, count, "insert values")
    return keys, values


def encode_insert_reply(count: int) -> bytes:
    return struct.pack("<I", count)


def decode_insert_reply(payload: bytes) -> int:
    if len(payload) != 4:
        raise ProtocolError(f"insert reply is {len(payload)} B, expected 4 B")
    return struct.unpack("<I", payload)[0]


def encode_query(keys: np.ndarray, *, default: int = 0) -> bytes:
    _check_count(len(keys))
    return (
        struct.pack("<II", len(keys), default) + _keys_values(keys, None)
    )


def decode_query(payload: bytes) -> tuple[np.ndarray, int]:
    if len(payload) < 8:
        raise ProtocolError("query: missing count/default words")
    count, default = struct.unpack_from("<II", payload)
    _check_count(count)
    return _u32_array(payload, 8, count, "query keys"), default


def encode_query_reply(values: np.ndarray, found: np.ndarray) -> bytes:
    v = np.ascontiguousarray(values, dtype="<u4")
    f = np.ascontiguousarray(found, dtype=np.uint8)
    if v.shape != f.shape:
        raise ProtocolError(
            f"values/found length mismatch ({v.size} != {f.size})"
        )
    return struct.pack("<I", v.size) + v.tobytes() + f.tobytes()


def decode_query_reply(payload: bytes) -> tuple[np.ndarray, np.ndarray]:
    if len(payload) < 4:
        raise ProtocolError("query reply: missing count word")
    count = _check_count(struct.unpack_from("<I", payload)[0])
    values = _u32_array(payload, 4, count, "query reply values")
    off = 4 + 4 * count
    if off + count > len(payload):
        raise ProtocolError("query reply: found mask truncated")
    found = np.frombuffer(payload, dtype=np.uint8, count=count, offset=off)
    return values, found.astype(bool)


def encode_erase(keys: np.ndarray) -> bytes:
    _check_count(len(keys))
    return struct.pack("<I", len(keys)) + _keys_values(keys, None)


def decode_erase(payload: bytes) -> np.ndarray:
    if len(payload) < 4:
        raise ProtocolError("erase: missing count word")
    count = _check_count(struct.unpack_from("<I", payload)[0])
    return _u32_array(payload, 4, count, "erase keys")


def encode_erase_reply(erased: np.ndarray) -> bytes:
    e = np.ascontiguousarray(erased, dtype=np.uint8)
    return struct.pack("<I", e.size) + e.tobytes()


def decode_erase_reply(payload: bytes) -> np.ndarray:
    if len(payload) < 4:
        raise ProtocolError("erase reply: missing count word")
    count = _check_count(struct.unpack_from("<I", payload)[0])
    if 4 + count > len(payload):
        raise ProtocolError("erase reply: mask truncated")
    mask = np.frombuffer(payload, dtype=np.uint8, count=count, offset=4)
    return mask.astype(bool)


def encode_error(code: ErrorCode, message: str) -> bytes:
    return struct.pack("<H", int(code)) + message.encode("utf-8")


def decode_error(payload: bytes) -> tuple[ErrorCode, str]:
    if len(payload) < 2:
        raise ProtocolError("error frame: missing code word")
    raw = struct.unpack_from("<H", payload)[0]
    try:
        code = ErrorCode(raw)
    except ValueError:
        code = ErrorCode.INTERNAL
    return code, payload[2:].decode("utf-8", errors="replace")


# -- socket transport ---------------------------------------------------------


def recv_exact(sock, n: int) -> bytes:
    """Read exactly ``n`` bytes or raise :class:`ProtocolError`.

    A clean EOF at a frame boundary (``n`` requested, zero received on
    the first recv) raises with ``"connection closed"`` so callers can
    distinguish an orderly hangup from a frame truncated mid-flight.
    """
    chunks: list[bytes] = []
    got = 0
    while got < n:
        chunk = sock.recv(n - got)
        if not chunk:
            if got == 0:
                raise ProtocolError("connection closed")
            raise ProtocolError(
                f"truncated frame: got {got} of {n} B before EOF"
            )
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def read_frame(sock) -> Frame:
    """Read one validated frame off a socket."""
    ftype, request_id, length = decode_header(recv_exact(sock, HEADER_BYTES))
    payload = recv_exact(sock, length) if length else b""
    return Frame(ftype, request_id, payload)


def write_frame(sock, frame: Frame) -> None:
    sock.sendall(encode_frame(frame))
