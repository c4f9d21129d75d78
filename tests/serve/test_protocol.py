"""Wire-protocol properties: round-trips, limits, malformed rejection.

Every codec must satisfy ``decode(encode(x)) == x`` across the whole
legal input space — including the empty batch and the ``MAX_BATCH``
ceiling — and every illegal header byte pattern must raise a typed
:class:`ProtocolError` *before* any payload is trusted.
"""

from __future__ import annotations

import socket
import struct
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from profiles import examples

from repro.serve.protocol import (
    HEADER_BYTES,
    MAGIC,
    MAX_BATCH,
    MAX_PAYLOAD,
    VERSION,
    ErrorCode,
    Frame,
    FrameType,
    ProtocolError,
    decode_erase,
    decode_erase_reply,
    decode_error,
    decode_header,
    decode_hello,
    decode_hello_reply,
    decode_insert,
    decode_insert_reply,
    decode_query,
    decode_query_reply,
    encode_erase,
    encode_erase_reply,
    encode_error,
    encode_frame,
    encode_hello,
    encode_hello_reply,
    encode_insert,
    encode_insert_reply,
    encode_query,
    encode_query_reply,
    read_frame,
    recv_exact,
    write_frame,
)

u32 = st.integers(0, 2**32 - 1)


def _u32_arrays(max_size: int = 64):
    return st.lists(u32, max_size=max_size).map(
        lambda xs: np.array(xs, dtype=np.uint32)
    )


class TestFrameRoundTrip:
    @given(
        ftype=st.sampled_from(list(FrameType)),
        request_id=u32,
        payload=st.binary(max_size=256),
    )
    @examples(50)
    def test_header_round_trip(self, ftype, request_id, payload):
        raw = encode_frame(Frame(ftype, request_id, payload))
        got_type, got_id, got_len = decode_header(raw[:HEADER_BYTES])
        assert got_type == ftype
        assert got_id == request_id
        assert got_len == len(payload)
        assert raw[HEADER_BYTES:] == payload

    def test_over_limit_payload_refused_at_encode(self):
        frame = Frame(FrameType.INSERT, 1, b"x" * (MAX_PAYLOAD + 1))
        with pytest.raises(ProtocolError) as err:
            encode_frame(frame)
        assert err.value.code == ErrorCode.TOO_LARGE

    def test_socket_round_trip(self):
        a, b = socket.socketpair()
        try:
            frame = Frame(FrameType.QUERY, 77, b"payload-bytes")
            write_frame(a, frame)
            assert read_frame(b) == frame
        finally:
            a.close()
            b.close()


class TestPayloadCodecs:
    @given(data=st.data())
    @examples(50)
    def test_insert_round_trip(self, data):
        keys = data.draw(_u32_arrays(), label="keys")
        values = data.draw(
            st.lists(u32, min_size=keys.size, max_size=keys.size).map(
                lambda xs: np.array(xs, dtype=np.uint32)
            ),
            label="values",
        )
        got_keys, got_values = decode_insert(encode_insert(keys, values))
        assert np.array_equal(got_keys, keys)
        assert np.array_equal(got_values, values)

    @given(keys=_u32_arrays(), default=u32)
    @examples(50)
    def test_query_round_trip(self, keys, default):
        got_keys, got_default = decode_query(
            encode_query(keys, default=default)
        )
        assert np.array_equal(got_keys, keys)
        assert got_default == default

    @given(keys=_u32_arrays())
    @examples(30)
    def test_erase_round_trip(self, keys):
        assert np.array_equal(decode_erase(encode_erase(keys)), keys)

    @given(data=st.data())
    @examples(30)
    def test_reply_round_trips(self, data):
        values = data.draw(_u32_arrays(), label="values")
        found = data.draw(
            st.lists(
                st.booleans(), min_size=values.size, max_size=values.size
            ).map(lambda xs: np.array(xs, dtype=bool)),
            label="found",
        )
        got_values, got_found = decode_query_reply(
            encode_query_reply(values, found)
        )
        assert np.array_equal(got_values, values)
        assert np.array_equal(got_found, found)
        assert np.array_equal(
            decode_erase_reply(encode_erase_reply(found)), found
        )
        count = data.draw(u32, label="count")
        assert decode_insert_reply(encode_insert_reply(count)) == count

    def test_empty_batches_are_legal(self):
        empty = np.empty(0, dtype=np.uint32)
        keys, values = decode_insert(encode_insert(empty, empty))
        assert keys.size == 0 and values.size == 0
        keys, default = decode_query(encode_query(empty, default=9))
        assert keys.size == 0 and default == 9
        assert decode_erase(encode_erase(empty)).size == 0

    def test_max_batch_round_trips(self):
        keys = np.arange(MAX_BATCH, dtype=np.uint32)
        values = keys[::-1].copy()
        payload = encode_insert(keys, values)
        assert len(payload) <= MAX_PAYLOAD
        got_keys, got_values = decode_insert(payload)
        assert np.array_equal(got_keys, keys)
        assert np.array_equal(got_values, values)

    def test_over_max_batch_refused(self):
        keys = np.zeros(MAX_BATCH + 1, dtype=np.uint32)
        with pytest.raises(ProtocolError) as err:
            encode_query(keys)
        assert err.value.code == ErrorCode.TOO_LARGE

    def test_hello_round_trips(self):
        assert decode_hello(encode_hello("client-α")) == "client-α"
        assert decode_hello_reply(encode_hello_reply(8)) == 8
        with pytest.raises(ProtocolError, match="hello reply"):
            decode_hello_reply(encode_hello_reply(8) + b"\x01")

    @given(
        code=st.sampled_from(list(ErrorCode)), message=st.text(max_size=64)
    )
    @examples(30)
    def test_error_round_trip(self, code, message):
        got_code, got_message = decode_error(encode_error(code, message))
        assert got_code == code
        assert got_message == message


class TestMalformedHeaders:
    """Every corrupt header byte pattern is rejected before the payload."""

    def _header(self, magic=MAGIC, version=VERSION, ftype=1, rid=0, length=0):
        return struct.pack("<HBBII", magic, version, ftype, rid, length)

    def test_bad_magic(self):
        with pytest.raises(ProtocolError, match="bad magic"):
            decode_header(self._header(magic=0xDEAD))

    def test_bad_version(self):
        with pytest.raises(ProtocolError, match="version"):
            decode_header(self._header(version=VERSION + 1))

    def test_unknown_frame_type(self):
        with pytest.raises(ProtocolError, match="frame type"):
            decode_header(self._header(ftype=200))

    def test_oversize_length(self):
        with pytest.raises(ProtocolError) as err:
            decode_header(self._header(length=MAX_PAYLOAD + 1))
        assert err.value.code == ErrorCode.TOO_LARGE

    def test_short_header(self):
        with pytest.raises(ProtocolError, match="header"):
            decode_header(b"\x00" * (HEADER_BYTES - 1))

    @given(noise=st.binary(min_size=HEADER_BYTES, max_size=HEADER_BYTES))
    @examples(100)
    def test_random_noise_never_validates_silently(self, noise):
        """Arbitrary bytes either raise or genuinely carry the magic."""
        try:
            decode_header(noise)
        except ProtocolError:
            return
        magic, version = struct.unpack_from("<HB", noise)
        assert magic == MAGIC and version == VERSION

    def test_truncated_payload_in_intact_frame(self):
        payload = encode_insert(
            np.arange(4, dtype=np.uint32), np.arange(4, dtype=np.uint32)
        )
        with pytest.raises(ProtocolError, match="truncated"):
            decode_insert(payload[:-3])
        with pytest.raises(ProtocolError, match="count"):
            decode_insert(b"\x01")


class TestRecvExact:
    def test_clean_eof_is_distinguished_from_truncation(self):
        a, b = socket.socketpair()
        a.close()
        with pytest.raises(ProtocolError, match="connection closed"):
            recv_exact(b, 4)
        b.close()

    def test_mid_frame_eof_reports_truncation(self):
        a, b = socket.socketpair()
        a.sendall(b"\x01\x02")
        a.close()
        with pytest.raises(ProtocolError, match="truncated frame"):
            recv_exact(b, 4)
        b.close()

    def test_chunked_delivery_reassembles(self):
        a, b = socket.socketpair()
        payload = bytes(range(64))

        def drip():
            for i in range(0, len(payload), 7):
                a.sendall(payload[i : i + 7])

        thread = threading.Thread(target=drip)
        thread.start()
        got = recv_exact(b, len(payload))
        thread.join()
        assert got == payload
        a.close()
        b.close()
