"""Fault injection: dead clients, broken frames, saturated admission.

Every failure mode must surface as a *typed* error frame (or a counted
disconnect) and leave the table consistent — a fault in one connection
can never corrupt another client's view of the data.
"""

from __future__ import annotations

import socket
import struct
import time

import numpy as np
import pytest

from repro.serve import KVClient, KVServer
from repro.serve.protocol import (
    HEADER_BYTES,
    MAGIC,
    VERSION,
    ErrorCode,
    Frame,
    FrameType,
    ServeError,
    decode_error,
    encode_insert,
    encode_query,
    read_frame,
    write_frame,
)
from repro.workloads.distributions import random_values, unique_keys


@pytest.fixture
def server():
    srv = KVServer.create(
        topology="p100:4", capacity=1 << 13, batch_window=0.001
    ).start()
    yield srv
    srv.close()


def _raw_connection(server) -> socket.socket:
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(5.0)
    sock.connect(server.address)
    return sock


def _wait_counter(server, name: str, minimum: float, timeout: float = 5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if server.stats.get(name) >= minimum:
            return
        time.sleep(0.01)
    raise AssertionError(
        f"{name} never reached {minimum}; counters: "
        f"{server.stats.snapshot()}"
    )


def _assert_table_still_serves(server, seed: int = 99):
    keys = unique_keys(128, seed=seed)
    values = random_values(128, seed=seed + 1)
    with KVClient(server.address, name=f"probe-{seed}") as probe:
        assert probe.insert(keys, values) == 128
        got, found = probe.query(keys)
    assert found.all() and np.array_equal(got, values)


class TestBrokenStreams:
    def test_client_killed_mid_frame_is_counted_not_fatal(self, server):
        """Abort a connection halfway through an INSERT frame: the
        server counts a truncated disconnect and the table stays
        fully serviceable for everyone else."""
        payload = encode_insert(
            unique_keys(1024, seed=1), random_values(1024, seed=2)
        )
        header = struct.pack(
            "<HBBII", MAGIC, VERSION, int(FrameType.INSERT), 5, len(payload)
        )
        sock = _raw_connection(server)
        sock.sendall(header + payload[: len(payload) // 2])
        sock.close()  # dead mid-frame
        _wait_counter(server, "serve.truncated", 1)
        assert server.stats.get("serve.disconnect") >= 1
        assert len(server.table) == 0, "half a frame must never insert"
        _assert_table_still_serves(server, seed=101)

    def test_malformed_header_gets_typed_error_then_close(self, server):
        sock = _raw_connection(server)
        sock.sendall(b"\x00" * HEADER_BYTES)  # zero magic: stream desync
        reply = read_frame(sock)
        assert reply.type == FrameType.ERROR
        code, message = decode_error(reply.payload)
        assert code == ErrorCode.MALFORMED
        assert "magic" in message
        # server hangs up after an unrecoverable stream error
        assert sock.recv(1) == b""
        sock.close()
        assert server.stats.get("serve.rejected.malformed") == 1
        _assert_table_still_serves(server, seed=103)

    def test_malformed_payload_keeps_the_connection(self, server):
        """A well-framed frame with a lying payload is answered and the
        stream stays usable — no desync, no hangup."""
        sock = _raw_connection(server)
        bogus = struct.pack("<I", 1000)  # count says 1000, no key bytes
        write_frame(sock, Frame(FrameType.ERASE, 9, bogus))
        reply = read_frame(sock)
        assert reply.type == FrameType.ERROR
        code, _message = decode_error(reply.payload)
        assert code == ErrorCode.MALFORMED
        # same socket still speaks protocol
        write_frame(
            sock,
            Frame(FrameType.QUERY, 10, encode_query(unique_keys(4, seed=3))),
        )
        assert read_frame(sock).type == FrameType.QUERY_REPLY
        sock.close()

    def test_unexpected_frame_type_is_bad_type(self, server):
        sock = _raw_connection(server)
        write_frame(sock, Frame(FrameType.QUERY_REPLY, 11, b""))
        reply = read_frame(sock)
        code, _ = decode_error(reply.payload)
        assert code == ErrorCode.BAD_TYPE
        sock.close()

    def test_old_protocol_version_gets_typed_error(self, server):
        """A peer still speaking version 1 is refused with a typed
        MALFORMED error, then hung up on, like any bad header."""
        sock = _raw_connection(server)
        v1_hello = struct.pack("<HBBII", MAGIC, 1, int(FrameType.HELLO), 1, 0)
        sock.sendall(v1_hello)
        reply = read_frame(sock)
        assert reply.type == FrameType.ERROR
        code, message = decode_error(reply.payload)
        assert code == ErrorCode.MALFORMED
        assert "unsupported protocol version 1" in message
        sock.close()

    def test_clean_disconnect_is_not_an_error(self, server):
        with KVClient(server.address, name="polite"):
            pass
        _wait_counter(server, "serve.disconnect", 1)
        assert server.stats.get("serve.truncated") == 0
        assert server.stats.get("serve.rejected") == 0


class TestCoalescerSurvivesExceptions:
    def test_non_repro_exception_is_typed_and_server_keeps_serving(
        self, server, monkeypatch, caplog
    ):
        """A plain ``ValueError`` out of the cascade is answered with a
        typed INTERNAL error; the coalescer thread lives on, so later
        requests on the same and on a new connection still succeed."""
        keys = unique_keys(256, seed=30)
        values = random_values(256, seed=31)
        real_query = server.table.query
        calls = {"n": 0}

        def flaky_query(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise ValueError("injected")
            return real_query(*args, **kwargs)

        monkeypatch.setattr(server.table, "query", flaky_query)
        with KVClient(
            server.address, name="victim", presplit=False, timeout=3.0
        ) as client:
            client.insert(keys, values)
            with pytest.raises(ServeError) as err:
                client.query(keys)
            assert err.value.code == ErrorCode.INTERNAL
            assert "ValueError: injected" in str(err.value)
            got, found = client.query(keys)
            assert found.all() and np.array_equal(got, values)
        with KVClient(server.address, name="after", timeout=3.0) as fresh:
            got, found = fresh.query(keys)
        assert found.all() and np.array_equal(got, values)
        assert server.stats.get("serve.errors") == 1
        assert "ValueError: injected" in caplog.text  # traceback logged


class TestReconnect:
    def test_kill_and_reconnect_mid_schedule(self, server):
        keys = unique_keys(512, seed=4)
        values = random_values(512, seed=5)
        client = KVClient(server.address, name="flaky")
        client.insert(keys[:256], values[:256])
        # simulate a crash: drop the socket without goodbye
        client._sock.close()
        client._sock = None
        client.reconnect()
        _wait_counter(server, "serve.reconnect", 1)
        client.insert(keys[256:], values[256:])
        got, found = client.query(keys)
        client.close()
        assert found.all()
        assert np.array_equal(got, values)
        assert client.connects == 2


class TestAdmissionOverflow:
    def _tiny_server(self):
        """Admission budget that holds ONE of a presplit 1024-key
        insert's two ~4 KiB frames but not both, plus a long batch
        window so the first frame's bytes stay in flight while the
        second one arrives (the client sends all frames of a batch
        before collecting replies)."""
        return KVServer.create(
            topology="p100:2",
            capacity=1 << 12,
            admission_bytes=6 << 10,
            batch_window=0.25,
        ).start()

    def test_overflow_rejects_with_typed_overloaded(self):
        server = self._tiny_server()
        try:
            keys = unique_keys(1024, seed=6)
            with KVClient(server.address, name="flood") as client:
                with pytest.raises(ServeError) as err:
                    client.insert(keys, keys)
                assert err.value.code == ErrorCode.OVERLOADED
            assert server.stats.get("serve.rejected.overloaded") >= 1
            assert server.stats.get("serve.rejected") >= 1
        finally:
            server.close()

    def test_retry_after_backoff_succeeds(self):
        server = self._tiny_server()
        try:
            keys = unique_keys(1024, seed=7)
            values = random_values(1024, seed=8)
            with KVClient(
                server.address,
                name="patient",
                retry_overloaded=12,
                backoff=0.05,
            ) as client:
                assert client.insert(keys, values) == 1024
                got, found = client.query(keys)
            assert found.all() and np.array_equal(got, values)
            # the retries themselves were counted as rejections
            assert server.stats.get("serve.rejected.overloaded") >= 1
        finally:
            server.close()

    def test_rejected_frames_do_not_leak_budget(self):
        server = self._tiny_server()
        try:
            keys = unique_keys(1024, seed=9)
            with KVClient(
                server.address, name="leaky",
                retry_overloaded=12, backoff=0.05,
            ) as client:
                for _ in range(3):
                    client.insert(keys, keys)
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if server.budget.in_flight_bytes == 0:
                    break
                time.sleep(0.01)
            assert server.budget.in_flight_bytes == 0
        finally:
            server.close()


class TestDrainOnShutdown:
    def test_ops_after_close_are_shutting_down(self, server):
        # single-frame client: the server hangs up right after answering
        # the first post-stop frame, so a presplit fan-out would race it
        with KVClient(server.address, name="late", presplit=False) as client:
            server._stop.set()  # drain mode: reads still alive
            with pytest.raises(ServeError) as err:
                client.query(unique_keys(16, seed=10))
            assert err.value.code == ErrorCode.SHUTTING_DOWN
