"""End-to-end server/client basics over a unix socket.

One live :class:`KVServer` per test class (function-scoped where the
test mutates global counters), real sockets, real threads — these are
the serving layer's integration smoke: inserts visible to queries,
erases visible to both, read-your-writes across mutation, per-client
accounting, and the STATS/snapshot surfaces.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.serve import KVClient, KVServer
from repro.serve.server import MAX_CLIENT_METRICS
from repro.workloads.distributions import random_values, unique_keys


@pytest.fixture
def server():
    srv = KVServer.create(
        topology="p100:4", capacity=1 << 13, batch_window=0.001
    ).start()
    yield srv
    srv.close()


@pytest.fixture
def client(server):
    with KVClient(server.address, name="it-client") as c:
        yield c


class TestRoundTrips:
    def test_insert_then_query(self, server, client):
        keys = unique_keys(2048, seed=3)
        values = random_values(2048, seed=4)
        assert client.insert(keys, values) == 2048
        got, found = client.query(keys)
        assert found.all()
        assert np.array_equal(got, values)
        assert len(server.table) == 2048

    def test_missing_keys_take_the_default(self, client):
        keys = unique_keys(64, seed=5)
        got, found = client.query(keys, default=0xDEAD)
        assert not found.any()
        assert (got == 0xDEAD).all()

    def test_erase_then_query(self, client):
        keys = unique_keys(512, seed=6)
        values = random_values(512, seed=7)
        client.insert(keys, values)
        erased = client.erase(keys[:256])
        assert erased.all()
        _got, found = client.query(keys)
        assert not found[:256].any()
        assert found[256:].all()

    def test_empty_batches_round_trip(self, client):
        empty = np.empty(0, dtype=np.uint32)
        assert client.insert(empty, empty) == 0
        values, found = client.query(empty)
        assert values.size == 0 and found.size == 0
        assert client.erase(empty).size == 0

    def test_presplit_and_plain_agree(self, server):
        keys = unique_keys(4096, seed=8)
        values = random_values(4096, seed=9)
        with KVClient(server.address, name="presplit") as pre:
            pre.insert(keys, values)
            split_values, split_found = pre.query(keys)
        with KVClient(server.address, name="plain", presplit=False) as plain:
            plain_values, plain_found = plain.query(keys)
        assert split_found.all() and plain_found.all()
        assert np.array_equal(split_values, plain_values)
        assert np.array_equal(split_values, values)

    def test_hello_learns_topology(self, server, client):
        assert client.num_gpus == server.table.num_gpus


class TestReadYourWrites:
    def test_overwrite_is_visible(self, server, client):
        keys = unique_keys(128, seed=12)
        values = random_values(128, seed=13)
        client.insert(keys, values)
        client.query(keys)
        client.insert(keys, values + 1)  # overwrite through the server
        got, found = client.query(keys)
        assert found.all()
        assert np.array_equal(got, values + 1), "served a stale value"

    def test_erased_keys_are_not_found(self, server, client):
        keys = unique_keys(128, seed=14)
        values = random_values(128, seed=15)
        client.insert(keys, values)
        client.query(keys)
        client.query(keys)
        client.erase(keys)
        got, found = client.query(keys, default=7)
        assert not found.any()
        assert (got == 7).all()


class TestAccountingSurfaces:
    def test_counters_and_snapshot(self, server, client):
        keys = unique_keys(256, seed=17)
        client.insert(keys, keys)
        client.query(keys)
        client.erase(keys[:10])
        counters = server.stats.snapshot()
        assert counters["serve.connections"] >= 1
        assert counters["serve.ops.insert"] == 256
        assert counters["serve.ops.query"] == 256
        assert counters["serve.ops.erase"] == 10
        assert counters["serve.batches"] >= 3
        assert counters["serve.client.it-client.ops"] == 522
        snap = server.snapshot()
        assert snap["table"]["size"] == 246  # 256 inserted - 10 erased
        assert snap["admission"]["in_flight_bytes"] == 0
        assert set(snap) == {"counters", "table", "admission"}
        assert server.cache is None
        # per-client counters stop at MAX_CLIENT_METRICS names; every
        # later name is folded into one "other" counter
        names = [f"c{i}" for i in range(MAX_CLIENT_METRICS + 3)]
        for name in names:
            with KVClient(server.address, name=name) as c:
                c.query(keys[:8])
        # the reply races the counter bump by a few microseconds
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            counters = server.stats.snapshot()
            if counters.get("serve.client.other.ops") == 4 * 8:
                break
            time.sleep(0.01)
        per_client = {
            k for k in counters if k.startswith("serve.client.")
        }
        assert len(per_client) == MAX_CLIENT_METRICS + 1
        assert "serve.client.it-client.ops" in per_client
        assert "serve.client.other.ops" in per_client
        assert counters["serve.client.other.ops"] == 4 * 8
        for name in names[: MAX_CLIENT_METRICS - 1]:
            assert counters[f"serve.client.{name}.ops"] == 8

    def test_stats_frame_matches_server_snapshot(self, server, client):
        keys = unique_keys(64, seed=18)
        client.insert(keys, keys)
        # the reply races the counter bump by a few microseconds
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            over_the_wire = client.stats()
            if over_the_wire["counters"].get("serve.ops.insert") == 64:
                break
            time.sleep(0.01)
        assert over_the_wire["table"]["size"] == len(server.table)
        assert over_the_wire["counters"]["serve.ops.insert"] == 64

    def test_reconnect_under_same_name_is_counted(self, server):
        with KVClient(server.address, name="bouncer") as c:
            c.query(unique_keys(8, seed=19))
        with KVClient(server.address, name="bouncer"):
            pass
        assert server.stats.get("serve.reconnect") == 1


class TestLifecycle:
    def test_shutdown_frame_closes_server(self, server):
        client = KVClient(server.address, name="closer")
        client.shutdown_server()
        assert server.wait(timeout=5.0)

    def test_context_manager_cycle(self):
        with KVServer.create(topology="p100:2", capacity=1 << 12) as srv:
            with KVClient(srv.address) as c:
                keys = unique_keys(16, seed=21)
                assert c.insert(keys, keys) == 16

    def test_double_start_rejected(self, server):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            server.start()
