"""Soak test: concurrent clients vs a serial replay of the op log.

The coalescer executes every mutation batch on one thread, so the
server's op log is a *total order* over all clients' inserts and
erases.  The contract under soak: after any concurrent run, replaying
that log serially into a fresh table produces a **bit-identical** final
table — same pairs, same values, nothing lost, duplicated, or
reordered within a batch.

The tier-1 variant drives thread-backed clients; the slow variant runs
real client *processes* against the unix socket.
"""

from __future__ import annotations

import multiprocessing
import threading

import numpy as np
import pytest

from repro.multigpu.distributed_table import DistributedHashTable
from repro.serve import KVClient, KVServer
from repro.workloads.distributions import random_values, unique_keys


def _sorted_pairs(table: DistributedHashTable):
    keys, values = table.export()
    order = np.lexsort((values, keys))
    return keys[order], values[order]


def _replay(oplog, *, topology: str, capacity: int):
    fresh = DistributedHashTable(capacity, topology=topology)
    try:
        for op, keys, values in oplog:
            if op == "insert":
                fresh.insert(keys, values)
            else:
                fresh.erase(keys)
        return _sorted_pairs(fresh)
    finally:
        fresh.free()


def _client_script(name: str, seed: int, batches: int, batch_size: int):
    """A deterministic mixed insert/query/erase schedule for one client."""
    rng = np.random.default_rng(seed)
    plan = []
    for b in range(batches):
        keys = unique_keys(batch_size, seed=seed * 1000 + b)
        values = random_values(batch_size, seed=seed * 2000 + b)
        plan.append(("insert", keys, values))
        plan.append(("query", keys, None))
        erase_n = int(batch_size * rng.uniform(0.1, 0.5))
        plan.append(("erase", keys[:erase_n], None))
    return plan


def _run_script(address, name, plan, errors=None):
    try:
        with KVClient(address, name=name, retry_overloaded=8) as client:
            for op, keys, values in plan:
                if op == "insert":
                    client.insert(keys, values)
                elif op == "query":
                    client.query(keys)
                else:
                    client.erase(keys)
    except BaseException as exc:
        if errors is None:
            raise
        errors.append(exc)


def _soak(server, *, clients: int, batches: int, batch_size: int):
    errors: list[BaseException] = []
    threads = [
        threading.Thread(
            target=_run_script,
            args=(
                server.address,
                f"soak-{c}",
                _client_script(f"soak-{c}", seed=c + 1, batches=batches,
                               batch_size=batch_size),
                errors,
            ),
            daemon=True,
        )
        for c in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not errors, errors


def _assert_soak_replays(*, clients: int, batches: int, **server_kwargs):
    """Soak a 4-GPU server, then replay its op log into a fresh table."""
    server = KVServer.create(
        topology="p100:4", capacity=1 << 14, oplog=True, **server_kwargs
    ).start()
    try:
        _soak(server, clients=clients, batches=batches, batch_size=512)
        live_keys, live_values = _sorted_pairs(server.table)
        replay_keys, replay_values = _replay(
            server.oplog, topology="p100:4", capacity=1 << 14
        )
    finally:
        server.close()
    assert np.array_equal(live_keys, replay_keys)
    assert np.array_equal(live_values, replay_values)


class TestSoakSerialReplay:
    def test_concurrent_clients_replay_bit_identical(self):
        """Tier-1 small soak: 3 thread clients, mixed mutations."""
        _assert_soak_replays(clients=3, batches=4, batch_window=0.001)

    def test_oplog_batches_are_coalesced_units(self):
        """Each log entry is one executed cascade: key counts in the
        log sum to the keys the counters saw."""
        server = KVServer.create(
            topology="p100:2", capacity=1 << 13, oplog=True
        ).start()
        try:
            _soak(server, clients=2, batches=3, batch_size=256)
            logged = sum(int(k.size) for _op, k, _v in server.oplog)
            counters = server.stats.snapshot()
            assert logged == (
                counters["serve.ops.insert"] + counters["serve.ops.erase"]
            )
        finally:
            server.close()

    def test_default_window_soak_replays_bit_identical(self):
        """The same identity at the default batch window."""
        _assert_soak_replays(clients=2, batches=3)


def _process_client(address, name, seed, batches, batch_size):
    plan = _client_script(name, seed=seed, batches=batches,
                          batch_size=batch_size)
    _run_script(address, name, plan)


class TestSoakMultiProcess:
    @pytest.mark.slow
    def test_soak_with_process_clients_replays_bit_identical(self):
        """Real client processes over the unix socket (the multi-user
        deployment shape), then the same serial-replay identity."""
        server = KVServer.create(
            topology="p100:4", capacity=1 << 15, oplog=True, batch_window=0.002
        ).start()
        try:
            ctx = multiprocessing.get_context("spawn")
            procs = [
                ctx.Process(
                    target=_process_client,
                    args=(server.address, f"proc-{i}", i + 1, 4, 1024),
                )
                for i in range(4)
            ]
            for proc in procs:
                proc.start()
            for proc in procs:
                proc.join(timeout=180)
            assert all(proc.exitcode == 0 for proc in procs), [
                proc.exitcode for proc in procs
            ]
            live = _sorted_pairs(server.table)
            replayed = _replay(server.oplog, topology="p100:4", capacity=1 << 15)
        finally:
            server.close()
        assert np.array_equal(live[0], replayed[0])
        assert np.array_equal(live[1], replayed[1])
