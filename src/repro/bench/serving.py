"""Measured serving-layer benchmark: Zipf clients against one server.

``clients`` concurrent :class:`~repro.serve.client.KVClient` threads
replay Zipf(s) query traffic against one
:class:`~repro.serve.server.KVServer`.  The row records measured wall
clock, served queries/s and client-observed p50/p95 latency — merged
into ``BENCH_wallclock.json`` alongside the engine rows.

Every query is answered from a prefilled universe, and the harness
cross-checks the returned values against the prefill ground truth — a
rate is only meaningful at equal correctness.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass

import numpy as np

from ..errors import ExecutionError
from ..multigpu.distributed_table import DistributedHashTable
from ..multigpu.topology import p100_nvlink_node
from ..obs.protocol import reportable_dict
from ..serve import KVClient, KVServer
from ..workloads.serving import serving_zipf_keys, universe_key_map
from ..workloads.distributions import random_values

__all__ = [
    "ServingRecord",
    "run_serving_suite",
    "format_serving_records",
]

#: untimed query batches per client before the start barrier
_WARMUP_BATCHES = 2


@dataclass
class ServingRecord:
    """One measured serving data point (``BENCH_wallclock.json`` row)."""

    bench: str
    n: int  #: total queries served across all clients
    m: int  #: simulated GPUs behind the server
    clients: int
    s: float  #: Zipf skew exponent of the traffic
    ops_per_s: float
    seconds: float
    p50_ms: float = 0.0
    p95_ms: float = 0.0
    cpus: int = 0

    # v2: the cache on/off column and hit/miss fields removed
    schema_version = 2

    def __post_init__(self):
        if not self.cpus:
            self.cpus = os.cpu_count() or 1

    def to_dict(self) -> dict:
        """:class:`repro.obs.Reportable` serialization (stable keys)."""
        return reportable_dict(
            self,
            {
                "bench": self.bench,
                "n": self.n,
                "m": self.m,
                "clients": self.clients,
                "s": self.s,
                "ops_per_s": self.ops_per_s,
                "seconds": self.seconds,
                "p50_ms": self.p50_ms,
                "p95_ms": self.p95_ms,
                "cpus": self.cpus,
            },
        )


def _client_worker(
    address,
    name: str,
    warmup: list[tuple[np.ndarray, np.ndarray]],
    batches: list[tuple[np.ndarray, np.ndarray]],
    latencies: list[float],
    errors: list[BaseException],
    barrier: threading.Barrier,
) -> None:
    """One bench client: replay query batches, record per-call latency.

    Each batch arrives as ``(keys, expected_values)`` with the ground
    truth precomputed, so the timed loop is purely protocol + a memcmp
    — the harness stays off the clock's critical path.  ``warmup``
    batches run before the start barrier (allocator and plan-cache
    warm) and are excluded from the measurement.  Presplit is off: the
    server coalesces and shards anyway, so the client-side sort would
    only add overhead.
    """
    try:
        with KVClient(
            address, name=name, presplit=False, retry_overloaded=8
        ) as client:
            for keys, _want in warmup:
                client.query(keys)
            barrier.wait()
            for keys, want in batches:
                t0 = time.perf_counter()
                values, found = client.query(keys)
                latencies.append(time.perf_counter() - t0)
                if not found.all():
                    raise ExecutionError(
                        f"{name}: {int((~found).sum())} prefilled keys "
                        "reported missing"
                    )
                if not np.array_equal(values, want):
                    bad = int((values != want).sum())
                    raise ExecutionError(
                        f"{name}: {bad} keys answered with wrong values"
                    )
    except BaseException as exc:  # surfaced by the coordinator
        errors.append(exc)
        try:
            barrier.abort()
        except threading.BrokenBarrierError:  # pragma: no cover
            pass


def run_serving_suite(
    *,
    num_gpus: int = 4,
    clients: int = 4,
    batches_per_client: int = 16,
    batch_size: int = 32768,
    s: float = 1.0,
    universe: int = 4096,
    seed: int = 11,
) -> list[ServingRecord]:
    """One served-query row for ``clients`` Zipf(s) query streams."""
    capacity = max(universe * 2, 1 << 12)
    table = DistributedHashTable(capacity, topology=p100_nvlink_node(num_gpus))
    server = KVServer(
        table,
        own_table=True,
        batch_window=0.001,
        # let one coalesced cascade hold every client's in-flight batch —
        # the cascade's fixed cost is what coalescing exists to amortize
        max_batch=max(1 << 15, clients * batch_size),
    ).start()
    try:
        prefill_keys = universe_key_map(universe, seed=seed)
        prefill_values = random_values(universe, seed=seed ^ 0xBEEF)
        with KVClient(server.address, name="prefill") as loader:
            loader.insert(prefill_keys, prefill_values)
        key_order = np.argsort(prefill_keys)
        expected_keys = prefill_keys[key_order]
        expected_values = prefill_values[key_order]

        def make_batch(c: int, b: int) -> tuple[np.ndarray, np.ndarray]:
            keys = serving_zipf_keys(
                batch_size,
                s,
                universe=universe,
                seed=seed + 7919 * (c * 131 + b + 1),
                map_seed=seed,
            )
            want = expected_values[np.searchsorted(expected_keys, keys)]
            return keys, want

        rounds = _WARMUP_BATCHES + batches_per_client
        per_client = [
            [make_batch(c, b) for b in range(rounds)] for c in range(clients)
        ]
        latencies: list[float] = []
        errors: list[BaseException] = []
        barrier = threading.Barrier(clients + 1)
        threads = [
            threading.Thread(
                target=_client_worker,
                args=(
                    server.address,
                    f"bench-{c}",
                    per_client[c][:_WARMUP_BATCHES],
                    per_client[c][_WARMUP_BATCHES:],
                    latencies,
                    errors,
                    barrier,
                ),
                daemon=True,
            )
            for c in range(clients)
        ]
        for thread in threads:
            thread.start()
        barrier.wait()
        t0 = time.perf_counter()
        for thread in threads:
            thread.join()
        seconds = time.perf_counter() - t0
        if errors:
            raise errors[0]
        total = clients * batches_per_client * batch_size
        quantiles = (
            np.quantile(np.asarray(latencies), [0.5, 0.95]) * 1e3
            if latencies
            else np.zeros(2)
        )
        return [
            ServingRecord(
                bench="serving_query",
                n=total,
                m=num_gpus,
                clients=clients,
                s=s,
                ops_per_s=total / seconds if seconds > 0 else 0.0,
                seconds=seconds,
                p50_ms=float(quantiles[0]),
                p95_ms=float(quantiles[1]),
            )
        ]
    finally:
        server.close()


def format_serving_records(records: list[ServingRecord]) -> str:
    """Fixed-width served-query rows."""
    lines = [
        f"{'bench':<16} {'n':>8} {'cl':>3} {'s':>5} "
        f"{'seconds':>8} {'Mops/s':>7} {'p50 ms':>7} {'p95 ms':>7}"
    ]
    for r in records:
        lines.append(
            f"{r.bench:<16} {r.n:>8} {r.clients:>3} {r.s:>5.2f} "
            f"{r.seconds:>8.3f} {r.ops_per_s / 1e6:>7.3f} "
            f"{r.p50_ms:>7.2f} {r.p95_ms:>7.2f}"
        )
    if records:
        lines.append(f"(host cpus: {records[0].cpus})")
    return "\n".join(lines)
