"""The three benchmark workloads, run in a child process by ``run.py``.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/harness.py --workload cascade-bulk --seed 1 --seconds 20 --trace 0

Every input comes from ``--seed`` through this file's own numpy code.
Every library option that does not define a workload (kernels, engine,
layout, probing, cache, batch window, ...) is left at its default, so a
change of default shows up in the figures.  Every answer is checked
against an oracle built from the inputs.  The last line of standard
output is the JSON result; ``#`` lines before it describe the run.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` measures
half the time untraced and half with the wrappers of ``probes.py``
installed, and reports the per-layer metrics plus the tracing overhead.
See ``README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import threading
from dataclasses import dataclass, field

import numpy as np

from repro import AsyncCascadeDriver, DistributedHashTable, ReproError
from repro.constants import MAX_KEY, MAX_VALUE
from repro.core import GrowthPolicy
from repro.core.kernels_jit import active_provider
from repro.serve import KVClient, KVServer, ProtocolError, ServeError

from probes import (
    EXACT,
    CacheProbe,
    TableProbe,
    cascade_layers,
    clock,
    exact_counts,
)

TOPOLOGY = "p100:4"
LOAD = 0.9

BULK_PAIRS = 1 << 20
BULK_BATCH = 1 << 18

STREAM_KEYS = 1 << 20
STREAM_START_SLOTS = 1 << 16
STREAM_BATCH = 1 << 14
STREAM_DEPTH = 2
READBACK_BATCH = 1 << 18

SERVE_UNIVERSE = 1 << 16
SERVE_REQUEST = 1024
SERVE_CLIENTS = 2
SERVE_WRITE_SHARE = 0.1
SERVE_ZIPF_S = 1.0
#: requests pregenerated per client; the sequence repeats if a run
#: outlasts it
SERVE_SEQUENCE = 4096
#: replies per client folded into the answer digest (always reached)
SERVE_DIGEST_REPLIES = 256
SERVE_SETUPS = 21
#: requests per client however short ``--seconds`` is
SERVE_MIN_REQUESTS = 64
#: latency percentiles are taken per slice of about this many seconds
#: (roughly 1800 requests, so 18 lie beyond the p99), then the median
#: over slices
SERVE_SLICE_S = 10

#: minimum repetitions of a build however short ``--seconds`` is
MIN_BUILDS = 3

WORKLOADS = ("cascade-bulk", "stream-grow", "serve-zipf")

END_TO_END = {
    "insert_mops": "M/s",
    "query_mops": "M/s",
    "throughput_kops": "k/s",
    "request_p50_ms": "ms",
    "request_p99_ms": "ms",
    "setup_s": "s",
    "bytes_per_pair": "B",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "core.kernel_s": "s",
    "core.probe_windows_per_op": "count",
    "core.cas_success_ratio": "ratio",
    "core.grow_s": "s",
    "core.grow_count": "count",
    "core.rehash_pairs": "count",
    "multigpu.distribution_s": "s",
    "multigpu.stage_s": "s",
    "multigpu.alltoall_bytes": "B",
    "multigpu.load_imbalance": "ratio",
    "cascade.glue_s": "s",
    "cascade.calls": "count",
    "cascade.keys_per_call": "count",
    "pipeline.stall_s": "s",
    "pipeline.commit_s": "s",
    "pipeline.peak_staged_bytes": "B",
    "serve.cascade_ms": "ms",
    "serve.cache_s": "s",
    "serve.cache_hit_rate": "ratio",
    "serve.requests_per_cascade": "count",
    "serve.front_ms": "ms",
    "serve.rejected": "count",
    "model.cascade_s": "s",
    "trace.overhead_frac": "ratio",
    "exact.mismatches": "count",
}


@dataclass
class Tally:
    """Operations attempted and failed, answers checked, answer digest."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)
    digest: "hashlib._Hash" = field(default_factory=hashlib.sha256)
    kernels: set[str] = field(default_factory=set)

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.failed += 1
            if len(self.notes) < 10:
                self.notes.append(f"wrong answer: {what}")

    def error(self, exc: BaseException, what: str) -> None:
        self.failed += 1
        if len(self.notes) < 10:
            self.notes.append(f"{what}: {type(exc).__name__}: {exc}")


def unique_keys(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.choice(MAX_KEY + 1, size=n, replace=False).astype(np.uint32)


def random_values(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.integers(0, MAX_VALUE, size=n, dtype=np.uint32, endpoint=True)


def pairs_match(table, keys: np.ndarray, values: np.ndarray) -> bool:
    """``len`` agrees with ``export`` and the stored pairs equal the oracle's."""
    ek, ev = table.export()
    if not len(table) == ek.shape[0] == keys.shape[0]:
        return False
    got, want = np.argsort(ek), np.argsort(keys)
    return bool(
        np.array_equal(ek[got], keys[want]) and np.array_equal(ev[got], values[want])
    )


def modelled_bytes_per_pair(table) -> float:
    return sum(s.table_bytes for s in table.shards) / max(len(table), 1)


def median(xs) -> float:
    xs = list(xs)
    return float(statistics.median(xs)) if xs else 0.0


def rate(n: float, seconds: float, unit: float) -> float:
    return n / seconds / unit if seconds > 0 else 0.0


def percentile(xs, q: float) -> float:
    return float(np.percentile(xs, q)) if len(xs) else 0.0


def defaults_seen(table) -> dict:
    """Options the workloads leave at the library default, as resolved."""
    shard = table.shards[0]
    return {
        "kernels_requested": table.kernels,
        "engine": table.engine.name,
        "distribution": table.distribution,
        "layout": table.layout,
        "probing": shard.config.probing,
        "group_size": shard.config.group_size,
    }


# -- cascade-bulk -------------------------------------------------------------


@dataclass
class BulkInputs:
    keys: np.ndarray
    values: np.ndarray
    queries: np.ndarray
    query_found: np.ndarray
    query_values: np.ndarray
    erase_keys: np.ndarray
    final_keys: np.ndarray
    final_values: np.ndarray


def bulk_inputs(seed: int) -> BulkInputs:
    rng = np.random.default_rng([seed, 1])
    n = BULK_PAIRS
    both = unique_keys(rng, 2 * n)
    keys, absent = both[:n], both[n:]
    values = random_values(rng, n)
    hit = rng.permutation(n)[: n // 2]
    queries = np.concatenate([keys[hit], absent[: n // 2]])
    found = np.concatenate([np.ones(n // 2, bool), np.zeros(n // 2, bool)])
    answers = np.concatenate([values[hit], np.zeros(n // 2, np.uint32)])
    order = rng.permutation(n)
    erased = rng.permutation(n)[: n // 2]
    keep = np.ones(n, bool)
    keep[erased] = False
    return BulkInputs(
        keys, values, queries[order], found[order], answers[order],
        keys[erased], keys[keep], values[keep],
    )


def bulk_build(inp: BulkInputs, tally: Tally, trace: bool) -> dict:
    """One fresh table: insert, mixed queries, erase half, check the rest."""
    t0 = clock()
    table = DistributedHashTable.for_load_factor(TOPOLOGY, BULK_PAIRS, LOAD)
    _, found, _ = table.query(inp.queries[:BULK_BATCH])
    setup = clock() - t0
    tally.check(not found.any(), "warm query on an empty table found a key")
    probe = TableProbe(table) if trace else None
    digest = hashlib.sha256()
    times = {"insert": 0.0, "query": 0.0, "erase": 0.0}
    latencies = []
    try:
        for i in range(0, BULK_PAIRS, BULK_BATCH):
            sl = slice(i, i + BULK_BATCH)
            tally.attempted += 1
            t = clock()
            report = table.insert(inp.keys[sl], inp.values[sl])
            latencies.append(clock() - t)
            times["insert"] += latencies[-1]
            tally.kernels.add(report.kernels)
        for i in range(0, BULK_PAIRS, BULK_BATCH):
            sl = slice(i, i + BULK_BATCH)
            tally.attempted += 1
            t = clock()
            values, found, _ = table.query(inp.queries[sl])
            latencies.append(clock() - t)
            times["query"] += latencies[-1]
            tally.check(
                np.array_equal(found, inp.query_found[sl])
                and np.array_equal(values, inp.query_values[sl]),
                f"query batch at {i}",
            )
            digest.update(found.tobytes())
            digest.update(values.tobytes())
        for i in range(0, BULK_PAIRS // 2, BULK_BATCH):
            tally.attempted += 1
            t = clock()
            erased, _ = table.erase(inp.erase_keys[i : i + BULK_BATCH])
            latencies.append(clock() - t)
            times["erase"] += latencies[-1]
            tally.check(bool(erased.all()), f"erase batch at {i}")
            digest.update(erased.tobytes())
    except ReproError as exc:
        tally.error(exc, "cascade")
    else:
        tally.check(
            pairs_match(table, inp.final_keys, inp.final_values),
            "stored pairs after the erase",
        )
    out = {
        "setup_s": setup,
        "times": times,
        "latencies": latencies,
        "digest": digest.hexdigest(),
        "bytes_per_pair": modelled_bytes_per_pair(table),
        "defaults": defaults_seen(table),
        "probe": probe,
    }
    table.free()
    return out


def bulk_rates(build: dict) -> dict:
    t = build["times"]
    n = BULK_PAIRS
    return {
        "insert_mops": rate(n, t["insert"], 1e6),
        "query_mops": rate(n, t["query"], 1e6),
        "throughput_kops": rate(2.5 * n, sum(t.values()), 1e3),
    }


# -- stream-grow ----------------------------------------------------------------


@dataclass
class StreamInputs:
    keys: np.ndarray
    values: np.ndarray


def stream_inputs(seed: int) -> StreamInputs:
    rng = np.random.default_rng([seed, 2])
    return StreamInputs(unique_keys(rng, STREAM_KEYS), random_values(rng, STREAM_KEYS))


def stream_build(inp: StreamInputs, tally: Tally, trace: bool) -> dict:
    """Ingest into a growing table through the depth-2 pipeline, read back."""
    t0 = clock()
    table = DistributedHashTable(
        STREAM_START_SLOTS, topology=TOPOLOGY, growth=GrowthPolicy()
    )
    driver = AsyncCascadeDriver(table, depth=STREAM_DEPTH)
    _, found, _ = table.query(inp.keys[:STREAM_BATCH])
    setup = clock() - t0
    tally.check(not found.any(), "warm query on an empty table found a key")
    probe = TableProbe(table) if trace else None
    pulls: list[float] = []

    def batches():
        for i in range(0, STREAM_KEYS, STREAM_BATCH):
            tally.attempted += 1
            pulls.append(clock())
            yield inp.keys[i : i + STREAM_BATCH], inp.values[i : i + STREAM_BATCH]

    digest = hashlib.sha256()
    result = None
    ingest = readback = 0.0
    try:
        t = clock()
        result = driver.insert_stream(batches())
        ingest = clock() - t
        pulls.append(t + ingest)
        for i in range(0, STREAM_KEYS, READBACK_BATCH):
            sl = slice(i, i + READBACK_BATCH)
            tally.attempted += 1
            t = clock()
            values, found, report = table.query(inp.keys[sl])
            readback += clock() - t
            tally.kernels.add(report.kernels)
            tally.check(
                bool(found.all()) and np.array_equal(values, inp.values[sl]),
                f"read-back batch at {i}",
            )
            digest.update(found.tobytes())
            digest.update(values.tobytes())
        tally.check(
            pairs_match(table, inp.keys, inp.values), "stored pairs after the stream"
        )
        tally.check(result.num_ops == STREAM_KEYS, "streamed op count")
    except ReproError as exc:
        tally.error(exc, "stream")
    out = {
        "setup_s": setup,
        "ingest_s": ingest,
        "readback_s": readback,
        "latencies": list(np.diff(pulls)) if result is not None else [],
        "digest": digest.hexdigest(),
        "bytes_per_pair": modelled_bytes_per_pair(table),
        "defaults": defaults_seen(table),
        "probe": probe,
        "result": result,
    }
    driver.close()
    table.free()
    return out


def stream_rates(build: dict) -> dict:
    n = STREAM_KEYS
    return {
        "insert_mops": rate(n, build["ingest_s"], 1e6),
        "query_mops": rate(n, build["readback_s"], 1e6),
        "throughput_kops": rate(2 * n, build["ingest_s"] + build["readback_s"], 1e3),
    }


# -- build loop shared by cascade-bulk and stream-grow ---------------------------


def run_builds(build_fn, rates_fn, inp, tally: Tally, seconds: float, trace: bool):
    builds = []
    deadline = clock() + seconds
    while len(builds) < MIN_BUILDS or clock() < deadline:
        b = build_fn(inp, tally, trace)
        builds.append(b)
        if tally.failed:
            break
    digests = {b["digest"] for b in builds}
    tally.check(len(digests) == 1, "answer digest differs between builds")
    tally.digest.update(builds[0]["digest"].encode())
    return builds, [rates_fn(b) for b in builds]


def build_e2e(builds, rates) -> dict:
    # latency percentiles are taken within each build (10 calls on
    # cascade-bulk, 64 batches on stream-grow), then the median over
    # builds, so one disturbed build cannot set the tail
    return {
        "insert_mops": median(r["insert_mops"] for r in rates),
        "query_mops": median(r["query_mops"] for r in rates),
        "throughput_kops": median(r["throughput_kops"] for r in rates),
        "request_p50_ms": median(percentile(b["latencies"], 50) for b in builds) * 1e3,
        "request_p99_ms": median(percentile(b["latencies"], 99) for b in builds) * 1e3,
        "setup_s": median(b["setup_s"] for b in builds),
        "bytes_per_pair": builds[-1]["bytes_per_pair"],
        "samples": sum(len(b["latencies"]) for b in builds),
    }


def build_layers(builds, workload: str) -> dict:
    """Per-layer figures per build (mean over the traced builds)."""
    per_build = []
    counts = []
    for b in builds:
        probe = b["probe"]
        layers = cascade_layers(probe.cascades)
        layers["multigpu.stage_s"] = probe.stage_s
        if workload == "stream-grow":
            layers["pipeline.commit_s"] = probe.commit_s
            layers["pipeline.stall_s"] = b["result"].stall_seconds
            layers["pipeline.peak_staged_bytes"] = b["result"].peak_staged_bytes
        per_build.append(layers)
        counts.append(exact_counts(probe.cascades))
    out = {k: sum(d[k] for d in per_build) / len(per_build) for k in per_build[0]}
    # exact counts are the first build's, not a mean that could round them
    out.update(zip(EXACT, counts[0]))
    out["exact.mismatches"] = sum(1 for c in counts if c != counts[0])
    return out


# -- serve-zipf -------------------------------------------------------------------


@dataclass
class ServeInputs:
    keys: np.ndarray
    values: np.ndarray
    #: per client: (rank index per key, write flag) of each request
    requests: list[tuple[np.ndarray, np.ndarray]]


def serve_inputs(seed: int) -> ServeInputs:
    rng = np.random.default_rng([seed, 3])
    keys = unique_keys(rng, SERVE_UNIVERSE)
    values = random_values(rng, SERVE_UNIVERSE)
    weights = 1.0 / np.arange(1, SERVE_UNIVERSE + 1) ** SERVE_ZIPF_S
    cdf = np.cumsum(weights / weights.sum())
    requests = []
    for c in range(SERVE_CLIENTS):
        crng = np.random.default_rng([seed, 3, c])
        u = crng.random((SERVE_SEQUENCE, SERVE_REQUEST))
        ranks = np.minimum(np.searchsorted(cdf, u), SERVE_UNIVERSE - 1)
        writes = crng.random(SERVE_SEQUENCE) < SERVE_WRITE_SHARE
        requests.append((ranks.astype(np.uint16), writes))
    # rank r is the r-th hottest key; the universe is already in random order
    return ServeInputs(keys, values, requests)


class ServeSetup:
    """A prefilled table behind a started server and connected clients."""

    def __init__(self, inp: ServeInputs, tally: Tally, address: str):
        self.inp = inp
        t0 = clock()
        self.table = DistributedHashTable.for_load_factor(
            TOPOLOGY, SERVE_UNIVERSE, LOAD
        )
        _, found, _ = self.table.query(inp.keys[:SERVE_REQUEST])
        self.kernels = self.table.insert(inp.keys, inp.values).kernels
        self.address = address
        self.server = KVServer(self.table, address=address).start()
        self.clients = [
            KVClient(address, name=f"perfbench-{c}") for c in range(SERVE_CLIENTS)
        ]
        self.setup_s = clock() - t0
        tally.check(not found.any(), "warm query on an empty table found a key")

    def close(self) -> None:
        for c in self.clients:
            c.close()
        self.server.close()
        self.table.free()
        if os.path.exists(self.address):
            os.unlink(self.address)


def serve_window(s: ServeSetup, tally: Tally, seconds: float, trace: bool) -> dict:
    """Closed-loop traffic from every client for ``seconds``."""
    inp = s.inp
    probe = TableProbe(s.table) if trace else None
    cache_probe = (
        CacheProbe(s.server.cache) if trace and s.server.cache is not None else None
    )
    before = s.server.snapshot()["counters"]
    # per client: (start offset in the window, latency, was a write)
    samples: list[list[tuple[float, float, bool]]] = [[] for _ in s.clients]
    digests = [hashlib.sha256() for _ in s.clients]
    lock = threading.Lock()
    t0 = clock()
    deadline = t0 + seconds

    def client_loop(c: int) -> None:
        client = s.clients[c]
        ranks, writes = inp.requests[c]
        j = 0
        while clock() < deadline or j < SERVE_MIN_REQUESTS:
            idx = ranks[j % SERVE_SEQUENCE]
            write = bool(writes[j % SERVE_SEQUENCE])
            keys = inp.keys[idx]
            want = inp.values[idx]
            with lock:
                tally.attempted += 1
            try:
                t = clock()
                if write:
                    acked = client.insert(keys, want)
                    dt = clock() - t
                    good = acked == SERVE_REQUEST
                    answer = np.array([acked], np.int64).tobytes()
                else:
                    values, found = client.query(keys)
                    dt = clock() - t
                    good = bool(found.all()) and np.array_equal(values, want)
                    answer = found.tobytes() + values.tobytes()
            except (ServeError, ProtocolError, OSError) as exc:
                # OSError covers the client's socket timeout: a wedged
                # server ends this client's loop instead of the run
                with lock:
                    tally.error(exc, f"client {c} request {j}")
                return
            with lock:
                tally.check(good, f"client {c} request {j}")
            samples[c].append((t - t0, dt, write))
            if j < SERVE_DIGEST_REPLIES:
                digests[c].update(answer)
            j += 1

    threads = [
        threading.Thread(target=client_loop, args=(c,), name=f"perfbench-client-{c}")
        for c in range(len(s.clients))
    ]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    elapsed = clock() - t0
    after = s.server.snapshot()["counters"]
    for d in digests:
        tally.digest.update(d.hexdigest().encode())
    tally.check(
        pairs_match(s.table, inp.keys, inp.values), "stored pairs after serving"
    )
    return {
        "seconds": seconds,
        "elapsed": elapsed,
        "samples": [x for per in samples for x in per],
        "delta": {k: after.get(k, 0) - before.get(k, 0) for k in after},
        "probe": probe,
        "cache_probe": cache_probe,
        "bytes_per_pair": modelled_bytes_per_pair(s.table),
    }


def serve_e2e(w: dict) -> dict:
    lat = [dt for _, dt, _ in w["samples"]]
    reads = [dt for _, dt, write in w["samples"] if not write]
    writes = [dt for _, dt, write in w["samples"] if write]
    n = max(1, round(w["seconds"] / SERVE_SLICE_S))
    slices: list[list[float]] = [[] for _ in range(n)]
    for start, dt, _ in w["samples"]:
        slices[min(int(start / w["seconds"] * n), n - 1)].append(dt)
    return {
        "insert_mops": rate(len(writes) * SERVE_REQUEST, sum(writes), 1e6),
        "query_mops": rate(len(reads) * SERVE_REQUEST, sum(reads), 1e6),
        "throughput_kops": rate(len(lat) * SERVE_REQUEST, w["elapsed"], 1e3),
        "request_p50_ms": median(percentile(x, 50) for x in slices) * 1e3,
        "request_p99_ms": median(percentile(x, 99) for x in slices) * 1e3,
        "bytes_per_pair": w["bytes_per_pair"],
        "samples": len(lat),
    }


def serve_layers(w: dict) -> dict:
    probe, delta = w["probe"], w["delta"]
    out = cascade_layers(probe.cascades)
    out["multigpu.stage_s"] = probe.stage_s
    n = len(probe.cascades)
    batches = delta.get("serve.batches", 0)
    hits = delta.get("serve.cache.hits", 0)
    lookups = hits + delta.get("serve.cache.misses", 0)
    cache_s = w["cache_probe"].seconds if w["cache_probe"] is not None else 0.0
    cascade_s = sum(c.wall for c in probe.cascades)
    lat = [dt for _, dt, _ in w["samples"]]
    out.update(
        {
            "serve.cascade_ms": cascade_s / n * 1e3 if n else 0.0,
            "serve.cache_s": cache_s,
            "serve.cache_hit_rate": hits / lookups if lookups else 0.0,
            "serve.requests_per_cascade": (
                delta.get("serve.coalesced_requests", 0) / batches if batches else 0.0
            ),
            # a request waits on its batch's cascade and cache calls; the
            # rest of its latency is protocol, queueing and coalescing
            "serve.front_ms": (
                (statistics.fmean(lat) - (cascade_s + cache_s) / batches) * 1e3
                if batches and lat
                else 0.0
            ),
            "serve.rejected": delta.get("serve.rejected", 0),
        }
    )
    return out


def serve_address(tag: str) -> str:
    # relative to the checkout root (the working directory), which keeps
    # the unix socket path short and inside the checkout
    return os.path.join(".bench_build", f"kv-{os.getpid()}-{tag}.sock")


# -- entry point ---------------------------------------------------------------


def preflight() -> None:
    """Import-time and once-per-checkout work, kept out of every timing."""
    table = DistributedHashTable(1 << 12, topology=TOPOLOGY)
    keys = np.arange(1 << 10, dtype=np.uint32)
    table.insert(keys, keys)
    table.query(keys)
    table.erase(keys)
    table.free()


def run(workload: str, seed: int, seconds: float, trace: bool):
    tally = Tally()
    info: dict = {}
    window = seconds / 2 if trace else seconds
    if workload in ("cascade-bulk", "stream-grow"):
        if workload == "cascade-bulk":
            inp, build_fn, rates_fn = bulk_inputs(seed), bulk_build, bulk_rates
        else:
            inp, build_fn, rates_fn = stream_inputs(seed), stream_build, stream_rates
        builds, rates = run_builds(build_fn, rates_fn, inp, tally, window, False)
        e2e = build_e2e(builds, rates)
        info["defaults"] = builds[0]["defaults"]
        if trace:
            traced, traced_rates = run_builds(
                build_fn, rates_fn, inp, tally, window, True
            )
            layers = build_layers(traced, workload)
            traced_tput = median(r["throughput_kops"] for r in traced_rates)
            layers["trace.overhead_frac"] = e2e["throughput_kops"] / traced_tput - 1
            info["builds"] = [len(builds), len(traced)]
        else:
            info["builds"] = len(builds)
    else:
        inp = serve_inputs(seed)
        setups = []
        for i in range(SERVE_SETUPS):
            s = ServeSetup(inp, tally, serve_address(str(i)))
            setups.append(s.setup_s)
            if i < SERVE_SETUPS - 1:
                s.close()
        info["defaults"] = dict(
            defaults_seen(s.table),
            cache=s.server.cache is not None,
            batch_window=s.server.batch_window,
            max_batch=s.server.max_batch,
        )
        try:
            w = serve_window(s, tally, window, False)
        finally:
            s.close()
        e2e = serve_e2e(w)
        e2e["setup_s"] = median(setups)
        tally.kernels.add(s.kernels)
        if trace:
            s = ServeSetup(inp, tally, serve_address("traced"))
            try:
                tw = serve_window(s, tally, window, True)
            finally:
                s.close()
            layers = serve_layers(tw)
            layers["trace.overhead_frac"] = (
                e2e["throughput_kops"] / serve_e2e(tw)["throughput_kops"] - 1
            )
            tally.kernels.update(c.report.kernels for c in tw["probe"].cascades)
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    info["latency_samples"] = e2e["samples"]
    if trace:
        # a layer the workload does not run reads 0
        metrics = {k: layers.get(k, 0) for k in PER_LAYER}
        units = PER_LAYER
    else:
        metrics = {k: e2e[k] for k in END_TO_END}
        units = END_TO_END
    return tally, info, {k: {"value": metrics[k], "unit": units[k]} for k in units}


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` when there is one."""
    head = os.path.join(".git", "HEAD")
    if not os.path.exists(head):
        return "unknown (not a git checkout)"
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(".git", ref[5:])
    if os.path.exists(path):
        with open(path) as fh:
            return fh.read().strip()
    return "unknown (packed ref)"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    preflight()
    tally, info, metrics = run(args.workload, args.seed, args.seconds, bool(args.trace))
    host = {
        "nproc": len(os.sched_getaffinity(0)),
        "jit_provider": active_provider(),
        "kernels_run": sorted(tally.kernels),
        "git_sha": git_sha(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }
    print("# host " + json.dumps(host, sort_keys=True))
    print("# options left at library default " + json.dumps(info.pop("defaults")))
    print("# run " + json.dumps(info, sort_keys=True))
    print(f"# answer digest {tally.digest.hexdigest()}")
    print(f"# error_rate = {tally.failed / max(tally.attempted, 1)!r}")
    for note in tally.notes:
        print(f"# {note}")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']!r} {m['unit']}")
    result = {
        "correct": tally.failed == 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
