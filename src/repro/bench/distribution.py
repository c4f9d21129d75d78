"""Measured wall-clock comparison of the two distribution paths.

Times the host-side cost of the retrieval cascade's distribution phases
— multisplit, transposition, reverse transposition — under both the
``reference`` implementation (m binary-split sweeps, per-element
provenance, m² mask reversal) and the ``fused`` one (single-pass
counting scatter, index-routed exchange, precomputed inverse
permutation).  Both produce bit-identical outputs and modelled
accounting (property-tested in ``tests/multigpu``); this suite measures
the real seconds the fusion saves, written to ``BENCH_distribution.json``
with the host CPU count.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import ConfigurationError
from ..hashing.partition import hashed_partition
from ..memory.layout import pack_pairs
from ..multigpu.alltoall import (
    reverse_exchange,
    reverse_exchange_fast,
    transpose_exchange,
    transpose_exchange_fast,
)
from ..multigpu.multisplit import multisplit, multisplit_fast
from ..multigpu.partition_table import PartitionTable
from ..multigpu.topology import topology as build_topology
from ..workloads import random_values, unique_keys

__all__ = [
    "DistributionRecord",
    "run_distribution_suite",
    "format_distribution_records",
    "distribution_speedup",
    "write_results",
]

PHASES = ("multisplit", "transpose", "reverse", "total")


@dataclass
class DistributionRecord:
    """One measured phase (the ``BENCH_distribution.json`` row schema)."""

    bench: str  # phase: multisplit | transpose | reverse | total
    n: int
    m: int
    path: str  # "reference" | "fused"
    seconds: float
    ops_per_s: float
    #: host cores the run had (records stay interpretable across boxes)
    cpus: int = 0
    #: scatter backend the fused multisplit resolved ("compiled" when a
    #: JIT provider serviced counting_scatter, else "fast")
    kernels: str = "fast"
    #: slot storage policy of the cascade the phases fed ("aos" | "soa"
    #: | "compact") — the host distribution phases move packed pairs
    #: either way
    layout: str = "aos"

    schema_version = 2

    def __post_init__(self):
        if not self.cpus:
            self.cpus = os.cpu_count() or 1

    def to_dict(self) -> dict:
        """:class:`repro.obs.Reportable` serialization (stable keys)."""
        from ..obs.protocol import reportable_dict

        return reportable_dict(
            self,
            {
                "bench": self.bench,
                "n": self.n,
                "m": self.m,
                "path": self.path,
                "seconds": self.seconds,
                "ops_per_s": self.ops_per_s,
                "cpus": self.cpus,
                "kernels": self.kernels,
                "layout": self.layout,
            },
        )


def write_results(records: list, path: str | Path) -> Path:
    """Persist :class:`repro.obs.Reportable` records as a JSON array of
    row objects."""
    path = Path(path)
    path.write_text(json.dumps([r.to_dict() for r in records], indent=2) + "\n")
    return path


def _time_path(path: str, packed_chunks, partition, topology):
    """One end-to-end distribution pass; returns per-phase seconds."""
    fused = path == "fused"
    split_fn = multisplit_fast if fused else multisplit

    t0 = time.perf_counter()
    splits = [split_fn(chunk, partition) for chunk in packed_chunks]
    t_split = time.perf_counter() - t0

    table = PartitionTable(np.stack([ms.counts for ms in splits]))
    pairs = [ms.pairs for ms in splits]
    offsets = [ms.offsets for ms in splits]
    t0 = time.perf_counter()
    if fused:
        exchange = transpose_exchange_fast(pairs, offsets, table, topology)
    else:
        exchange = transpose_exchange(pairs, offsets, table, topology)
    t_transpose = time.perf_counter() - t0

    # query-shaped answers: one 8-byte word per received element
    answers = [
        (buf >> np.uint64(32)) + np.uint64(1) for buf in exchange.received
    ]
    chunk_sizes = [chunk.shape[0] for chunk in packed_chunks]
    t0 = time.perf_counter()
    if fused:
        rev = reverse_exchange_fast(answers, exchange.routing, topology)
    else:
        rev = reverse_exchange(
            answers, exchange.provenance, chunk_sizes, topology
        )
    t_reverse = time.perf_counter() - t0
    return (t_split, t_transpose, t_reverse), rev.outputs


def run_distribution_suite(
    n: int = 1 << 18,
    *,
    topology=None,
    seed: int = 11,
    repeats: int = 5,
    layout: str = "aos",
) -> list[DistributionRecord]:
    """Both paths on identical chunks; best-of-``repeats`` per phase.

    Cross-checks that the two paths route identical answers before
    reporting any number — a benchmark of a wrong result is worthless.
    """
    if repeats < 1:
        raise ConfigurationError(f"repeats must be >= 1, got {repeats}")
    topology = build_topology(topology)
    m = topology.num_devices
    keys = unique_keys(n, seed=seed)
    values = random_values(n, seed=seed + 1)
    partition = hashed_partition(m)
    bounds = np.linspace(0, n, m + 1).astype(np.int64)
    packed_chunks = [
        pack_pairs(keys[bounds[i] : bounds[i + 1]], values[bounds[i] : bounds[i + 1]])
        for i in range(m)
    ]

    best: dict[tuple[str, str], float] = {}
    outputs: dict[str, list[np.ndarray]] = {}
    for _ in range(repeats):
        for path in ("reference", "fused"):
            (t_split, t_transpose, t_reverse), routed = _time_path(
                path, packed_chunks, partition, topology
            )
            outputs[path] = routed
            for phase, seconds in (
                ("multisplit", t_split),
                ("transpose", t_transpose),
                ("reverse", t_reverse),
                ("total", t_split + t_transpose + t_reverse),
            ):
                key = (phase, path)
                best[key] = min(best.get(key, float("inf")), seconds)

    for ref_out, fused_out in zip(outputs["reference"], outputs["fused"]):
        if ref_out.shape != fused_out.shape or not (ref_out == fused_out).all():
            raise AssertionError(
                "fused and reference paths routed different answers"
            )

    from ..core.kernels_jit import compiled_available

    kernels = "compiled" if compiled_available() else "fast"
    return [
        DistributionRecord(
            bench=phase,
            n=n,
            m=m,
            path=path,
            seconds=best[(phase, path)],
            ops_per_s=n / best[(phase, path)] if best[(phase, path)] > 0 else 0.0,
            kernels=kernels,
            layout=layout,
        )
        for phase in PHASES
        for path in ("reference", "fused")
    ]


def distribution_speedup(
    records: list[DistributionRecord], phase: str = "total"
) -> float:
    """reference/fused wall-clock ratio for one phase (0.0 if missing)."""
    by_path = {r.path: r.seconds for r in records if r.bench == phase}
    ref, fused = by_path.get("reference", 0.0), by_path.get("fused", 0.0)
    return ref / fused if fused > 0 else 0.0


def format_distribution_records(records: list[DistributionRecord]) -> str:
    """Fixed-width table with per-phase fused-vs-reference speedups."""
    reference = {
        (r.bench, r.n, r.m): r.seconds
        for r in records
        if r.path == "reference"
    }
    lines = [
        f"{'phase':<12} {'n':>9} {'m':>2} {'path':<10} "
        f"{'seconds':>10} {'Mops/s':>8} {'vs reference':>12}"
    ]
    for r in records:
        base = reference.get((r.bench, r.n, r.m))
        speedup = (
            f"{base / r.seconds:>11.2f}x" if base and r.seconds else f"{'-':>12}"
        )
        lines.append(
            f"{r.bench:<12} {r.n:>9} {r.m:>2} {r.path:<10} "
            f"{r.seconds:>10.5f} {r.ops_per_s / 1e6:>8.2f} {speedup}"
        )
    if records:
        lines.append(f"(host cpus: {records[0].cpus})")
    return "\n".join(lines)
