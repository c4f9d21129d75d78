"""Partitioned high-capacity table (the paper's §VI workaround).

§V-C observes that single-GPU insertion degrades for capacities over
2 GB ("atomic CAS might degrade if lock-free instructions are issued
across several memory interfaces") and §VI proposes the fix: "the
partitioning of high capacity hash maps into several smaller hash maps
each of size ≤ 2 GB."

:class:`PartitionedWarpDriveTable` implements that: keys route to one of
``k`` sub-tables by a partition hash, each sub-table small enough that
its CAS traffic stays on one memory-interface neighbourhood.  The
functional behaviour is identical to a monolithic table; the win shows
up in the performance model (bench ``bench_ablation_partitioned.py``).
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConfigurationError
from ..exec.engine import ExecutionEngine, ShardKernelTask, create_engine
from ..hashing.partition import PartitionHash, hashed_partition
from ..options import UNSET
from ..perfmodel import calibration as cal
from ..simt.device import Device
from ..utils.validation import check_keys, check_same_length, check_values
from .report import KernelReport
from .table import WarpDriveHashTable

__all__ = ["PartitionedWarpDriveTable"]


class PartitionedWarpDriveTable:
    """A big hash map split into ≤ ``max_partition_bytes`` sub-tables.

    Parameters
    ----------
    capacity:
        Total slot count across sub-tables.
    max_partition_bytes:
        Upper bound per sub-table footprint; defaults to the CAS
        degradation knee (2 GB).
    group_size, p_max, device, probing, layout, growth:
        Forwarded to each sub-table (see
        :class:`~repro.core.config.HashTableConfig`); with a
        :class:`~repro.core.growth.GrowthPolicy` each sub-table grows
        independently as its own load trips the threshold.
    engine, workers:
        Shard-execution backend; sub-tables are disjoint so their bulk
        kernels run concurrently under ``"thread"``/``"process"``
        (:mod:`repro.options`).
    kernels:
        Kernel backend for the sub-table bulk ops: ``"fast"`` (default)
        or ``"compiled"`` (JIT inner loops, bit-identical, auto-falling
        back to ``"fast"`` without a provider — see
        ``docs/compiled_backend.md``).
    """

    def __init__(
        self,
        capacity: int,
        *,
        max_partition_bytes: int | None = None,
        group_size: int = 4,
        p_max: int | None = None,
        device: Device | None = None,
        partition: PartitionHash | None = None,
        engine: str | ExecutionEngine = "serial",
        workers: int | None = None,
        probing: str = UNSET,
        layout: str = UNSET,
        growth=UNSET,
        kernels: str = "fast",
    ):
        if capacity <= 0:
            raise ConfigurationError(f"capacity must be > 0, got {capacity}")
        limit = (
            max_partition_bytes
            if max_partition_bytes is not None
            else cal.CAS_DEGRADE_KNEE_BYTES
        )
        if limit < 8:
            raise ConfigurationError("max_partition_bytes must fit at least one slot")
        self.num_partitions = max(1, math.ceil(capacity * 8 / limit))
        if partition is None:
            partition = hashed_partition(self.num_partitions)
        elif partition.num_parts != self.num_partitions:
            raise ConfigurationError(
                f"partition has {partition.num_parts} parts; "
                f"{self.num_partitions} sub-tables required"
            )
        self.partition = partition
        if kernels not in ("fast", "compiled"):
            raise ConfigurationError(
                f"kernels must be 'fast' or 'compiled', got {kernels!r}"
            )
        self.kernels = kernels
        self.engine = create_engine(engine, workers=workers)
        self._owns_engine = not isinstance(engine, ExecutionEngine)
        sub_capacity = -(-capacity // self.num_partitions)
        kwargs = {
            "group_size": group_size,
            "shared": self.engine.requires_shared_slots,
        }
        if p_max is not None:
            kwargs["p_max"] = p_max
        for opt, val in (("probing", probing), ("layout", layout),
                         ("growth", growth)):
            if val is not UNSET:
                kwargs[opt] = val
        self.subtables = [
            WarpDriveHashTable(sub_capacity, device=device, **kwargs)
            for _ in range(self.num_partitions)
        ]
        self.last_report: KernelReport | None = None

    # -- properties --------------------------------------------------------

    @property
    def capacity(self) -> int:
        return sum(t.capacity for t in self.subtables)

    @property
    def subtable_bytes(self) -> int:
        """Per-sub-table footprint — what the CAS degradation sees."""
        return max(t.table_bytes for t in self.subtables)

    @property
    def table_bytes(self) -> int:
        return sum(t.table_bytes for t in self.subtables)

    def __len__(self) -> int:
        return sum(len(t) for t in self.subtables)

    @property
    def load_factor(self) -> float:
        return len(self) / self.capacity

    # -- operations ----------------------------------------------------------

    def _route(self, keys: np.ndarray) -> list[np.ndarray]:
        parts = self.partition(keys)
        return [np.flatnonzero(parts == p) for p in range(self.num_partitions)]

    def _run_subtable_kernels(
        self,
        op: str,
        routed: list[np.ndarray],
        keys: np.ndarray,
        values: np.ndarray | None = None,
        *,
        default: int = 0,
    ) -> list:
        """Run one kernel per non-empty sub-table through the engine.

        Results come back in sub-table order; absorbing in that order
        keeps counters and rebuild decisions identical across backends.
        """
        tasks = []
        for p, idx in enumerate(routed):
            if idx.size == 0:
                continue
            sub = self.subtables[p]
            tasks.append(
                ShardKernelTask(
                    shard=p,
                    op=op,
                    slots=sub.slots,
                    seq=sub.seq,
                    keys=keys[idx],
                    values=None if values is None else values[idx],
                    default=default,
                    shm=sub.shm_descriptor(),
                    kernels=self.kernels,
                )
            )
        return self.engine.run(tasks) if tasks else []

    def grow(self, new_capacity: int) -> list[KernelReport]:
        """Grow every sub-table so the total reaches ``new_capacity``.

        Returns the per-sub-table rehash reports (empty sub-tables
        contribute none).  Routing is untouched — the partition hash is
        independent of sub-table capacity, so grown sub-tables keep
        answering for exactly the same key set.
        """
        if new_capacity <= self.capacity:
            raise ConfigurationError(
                f"grown capacity {new_capacity} must exceed "
                f"current capacity {self.capacity}"
            )
        target = -(-int(new_capacity) // self.num_partitions)
        reports = []
        for sub in self.subtables:
            if target > sub.capacity:
                rep = sub.grow(target)
                if rep is not None:
                    reports.append(rep)
        return reports

    def insert(self, keys: np.ndarray, values: np.ndarray) -> KernelReport:
        k = check_keys(keys)
        v = check_values(values)
        check_same_length("keys", k, "values", v)
        routed = self._route(k)
        # growth-policy sub-tables resize *before* the shard tasks snapshot
        # their slot views/descriptors, so every backend (incl. process
        # workers attaching by segment name) sees the grown store
        for p, idx in enumerate(routed):
            if idx.size:
                self.subtables[p].ensure_capacity(idx.size)
        merged: KernelReport | None = None
        for res in self._run_subtable_kernels("insert", routed, k, v):
            idx = routed[res.shard]
            rep = self.subtables[res.shard].absorb_insert(
                k[idx], v[idx], res.report, res.status
            )
            merged = rep if merged is None else merged.merge(rep)
        report = merged if merged is not None else KernelReport(op="insert")
        self.last_report = report
        return report

    def query(
        self, keys: np.ndarray, *, default: int = 0
    ) -> tuple[np.ndarray, np.ndarray]:
        k = check_keys(keys)
        values = np.full(k.shape[0], default, dtype=np.uint32)
        found = np.zeros(k.shape[0], dtype=bool)
        routed = self._route(k)
        merged: KernelReport | None = None
        for res in self._run_subtable_kernels("query", routed, k, default=default):
            idx = routed[res.shard]
            values[idx] = res.values
            found[idx] = res.found
            rep = self.subtables[res.shard].absorb_query(res.report)
            merged = rep if merged is None else merged.merge(rep)
        self.last_report = merged
        return values, found

    def erase(self, keys: np.ndarray) -> np.ndarray:
        k = check_keys(keys)
        erased = np.zeros(k.shape[0], dtype=bool)
        routed = self._route(k)
        for res in self._run_subtable_kernels("erase", routed, k):
            erased[routed[res.shard]] = res.erased
            self.subtables[res.shard].absorb_erase(res.report)
        return erased

    def export(self) -> tuple[np.ndarray, np.ndarray]:
        ks, vs = [], []
        for t in self.subtables:
            a, b = t.export()
            ks.append(a)
            vs.append(b)
        return np.concatenate(ks), np.concatenate(vs)

    def free(self) -> None:
        for t in self.subtables:
            t.free()
        if self._owns_engine:
            self.engine.close()
