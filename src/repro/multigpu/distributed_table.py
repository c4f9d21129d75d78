"""The distributed multi-GPU hash table (paper §IV-B).

Implements the *distributed multisplit transposition* design the paper
selects: key-value pairs land on the ``m`` GPUs in arbitrary equal-size
chunks (unstructured), each GPU multisplits its chunk by the partition
hash ``p(k)``, the m×m partition table is transposed with all-to-all
NVLink traffic, and every GPU then owns exactly the keys hashed to it.

* insertion cascade:  (H2D →) multisplit → transpose → insert
* retrieval cascade:  (H2D →) multisplit → transpose → query →
  reverse-transpose (→ D2H)

Every phase produces work/byte accounting in a :class:`CascadeReport`
that :mod:`repro.perfmodel` prices into seconds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..constants import PAIR_BYTES
from ..core.kernels_jit import resolve_kernels
from ..core.store import slot_record_bytes
from ..core.report import KernelReport
from ..core.table import WarpDriveHashTable
from ..errors import ConfigurationError
from ..exec.engine import ExecutionEngine, ShardKernelTask, create_engine
from ..exec.metrics import ShardSpan
from ..obs import runtime as obs
from ..obs.protocol import reportable_dict
from ..options import UNSET
from ..hashing.partition import PartitionHash, hashed_partition
from ..memory.buffer import DeviceBuffer
from ..memory.layout import pack_pairs, unpack_pairs
from ..memory.transfer import MemcpyKind, TransferLog, TransferRecord
from ..simt.counters import TransactionCounter
from ..utils.validation import (
    check_integral,
    check_keys,
    check_same_length,
    check_values,
)
from .alltoall import (
    AllToAllResult,
    reverse_exchange,
    reverse_route_accounting,
    transpose_exchange,
    transpose_exchange_fast,
)
from .multisplit import (
    MultisplitResult,
    multisplit,
    multisplit_fast,
    multisplit_two_level,
)
from .partition_table import PartitionTable
from .plan import CascadePlan, PlanCache, chunk_slices
from .topology import Topology
from .topology import topology as build_topology

__all__ = ["CascadeReport", "DistributedHashTable", "StagedCascade"]


@dataclass
class CascadeReport:
    """Accounting for one distributed insert/query cascade."""

    op: str
    num_ops: int
    #: host↔device traffic (bytes, summed over GPUs)
    h2d_bytes: int = 0
    d2h_bytes: int = 0
    #: per-GPU multisplit work
    multisplit_reports: list[KernelReport] = field(default_factory=list)
    #: the m×m partition table of this cascade
    partition_table: PartitionTable | None = None
    #: all-to-all traffic and modelled network occupancy
    alltoall_bytes: int = 0
    alltoall_seconds: float = 0.0
    reverse_bytes: int = 0
    reverse_seconds: float = 0.0
    #: hierarchical split of the exchange legs: ``*_intra`` stays on the
    #: node interconnect (NVLink/PCIe), ``*_inter`` crosses the NIC.  On
    #: a flat (or one-node) topology intra equals the total and inter is
    #: identically zero, keeping the flat path's charges unchanged.
    alltoall_intra_bytes: int = 0
    alltoall_inter_bytes: int = 0
    alltoall_intra_seconds: float = 0.0
    alltoall_inter_seconds: float = 0.0
    reverse_intra_bytes: int = 0
    reverse_inter_bytes: int = 0
    reverse_intra_seconds: float = 0.0
    reverse_inter_seconds: float = 0.0
    #: node count of the topology that priced this cascade
    num_nodes: int = 1
    #: per-GPU hash-kernel work (insert or query)
    kernel_reports: list[KernelReport] = field(default_factory=list)
    #: per-GPU H2D/D2H byte loads (for PCIe-switch pricing)
    h2d_per_gpu: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    d2h_per_gpu: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    #: measured per-shard kernel spans (seconds, 0 = kernel-phase start)
    kernel_spans: list[ShardSpan] = field(default_factory=list)
    #: measured wall-clock of the whole kernel phase (engine dispatch incl.)
    kernel_wall_seconds: float = 0.0
    #: measured wall-clock of the distribution phases (multisplit +
    #: transpose + reverse) — the host cost the fused path shrinks
    distribution_wall_seconds: float = 0.0
    #: per-shard rehash reports of any mid-cascade growth (op="rehash")
    grow_reports: list[KernelReport] = field(default_factory=list)
    #: measured wall-clock of the growth phase (0.0 = no growth happened)
    grow_wall_seconds: float = 0.0
    #: kernel backend the shard kernels actually ran ("fast" or
    #: "compiled") — post-fallback, so rows record the truth even when
    #: "compiled" was requested on a host without a JIT provider
    kernels: str = "fast"
    #: slot storage policy of the shards this cascade ran against
    layout: str = "aos"
    #: modelled wire/storage bytes per pair — ``PAIR_BYTES`` for packed
    #: shards, the quotiented record width for ``compact`` ones (max over
    #: shards; :func:`repro.core.store.slot_record_bytes`)
    record_bytes: int = PAIR_BYTES
    #: aggregate modelled VRAM of the shard slot arrays after the cascade
    table_bytes: int = 0

    # v2: hierarchical (intra/inter) exchange charges + num_nodes
    # v3: layout / record_bytes / table_bytes (compact slot layout)
    # v4: the serving cache hit/miss fields removed (no cache tier)
    schema_version = 4

    @property
    def load_imbalance(self) -> float:
        if self.partition_table is None:
            return 1.0
        return self.partition_table.imbalance()

    def merged_kernel_report(self) -> KernelReport:
        """Roll per-GPU kernel reports into one (for whole-node stats)."""
        if not self.kernel_reports:
            return KernelReport(op=self.op)
        out = self.kernel_reports[0]
        for rep in self.kernel_reports[1:]:
            out = out.merge(rep)
        return out

    def to_dict(self) -> dict:
        """:class:`repro.obs.Reportable` serialization (stable keys)."""
        return reportable_dict(
            self,
            {
                "op": self.op,
                "num_ops": self.num_ops,
                "kernels": self.kernels,
                "layout": self.layout,
                "record_bytes": self.record_bytes,
                "table_bytes": self.table_bytes,
                "h2d_bytes": self.h2d_bytes,
                "d2h_bytes": self.d2h_bytes,
                "alltoall_bytes": self.alltoall_bytes,
                "alltoall_seconds": self.alltoall_seconds,
                "reverse_bytes": self.reverse_bytes,
                "reverse_seconds": self.reverse_seconds,
                "alltoall_intra_bytes": self.alltoall_intra_bytes,
                "alltoall_inter_bytes": self.alltoall_inter_bytes,
                "alltoall_intra_seconds": self.alltoall_intra_seconds,
                "alltoall_inter_seconds": self.alltoall_inter_seconds,
                "reverse_intra_bytes": self.reverse_intra_bytes,
                "reverse_inter_bytes": self.reverse_inter_bytes,
                "reverse_intra_seconds": self.reverse_intra_seconds,
                "reverse_inter_seconds": self.reverse_inter_seconds,
                "num_nodes": self.num_nodes,
                "load_imbalance": self.load_imbalance,
                "kernel_wall_seconds": self.kernel_wall_seconds,
                "distribution_wall_seconds": self.distribution_wall_seconds,
                "h2d_per_gpu": self.h2d_per_gpu,
                "d2h_per_gpu": self.d2h_per_gpu,
                "multisplit_reports": [
                    r.to_dict() for r in self.multisplit_reports
                ],
                "kernel_reports": [r.to_dict() for r in self.kernel_reports],
                "kernel_spans": [s.to_dict() for s in self.kernel_spans],
                "grow_reports": [r.to_dict() for r in self.grow_reports],
                "grow_wall_seconds": self.grow_wall_seconds,
            },
        )


@dataclass
class StagedCascade:
    """Host-side distribution state of one cascade, ready to commit.

    Produced by :meth:`DistributedHashTable.stage_insert` /
    ``stage_query`` / ``stage_erase`` — everything up to (and including)
    the multisplit-transposition has run, but no shard has been touched.
    Staging is *table-state independent*: the partition hash and the
    exchange depend only on the keys, so a stager thread can prepare
    batch ``i+1`` while batch ``i``'s kernel phase commits.  All side
    effects are captured privately (``log``, ``counters``) and merged
    into the table in stream order by
    :meth:`DistributedHashTable.commit_staged`, which keeps transfer-log
    record order and counter totals bit-identical to the monolithic
    cascade entry points.
    """

    op: str
    num_ops: int
    source: str
    default: int
    report: CascadeReport
    plan: CascadePlan
    splits: list[MultisplitResult]
    exchange: AllToAllResult
    keys_per_gpu: list[np.ndarray]
    values_per_gpu: list[np.ndarray] | None
    buffers: list[DeviceBuffer]
    #: private transfer log of the staging phases (H2D + all-to-all)
    log: TransferLog
    #: private per-GPU multisplit charges, merged at commit
    counters: list[TransactionCounter]
    #: stream position, stamped by the pipeline scheduler
    seqno: int = 0

    @property
    def staged_bytes(self) -> int:
        """Device staging footprint this cascade holds until commit."""
        return sum(buf.nbytes for buf in self.buffers)


class DistributedHashTable:
    """A WarpDrive hash map sharded over the GPUs of a node or cluster.

    Built as ``DistributedHashTable(total_capacity, topology=...)``
    (see :mod:`repro.options`).

    Parameters
    ----------
    topology:
        The interconnect model: a :class:`~repro.multigpu.topology.Topology`
        (``NodeTopology`` or ``ClusterTopology``), a ``TopologySpec``, or
        a spec string (``"p100"``, ``"pcie:8"``, ``"dgx1v"``,
        ``"cluster:2x4"``) resolved by the
        :func:`~repro.multigpu.topology.topology` factory; defaults to
        the paper's 4×P100 node.  Shards allocate their slot arrays as
        VRAM on the corresponding simulated device; on a cluster the
        all-to-all charges intra-node traffic to NVLink/PCIe and
        inter-node traffic to the NIC.
    total_capacity:
        Aggregate slot count; each GPU gets ``ceil(total / m)``.
    group_size, p_max, probing, layout, growth:
        Forwarded to each single-GPU shard (see
        :class:`~repro.core.config.HashTableConfig`).  With a
        :class:`~repro.core.growth.GrowthPolicy` the shards grow in a
        *coordinated* step mid-cascade: when any shard's incoming batch
        trips its threshold, every shard resizes to a uniform target
        before the kernel phase, keeping shard capacities equal.  The
        per-shard rehash traffic is logged as D2D ``"grow rehash"``
        transfers and reported in :attr:`CascadeReport.grow_reports`.
    partition:
        GPU-assignment hash; defaults to a hashed partition so structured
        key sets still balance (Fig. 4's ``k mod m`` is available via
        :func:`repro.hashing.modulo_partition`).
    engine, workers:
        Shard-execution backend (``"serial"``, ``"thread"``, ``"process"``
        or a ready-made :class:`~repro.exec.ExecutionEngine`) and its
        worker count.  The process backend allocates every shard's slot
        array in shared memory so workers mutate the tables zero-copy.
    distribution:
        Host implementation of the distribution phases.  ``"fused"``
        (default) runs the single-pass multisplit and index-routed
        exchange; ``"reference"`` runs the seed's m-binary-split sweeps
        and provenance-based reverse.  Both are bit-identical in results
        and accounting (``tests/multigpu/test_fused_distribution.py``);
        only the host wall-clock differs (``docs/distribution.md``).
    kernels:
        Shard-kernel backend: ``"fast"`` (default, vectorized numpy) or
        ``"compiled"`` (JIT inner loops, bit-identical; auto-falls back
        to ``"fast"`` with a warning when no JIT provider is available
        — see ``docs/compiled_backend.md``).  Workers re-resolve the
        backend in their own process; :attr:`CascadeReport.kernels`
        records what actually ran.
    """

    def __init__(
        self,
        total_capacity: int,
        *,
        topology=None,
        group_size: int = 4,
        p_max: int | None = None,
        partition: PartitionHash | None = None,
        engine: str | ExecutionEngine = "serial",
        workers: int | None = None,
        distribution: str = "fused",
        kernels: str = "fast",
        probing: str = UNSET,
        layout: str = UNSET,
        growth=UNSET,
    ):
        total_capacity = check_integral("total_capacity", total_capacity)
        topology = build_topology(topology)
        if total_capacity < topology.num_devices:
            raise ConfigurationError(
                "total_capacity must be at least one slot per GPU"
            )
        if distribution not in ("fused", "reference"):
            raise ConfigurationError(
                f"distribution must be 'fused' or 'reference', got {distribution!r}"
            )
        self.distribution = distribution
        if kernels not in ("fast", "compiled"):
            raise ConfigurationError(
                f"kernels must be 'fast' or 'compiled', got {kernels!r}"
            )
        self.kernels = kernels
        self.topology = topology
        self.num_gpus = topology.num_devices
        if partition is None:
            partition = hashed_partition(self.num_gpus)
        elif partition.num_parts != self.num_gpus:
            raise ConfigurationError(
                f"partition has {partition.num_parts} parts for "
                f"{self.num_gpus} GPUs"
            )
        self.partition = partition
        self.engine = create_engine(engine, workers=workers)
        self._owns_engine = not isinstance(engine, ExecutionEngine)
        shard_capacity = -(-total_capacity // self.num_gpus)  # ceil div
        kwargs = {
            "group_size": group_size,
            "shared": self.engine.requires_shared_slots,
            # shards inherit the backend so grow() rehash replays run
            # compiled when the cascade kernels do
            "kernels": self.kernels,
        }
        if p_max is not None:
            kwargs["p_max"] = p_max
        for opt, val in (("probing", probing), ("layout", layout),
                         ("growth", growth)):
            if val is not UNSET:
                kwargs[opt] = val
        self.shards = [
            WarpDriveHashTable(shard_capacity, device=dev, **kwargs)
            for dev in topology.devices
        ]
        self.transfer_log = TransferLog()
        # per-batch-shape cascade plans (chunk slices, zero planes,
        # reverse-routing scratch) reused across waves of equal size
        self._plans = PlanCache()

    @classmethod
    def for_load_factor(
        cls,
        topology,
        num_pairs: int,
        load_factor: float,
        **kwargs,
    ) -> "DistributedHashTable":
        if not 0 < load_factor <= 1:
            raise ConfigurationError(
                f"load factor must be in (0, 1], got {load_factor}"
            )
        topology = build_topology(topology)
        total = max(int(np.ceil(num_pairs / load_factor)), topology.num_devices)
        return cls(total, topology=topology, **kwargs)

    @classmethod
    def for_workload(
        cls,
        topology,
        keys: np.ndarray,
        load_factor: float,
        *,
        partition: PartitionHash | None = None,
        **kwargs,
    ) -> "DistributedHashTable":
        """Size shards so the *busiest* shard hits exactly ``load_factor``.

        At paper scale the partition hash balances to a fraction of a
        percent and :meth:`for_load_factor` suffices; at scaled-down
        experiment sizes the binomial imbalance (~sqrt(m/n)) would push
        one shard over its capacity.  This constructor pre-splits the
        unique keys of the known workload and sizes every shard for the
        largest partition, keeping the target per-shard load exact.
        """
        if not 0 < load_factor <= 1:
            raise ConfigurationError(
                f"load factor must be in (0, 1], got {load_factor}"
            )
        topology = build_topology(topology)
        m = topology.num_devices
        if partition is None:
            partition = hashed_partition(m)
        uniq = np.unique(check_keys(keys))
        counts = np.bincount(partition(uniq), minlength=m)
        busiest = max(int(counts.max()), 1)
        shard_capacity = max(int(np.ceil(busiest / load_factor)), 1)
        return cls(
            shard_capacity * m, topology=topology, partition=partition, **kwargs
        )

    # -- properties ---------------------------------------------------------

    def __len__(self) -> int:
        return sum(len(shard) for shard in self.shards)

    @property
    def total_capacity(self) -> int:
        return sum(shard.capacity for shard in self.shards)

    @property
    def load_factor(self) -> float:
        return len(self) / self.total_capacity

    def shard_sizes(self) -> np.ndarray:
        return np.array([len(s) for s in self.shards], dtype=np.int64)

    @property
    def layout(self) -> str:
        """Slot storage policy of the shards (uniform by construction)."""
        return self.shards[0].config.layout

    def _record_bytes(self) -> int:
        """Modelled bytes per exchanged pair — max over shards.

        Every exchange leg and grow-rehash copy charges this width:
        ``PAIR_BYTES`` for packed layouts, the quotiented record width of
        the smallest-capacity shard for ``compact`` (conservative — a
        record importable by every shard).
        """
        return max(
            slot_record_bytes(shard.config.layout, shard.capacity)
            for shard in self.shards
        )

    # -- cascades -------------------------------------------------------------

    def _chunk(self, n: int) -> list[slice]:
        """Unstructured distribution: m equal contiguous chunks."""
        return chunk_slices(n, self.num_gpus)

    def _plan(self, op: str, n: int) -> CascadePlan:
        """The (cached) compiled plan for one batch shape."""
        return self._plans.get(op, n, self.num_gpus, self.topology.num_nodes)

    def _split_phase(
        self,
        packed_chunks: list[np.ndarray],
        report: CascadeReport,
        *,
        counters: list[TransactionCounter] | None = None,
    ) -> tuple[list[MultisplitResult], PartitionTable]:
        """``counters`` overrides the charge targets (staging uses private
        per-GPU counters merged into the devices at commit time)."""
        with obs.span("multisplit", "distribution", path=self.distribution):
            t0 = time.perf_counter()
            if self.distribution != "fused":
                split_fn = multisplit
            elif self.topology.num_nodes > 1:
                # two-level split: by node, then by GPU — one fused pass,
                # charge-identical to multisplit_fast (global GPU ids are
                # node-major, so GPU grouping is already node grouping)
                spans = self.topology.node_spans()

                def split_fn(chunk, partition, *, counter):
                    return multisplit_two_level(
                        chunk, partition, spans, counter=counter
                    )
            else:
                split_fn = multisplit_fast
            splits = [
                split_fn(
                    chunk,
                    self.partition,
                    counter=(
                        counters[gpu]
                        if counters is not None
                        else self.topology.devices[gpu].counter
                    ),
                )
                for gpu, chunk in enumerate(packed_chunks)
            ]
            counts = np.stack([ms.counts for ms in splits])
            report.distribution_wall_seconds += time.perf_counter() - t0
        report.multisplit_reports = [ms.report for ms in splits]
        table = PartitionTable(counts, record_bytes=self._record_bytes())
        report.partition_table = table
        return splits, table

    def _transpose_phase(
        self,
        splits: list[MultisplitResult],
        table: PartitionTable,
        report: CascadeReport,
        *,
        reversible: bool,
        plan: CascadePlan | None = None,
        log: TransferLog | None = None,
    ) -> AllToAllResult:
        """Run the m×m exchange and record its traffic + measured time.

        ``reversible`` builds the reverse-routing state (inverse
        permutation or provenance) retrieval/erase cascades need; pure
        insertion skips it on the fused path.  A reversible ``plan``
        supplies the preallocated ``reverse_gather`` buffers the fused
        exchange fills in place.  ``log`` redirects the transfer records
        (staging captures them privately and replays them at commit).
        """
        if log is None:
            log = self.transfer_log
        with obs.span(
            "all-to-all", "distribution", path=self.distribution
        ) as sp:
            t0 = time.perf_counter()
            if self.distribution == "fused":
                exchange = transpose_exchange_fast(
                    [ms.pairs for ms in splits],
                    [ms.offsets for ms in splits],
                    table,
                    self.topology,
                    log=log,
                    build_routing=reversible,
                    gather_out=(
                        plan.gather_out
                        if reversible and plan is not None
                        else None
                    ),
                )
            else:
                exchange = transpose_exchange(
                    [ms.pairs for ms in splits],
                    [ms.offsets for ms in splits],
                    table,
                    self.topology,
                    log=log,
                )
            report.distribution_wall_seconds += time.perf_counter() - t0
            breakdown = exchange.breakdown
            if breakdown is not None and self.topology.num_nodes > 1:
                # surface both exchange levels as child spans of the
                # all-to-all (zero-width markers carrying the modelled
                # charge of each interconnect level)
                with obs.span(
                    "transpose.intra",
                    "distribution",
                    nbytes=breakdown.intra_bytes,
                    modelled_network_seconds=breakdown.intra_seconds,
                ):
                    pass
                with obs.span(
                    "transpose.inter",
                    "distribution",
                    nbytes=breakdown.inter_bytes,
                    modelled_network_seconds=breakdown.inter_seconds,
                    num_nodes=self.topology.num_nodes,
                ):
                    pass
        report.alltoall_bytes = table.offdiagonal_bytes()
        report.alltoall_seconds = exchange.network_seconds
        if breakdown is not None:
            report.alltoall_intra_bytes = breakdown.intra_bytes
            report.alltoall_inter_bytes = breakdown.inter_bytes
            report.alltoall_intra_seconds = breakdown.intra_seconds
            report.alltoall_inter_seconds = breakdown.inter_seconds
        if sp is not None:
            sp.attrs["alltoall_bytes"] = report.alltoall_bytes
            sp.attrs["modelled_network_seconds"] = report.alltoall_seconds
        return exchange

    def _reverse_phase(
        self,
        results: list[np.ndarray],
        exchange: AllToAllResult,
        splits: list[MultisplitResult],
        chunks: list[slice],
        n: int,
        report: CascadeReport,
        plan: CascadePlan | None = None,
    ) -> np.ndarray:
        """Reverse-route per-partition answers back to input order.

        Returns the flat answer vector aligned with the cascade's input
        and records the reverse traffic (priced from the partition table,
        not re-scanned) on the report.  Fused path: one global
        inverse-permutation gather composing the reverse exchange with
        the multisplit un-permute — no per-chunk staging copies; the
        plan's ``perm`` scratch is overwritten completely, so no
        per-batch allocation either.
        """
        with obs.span("reverse", "distribution", path=self.distribution):
            answers, seconds, traffic = self._reverse_route(
                results, exchange, splits, chunks, n, report, plan
            )
        report.reverse_seconds = seconds
        report.reverse_bytes = int(traffic.sum())
        breakdown = self.topology.traffic_breakdown(traffic)
        report.reverse_intra_bytes = breakdown.intra_bytes
        report.reverse_inter_bytes = breakdown.inter_bytes
        report.reverse_intra_seconds = breakdown.intra_seconds
        report.reverse_inter_seconds = breakdown.inter_seconds
        return answers

    def _reverse_route(
        self,
        results: list[np.ndarray],
        exchange: AllToAllResult,
        splits: list[MultisplitResult],
        chunks: list[slice],
        n: int,
        report: CascadeReport,
        plan: CascadePlan | None = None,
    ) -> tuple[np.ndarray, float, np.ndarray]:
        t0 = time.perf_counter()
        # answers travel in the same modelled record format the forward
        # exchange used: one packed word per key for aos/soa, the
        # quotiented record for compact (a 32-bit value plus found flag
        # fits any record width the model allows)
        itemsize = exchange.table.record_bytes
        if self.distribution == "fused":
            flat = (
                np.concatenate(results)
                if results
                else np.empty(0, dtype=np.uint64)
            )
            seconds, traffic = reverse_route_accounting(
                exchange.routing.table,
                itemsize,
                self.topology,
                log=self.transfer_log,
            )
            perm = (
                plan.perm
                if plan is not None and plan.perm is not None
                else np.empty(n, dtype=np.int64)
            )
            for gpu, sl in enumerate(chunks):
                perm[sl.start + splits[gpu].source_index] = (
                    exchange.routing.reverse_gather[gpu]
                )
            answers = flat[perm]
        else:
            chunk_sizes = [sl.stop - sl.start for sl in chunks]
            rev = reverse_exchange(
                results,
                exchange.provenance,
                chunk_sizes,
                self.topology,
                log=self.transfer_log,
                itemsize=itemsize,
            )
            seconds, traffic = rev.network_seconds, rev.traffic
            answers = np.zeros(n, dtype=np.uint64)
            for gpu, sl in enumerate(chunks):
                # undo the multisplit permutation inside the chunk
                split_result = np.zeros(chunk_sizes[gpu], dtype=np.uint64)
                split_result[:] = rev.outputs[gpu]
                chunk_vals = np.zeros(chunk_sizes[gpu], dtype=np.uint64)
                chunk_vals[splits[gpu].source_index] = split_result
                answers[sl] = chunk_vals
        report.distribution_wall_seconds += time.perf_counter() - t0
        return answers, seconds, traffic

    def _reserve_batch_buffers(
        self, packed_chunks: list[np.ndarray]
    ) -> list[DeviceBuffer]:
        """Reserve the per-GPU staging memory one cascade needs.

        Fig. 4: "all operations are issued out-of-place using one double
        buffer per GPU of sufficient size" — the arriving chunk plus its
        multisplit/transpose target.  Registering the footprint makes
        oversized batches fail against the 16 GB budget exactly like the
        real node.
        """
        buffers = []
        for gpu, chunk in enumerate(packed_chunks):
            if chunk.size:
                buffers.append(
                    DeviceBuffer.empty(
                        self.topology.devices[gpu], 2 * chunk.size, dtype=np.uint64
                    )
                )
        return buffers

    @staticmethod
    def _release_batch_buffers(buffers: list[DeviceBuffer]) -> None:
        for buf in buffers:
            buf.free()

    def _grow_shards_to(
        self, target: int, report: CascadeReport | None = None
    ) -> list[KernelReport]:
        """Grow every shard below ``target`` to exactly ``target`` slots.

        One rehash per shard runs on that shard's device (the table never
        leaves its GPU — logged as a D2D copy of the live pairs, tagged
        ``"grow rehash"``); reports land on the cascade report when one
        is given.  Returns the rehash reports of non-empty shards.
        """
        reports: list[KernelReport] = []
        with obs.span(
            "shard growth",
            "lifecycle",
            target_capacity=int(target),
            num_gpus=self.num_gpus,
        ):
            t0 = time.perf_counter()
            for gpu, shard in enumerate(self.shards):
                if target <= shard.capacity:
                    continue
                live = len(shard)
                # the rehash reads records at the *source* table's width
                # (pre-grow capacity: never narrower than the target's)
                record = slot_record_bytes(shard.config.layout, shard.capacity)
                rep = shard.grow(target)
                self.transfer_log.add(
                    TransferRecord(
                        kind=MemcpyKind.D2D,
                        nbytes=live * record,
                        src_device=gpu,
                        dst_device=gpu,
                        tag="grow rehash",
                    )
                )
                if rep is not None:
                    reports.append(rep)
            elapsed = time.perf_counter() - t0
        if report is not None:
            report.grow_reports.extend(reports)
            report.grow_wall_seconds += elapsed
        return reports

    def _maybe_grow_shards(
        self,
        keys_per_gpu: list[np.ndarray],
        report: CascadeReport,
        *,
        drain=None,
    ) -> None:
        """Coordinated pre-kernel growth (no-op without growth policies).

        Runs after the transposition — each shard's incoming count is
        known exactly — and before the kernel phase snapshots slot views
        and shm descriptors, so every engine backend lands the batch in
        the grown stores.  The target is the max over tripped shards'
        :meth:`~repro.core.growth.GrowthPolicy.next_capacity`, applied to
        *all* shards so capacities stay uniform.

        ``drain`` is called (once, with no arguments) after the growth
        decision but before any shard resizes — the pipeline scheduler
        uses it to wait out in-flight device waves so a coordinated grow
        never races a running kernel phase.
        """
        targets = []
        for gpu, shard in enumerate(self.shards):
            policy = shard.growth
            if policy is None:
                continue
            required = len(shard) + int(keys_per_gpu[gpu].shape[0])
            if policy.should_grow(shard.capacity, required):
                targets.append(policy.next_capacity(shard.capacity, required))
        if targets:
            if drain is not None:
                drain()
            self._grow_shards_to(max(targets), report)

    def grow(self, new_capacity: int) -> list[KernelReport]:
        """Explicitly grow the table to ``new_capacity`` total slots."""
        if new_capacity <= self.total_capacity:
            raise ConfigurationError(
                f"grown capacity {new_capacity} must exceed "
                f"current capacity {self.total_capacity}"
            )
        return self._grow_shards_to(-(-int(new_capacity) // self.num_gpus))

    def _kernel_phase(
        self,
        op: str,
        keys_per_gpu: list[np.ndarray],
        values_per_gpu: list[np.ndarray] | None = None,
        *,
        default: int = 0,
        report: CascadeReport,
    ) -> dict:
        """Run one per-shard kernel wave through the execution engine.

        Non-empty shards become :class:`ShardKernelTask`s; the engine
        runs them (possibly overlapped), then work is absorbed into the
        shards **in shard order** so device counters, sizes, and rebuild
        decisions match the serial schedule exactly.  Empty shards record
        a zero-work report so ``kernel_reports`` stays length ``m``.
        Returns results keyed by GPU index.
        """
        with obs.span(
            "kernel phase",
            "kernel",
            op=op,
            engine=self.engine.name,
            kernels=self.kernels,
        ) as ksp:
            t0 = time.perf_counter()
            tasks = []
            for gpu, gk in enumerate(keys_per_gpu):
                if gk.size == 0:
                    continue
                shard = self.shards[gpu]
                tasks.append(
                    ShardKernelTask(
                        shard=gpu,
                        op=op,
                        slots=shard.slots,
                        seq=shard.seq,
                        keys=gk,
                        values=None
                        if values_per_gpu is None
                        else values_per_gpu[gpu],
                        default=default,
                        shm=shard.shm_descriptor(),
                        kernels=self.kernels,
                    )
                )
            # non-blocking submit + immediate collect: identical to
            # engine.run() here, but exercises the same PendingWave path
            # the pipeline scheduler overlaps against
            by_gpu = (
                {r.shard: r for r in self.engine.submit(tasks).result()}
                if tasks
                else {}
            )
            # record the backend that actually ran (workers may have
            # fallen back independently); with no tasks, resolve locally
            if by_gpu:
                used = {r.kernels for r in by_gpu.values()}
                report.kernels = used.pop() if len(used) == 1 else "fast"
            else:
                report.kernels = resolve_kernels(
                    self.kernels,
                    slots=self.shards[0].slots,
                    owner="DistributedHashTable",
                )
            if ksp is not None:
                ksp.attrs["kernels"] = report.kernels
            for gpu, gk in enumerate(keys_per_gpu):
                shard = self.shards[gpu]
                res = by_gpu.get(gpu)
                if res is None:
                    report.kernel_reports.append(
                        KernelReport.empty(op, shard.config.group_size)
                    )
                    continue
                if op == "insert":
                    shard.absorb_insert(
                        gk, values_per_gpu[gpu], res.report, res.status
                    )
                elif op == "query":
                    shard.absorb_query(res.report)
                else:
                    shard.absorb_erase(res.report)
                report.kernel_reports.append(res.report)
                if res.span is not None:
                    report.kernel_spans.append(res.span)
            report.kernel_wall_seconds = time.perf_counter() - t0
        return by_gpu

    def _observe_cascade(self, report: CascadeReport, log_mark: int) -> None:
        """Feed the finished cascade into the metrics registry (if on)."""
        if not obs.enabled():
            return
        obs.observe_cascade(report)
        obs.observe_transfers(self.transfer_log.records[log_mark:])

    # -- staged (phase-split) entry points ------------------------------------
    #
    # Every cascade splits into a host-side *staging* half (H2D packing,
    # multisplit, all-to-all — table-state independent, safe on a stager
    # thread) and a device-side *commit* half (growth, kernel phase,
    # reverse routing, D2H).  The monolithic insert/query/erase below are
    # thin stage+commit compositions, bit-identical to the pre-split code
    # in results, span trees, transfer-log order, and counter totals.

    def _stage_h2d(
        self,
        op: str,
        packed: list[np.ndarray],
        key_bytes: np.ndarray | None,
        source: str,
        report: CascadeReport,
        log: TransferLog,
        tag: str,
    ) -> None:
        """Record the H2D leg of one staging phase into a private log."""
        per_gpu = (
            np.array([p.nbytes for p in packed], dtype=np.int64)
            if key_bytes is None
            else key_bytes
        )
        with obs.span("H2D", "transfer", op=op) as sp:
            report.h2d_per_gpu = (
                per_gpu if source == "host" else np.zeros_like(per_gpu)
            )
            report.h2d_bytes = int(report.h2d_per_gpu.sum())
            if sp is not None:
                sp.attrs["nbytes"] = report.h2d_bytes
            if source == "host":
                for gpu, nbytes in enumerate(per_gpu):
                    log.add(
                        TransferRecord(
                            kind=MemcpyKind.H2D,
                            nbytes=int(nbytes),
                            src_device=None,
                            dst_device=gpu,
                            tag=tag,
                        )
                    )

    def stage_insert(
        self,
        keys: np.ndarray,
        values: np.ndarray,
        *,
        source: str = "host",
        plan: CascadePlan | None = None,
    ) -> StagedCascade:
        """Run the host-side distribution half of an insertion cascade.

        Returns a :class:`StagedCascade` holding per-GPU staging buffers
        (reserved against the device VRAM budgets) plus privately
        captured transfer records and multisplit charges; nothing is
        merged into the table until :meth:`commit_staged`.  ``plan``
        overrides the table's shared :class:`PlanCache` — the pipeline
        scheduler passes per-arena-slot plans so concurrently staged
        batches never alias scratch buffers.
        """
        if source not in ("host", "device"):
            raise ConfigurationError(
                f"source must be 'host' or 'device', got {source!r}"
            )
        k = check_keys(keys)
        v = check_values(values)
        check_same_length("keys", k, "values", v)
        n = k.shape[0]
        report = CascadeReport(
            op="insert",
            num_ops=n,
            num_nodes=self.topology.num_nodes,
            layout=self.layout,
            record_bytes=self._record_bytes(),
            table_bytes=sum(s.table_bytes for s in self.shards),
        )
        log = TransferLog()
        counters = [TransactionCounter() for _ in range(self.num_gpus)]
        if plan is None:
            plan = self._plan("insert", n)
        chunks = plan.chunks
        packed = [pack_pairs(k[sl], v[sl]) for sl in chunks]
        self._stage_h2d("insert", packed, None, source, report, log, "insert chunk")

        buffers = self._reserve_batch_buffers(packed)
        try:
            splits, table = self._split_phase(packed, report, counters=counters)
            exchange = self._transpose_phase(
                splits, table, report, reversible=False, log=log
            )
            per_gpu = [
                unpack_pairs(exchange.received[gpu])
                for gpu in range(self.num_gpus)
            ]
        except BaseException:
            self._release_batch_buffers(buffers)
            raise
        return StagedCascade(
            op="insert",
            num_ops=n,
            source=source,
            default=0,
            report=report,
            plan=plan,
            splits=splits,
            exchange=exchange,
            keys_per_gpu=[kv[0] for kv in per_gpu],
            values_per_gpu=[kv[1] for kv in per_gpu],
            buffers=buffers,
            log=log,
            counters=counters,
        )

    def _stage_keyed(
        self,
        op: str,
        keys: np.ndarray,
        *,
        default: int,
        source: str,
        plan: CascadePlan | None,
        tag: str,
    ) -> StagedCascade:
        """Shared staging half of the key-only (query/erase) cascades."""
        if source not in ("host", "device"):
            raise ConfigurationError(
                f"source must be 'host' or 'device', got {source!r}"
            )
        k = check_keys(keys)
        n = k.shape[0]
        report = CascadeReport(
            op=op,
            num_ops=n,
            num_nodes=self.topology.num_nodes,
            layout=self.layout,
            record_bytes=self._record_bytes(),
            table_bytes=sum(s.table_bytes for s in self.shards),
        )
        log = TransferLog()
        counters = [TransactionCounter() for _ in range(self.num_gpus)]
        if plan is None:
            plan = self._plan(op, n)
        chunks = plan.chunks
        # queries ship keys only (4 B/key up, 8 B/key down, cf. Fig. 10)
        packed = [
            pack_pairs(k[sl], plan.zeros[gpu]) for gpu, sl in enumerate(chunks)
        ]
        key_bytes = np.array(
            [(sl.stop - sl.start) * 4 for sl in chunks], dtype=np.int64
        )
        self._stage_h2d(op, packed, key_bytes, source, report, log, tag)

        buffers = self._reserve_batch_buffers(packed)
        try:
            splits, table = self._split_phase(packed, report, counters=counters)
            exchange = self._transpose_phase(
                splits, table, report, reversible=True, plan=plan, log=log
            )
            keys_per_gpu = [
                unpack_pairs(exchange.received[gpu])[0]
                for gpu in range(self.num_gpus)
            ]
        except BaseException:
            self._release_batch_buffers(buffers)
            raise
        return StagedCascade(
            op=op,
            num_ops=n,
            source=source,
            default=default,
            report=report,
            plan=plan,
            splits=splits,
            exchange=exchange,
            keys_per_gpu=keys_per_gpu,
            values_per_gpu=None,
            buffers=buffers,
            log=log,
            counters=counters,
        )

    def stage_query(
        self,
        keys: np.ndarray,
        *,
        default: int = 0,
        source: str = "host",
        plan: CascadePlan | None = None,
    ) -> StagedCascade:
        """Host-side distribution half of a retrieval cascade."""
        return self._stage_keyed(
            "query",
            keys,
            default=default,
            source=source,
            plan=plan,
            tag="query keys",
        )

    def stage_erase(
        self,
        keys: np.ndarray,
        *,
        source: str = "device",
        plan: CascadePlan | None = None,
    ) -> StagedCascade:
        """Host-side distribution half of a deletion cascade."""
        return self._stage_keyed(
            "erase", keys, default=0, source=source, plan=plan, tag="erase keys"
        )

    def commit_staged(self, staged: StagedCascade, *, drain=None):
        """Commit one staged cascade: merge its private accounting and
        run the device half (growth, kernel phase, reverse, D2H).

        Commits must happen in stream order — all table mutation lives
        here, so sequence-numbered commits make any ``depth`` bit-identical
        to ``depth=1``.  ``drain`` is forwarded to the coordinated-growth
        hook (see :meth:`_maybe_grow_shards`).  Returns what the matching
        monolithic entry point returns: the report for ``insert``,
        ``(values, found, report)`` for ``query``, ``(erased, report)``
        for ``erase``.
        """
        report = staged.report
        log_mark = len(self.transfer_log)
        for rec in staged.log.records:
            self.transfer_log.add(rec)
        for gpu, local in enumerate(staged.counters):
            self.topology.devices[gpu].counter.merge(local)
        try:
            if staged.op == "insert":
                self._maybe_grow_shards(
                    staged.keys_per_gpu, report, drain=drain
                )
                self._kernel_phase(
                    "insert",
                    staged.keys_per_gpu,
                    staged.values_per_gpu,
                    report=report,
                )
                result = report
            elif staged.op == "query":
                result = self._commit_query(staged)
            elif staged.op == "erase":
                result = self._commit_erase(staged)
            else:  # pragma: no cover - stage_* only produce these three
                raise ConfigurationError(f"unknown staged op {staged.op!r}")
        finally:
            self._release_batch_buffers(staged.buffers)
        # growth during commit may have widened the shards: refresh the
        # resident footprint so the report reflects the post-commit table
        report.table_bytes = sum(s.table_bytes for s in self.shards)
        self._observe_cascade(report, log_mark)
        return result

    def discard_staged(self, staged: StagedCascade) -> None:
        """Release a staged cascade that will never commit.

        Frees its device staging buffers and drops the private
        accounting on the floor — used by the pipeline scheduler's error
        paths so an aborted stream cannot leak modelled VRAM.
        """
        self._release_batch_buffers(staged.buffers)

    def _commit_query(
        self, staged: StagedCascade
    ) -> tuple[np.ndarray, np.ndarray, CascadeReport]:
        report, plan, n = staged.report, staged.plan, staged.num_ops
        chunks = plan.chunks
        # per-shard queries; answers packed as (found << 32) | value
        # so the reverse exchange moves one word per key
        by_gpu = self._kernel_phase(
            "query", staged.keys_per_gpu, default=staged.default, report=report
        )
        results = []
        for gpu in range(self.num_gpus):
            res = by_gpu.get(gpu)
            if res is None:
                vals = np.empty(0, dtype=np.uint32)
                found = np.empty(0, dtype=bool)
            else:
                vals, found = res.values, res.found
            results.append(
                vals.astype(np.uint64)
                | (found.astype(np.uint64) << np.uint64(32))
            )

        answers = self._reverse_phase(
            results, staged.exchange, staged.splits, chunks, n, report, plan
        )
        values = (answers & np.uint64(0xFFFFFFFF)).astype(np.uint32)
        found_out = (answers >> np.uint64(32)).astype(bool)

        chunk_sizes = [sl.stop - sl.start for sl in chunks]
        with obs.span("D2H", "transfer", op="query") as sp:
            report.d2h_per_gpu = np.array(
                [
                    chunk_sizes[gpu] * PAIR_BYTES
                    if staged.source == "host"
                    else 0
                    for gpu in range(self.num_gpus)
                ],
                dtype=np.int64,
            )
            report.d2h_bytes = int(report.d2h_per_gpu.sum())
            if sp is not None:
                sp.attrs["nbytes"] = report.d2h_bytes
            if staged.source == "host":
                for gpu in range(self.num_gpus):
                    if chunk_sizes[gpu]:
                        self.transfer_log.add(
                            TransferRecord(
                                kind=MemcpyKind.D2H,
                                nbytes=chunk_sizes[gpu] * PAIR_BYTES,
                                src_device=gpu,
                                dst_device=None,
                                tag="query results",
                            )
                        )
        # defaults for missing keys
        values[~found_out] = staged.default
        return values, found_out, report

    def _commit_erase(
        self, staged: StagedCascade
    ) -> tuple[np.ndarray, CascadeReport]:
        report, plan, n = staged.report, staged.plan, staged.num_ops
        by_gpu = self._kernel_phase("erase", staged.keys_per_gpu, report=report)
        results = []
        for gpu in range(self.num_gpus):
            res = by_gpu.get(gpu)
            erased = np.empty(0, dtype=bool) if res is None else res.erased
            results.append(erased.astype(np.uint64))

        answers = self._reverse_phase(
            results, staged.exchange, staged.splits, plan.chunks, n, report, plan
        )
        return answers.astype(bool), report

    # -- monolithic entry points ----------------------------------------------

    def insert(
        self,
        keys: np.ndarray,
        values: np.ndarray,
        *,
        source: str = "host",
    ) -> CascadeReport:
        """Distributed insertion cascade.

        ``source="host"`` charges the initial PCIe transfer; ``"device"``
        models data already resident on (or generated on) the GPUs, the
        bypass §IV-B describes for k-mer-style on-device generation.
        """
        if source not in ("host", "device"):
            raise ConfigurationError(f"source must be 'host' or 'device', got {source!r}")
        k = check_keys(keys)
        v = check_values(values)
        check_same_length("keys", k, "values", v)

        with obs.span("insert cascade", "cascade", num_ops=k.shape[0]):
            staged = self.stage_insert(k, v, source=source)
            return self.commit_staged(staged)

    def query(
        self,
        keys: np.ndarray,
        *,
        default: int = 0,
        source: str = "host",
    ) -> tuple[np.ndarray, np.ndarray, CascadeReport]:
        """Distributed retrieval cascade; returns (values, found, report).

        The reverse transposition routes each answer back to the GPU and
        offset its key arrived from, so results line up with the input
        order exactly.
        """
        if source not in ("host", "device"):
            raise ConfigurationError(f"source must be 'host' or 'device', got {source!r}")
        k = check_keys(keys)

        with obs.span("query cascade", "cascade", num_ops=k.shape[0]):
            staged = self.stage_query(k, default=default, source=source)
            return self.commit_staged(staged)

    def erase(
        self,
        keys: np.ndarray,
        *,
        source: str = "device",
    ) -> tuple[np.ndarray, CascadeReport]:
        """Distributed deletion cascade; returns (erased-mask, report).

        Deletion is a barrier-delimited phase exactly as on a single GPU
        (§IV-A); the cascade shape matches retrieval — multisplit →
        transpose → erase → reverse — with tombstone writes instead of
        value reads.
        """
        if source not in ("host", "device"):
            raise ConfigurationError(f"source must be 'host' or 'device', got {source!r}")
        k = check_keys(keys)

        with obs.span("erase cascade", "cascade", num_ops=k.shape[0]):
            staged = self.stage_erase(k, source=source)
            return self.commit_staged(staged)

    def export(self) -> tuple[np.ndarray, np.ndarray]:
        """All stored pairs across shards."""
        ks, vs = [], []
        for shard in self.shards:
            sk, sv = shard.export()
            ks.append(sk)
            vs.append(sv)
        return np.concatenate(ks), np.concatenate(vs)

    def free(self) -> None:
        for shard in self.shards:
            shard.free()
        if self._owns_engine:
            self.engine.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DistributedHashTable(gpus={self.num_gpus}, "
            f"capacity={self.total_capacity}, size={len(self)})"
        )
