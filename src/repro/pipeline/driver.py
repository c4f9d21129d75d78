"""Asynchronous streaming driver — the paper's third contribution as API.

"WarpDrive supports asynchronous insertion and querying with a
user-defined number of CPU threads in order to fully utilize the
available hardware resources" (§IV-B).  The driver consumes a batch
stream and executes every cascade on a
:class:`~repro.multigpu.distributed_table.DistributedHashTable`, pricing
each batch with the perf model and scheduling the stage timeline with
the requested thread count — returning both the data-structure results
and the modelled overlapped wall time.

With ``depth >= 2`` the driver is a *real* pipeline scheduler: a stager
thread runs batch ``i+1``'s host-side distribution phase into a
ying/yang staging arena (:mod:`repro.pipeline.staging`) while the
calling thread commits batch ``i`` — bounded by a modelled-VRAM staging
budget, with stream-order sequence-numbered commits keeping every depth
bit-identical to ``depth=1``.  Because batches materialize lazily on the
stager thread, a generator stream larger than the modelled VRAM ingests
out-of-core under the budget's backpressure.
"""

from __future__ import annotations

import time
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..exec.metrics import MeasuredTimeline, ShardSpan
from ..multigpu.distributed_table import CascadeReport, DistributedHashTable
from ..obs import runtime as obs
from ..obs.protocol import reportable_dict
from ..options import UNSET
from ..perfmodel.cascade import time_cascade
from ..perfmodel.memmodel import throughput
from .schedule import schedule_batches
from .scheduler import PipelineScheduler
from .stages import insert_stages, query_stages
from .staging import StagingArena, StagingBudget
from .timeline import Timeline

__all__ = ["StreamResult", "AsyncCascadeDriver"]

#: accepted ``pace=`` vocabulary (see :class:`AsyncCascadeDriver`)
PACE_MODES = ("none", "modelled")


@dataclass
class StreamResult:
    """Outcome of one streamed operation sequence."""

    #: overlapped schedule of all batch cascades
    timeline: Timeline
    #: the T=1 (fully sequential) schedule for comparison
    sequential: Timeline
    #: total key-value operations streamed
    num_ops: int
    #: query streams: concatenated values and found mask, input order
    values: np.ndarray | None = None
    found: np.ndarray | None = None
    #: real wall-clock spans (``measure=True`` drivers only)
    measured: MeasuredTimeline | None = None
    #: in-flight batch depth the stream ran with
    depth: int = 1
    #: device-occupancy pacing mode the stream ran with
    pace: str = "none"
    #: total stager backpressure wait (budget-full + slot-busy), seconds
    stall_seconds: float = 0.0
    #: high-water mark of staged-but-uncommitted bytes
    peak_staged_bytes: int = 0

    schema_version = 2

    @property
    def makespan(self) -> float:
        return self.timeline.makespan

    @property
    def measured_makespan(self) -> float | None:
        """Real seconds the stream took.

        ``None`` when the driver ran with ``measure=False`` — there is
        no measurement, and returning a fake ``0.0`` would poison
        downstream statistics.  Callers needing a number should test
        ``result.measured is not None`` first.
        """
        return self.measured.makespan if self.measured is not None else None

    @property
    def reduction(self) -> float:
        """Wall-time reduction vs the sequential schedule (Fig. 11)."""
        if self.sequential.makespan <= 0:
            return 0.0
        return 1.0 - self.timeline.makespan / self.sequential.makespan

    @property
    def ops_per_second(self) -> float:
        """Stream throughput in operations per second.

        Prefers the *measured* makespan when the driver ran with
        ``measure=True`` — real seconds are authoritative whenever both
        exist (``docs/execution.md``) — and falls back to the modelled
        overlapped makespan otherwise.
        """
        span = self.measured_makespan
        if span is not None and span > 0:
            return throughput(self.num_ops, span)
        return throughput(self.num_ops, self.makespan)

    def to_dict(self) -> dict:
        """:class:`repro.obs.Reportable` serialization (stable keys).

        Array payloads (``values``/``found``) are summarized, not
        dumped — stream results can hold millions of elements.
        """
        return reportable_dict(
            self,
            {
                "num_ops": self.num_ops,
                "makespan": self.makespan,
                "sequential_makespan": self.sequential.makespan,
                "reduction": self.reduction,
                "ops_per_second": self.ops_per_second,
                "measured_makespan": self.measured_makespan,
                "depth": self.depth,
                "pace": self.pace,
                "stall_seconds": self.stall_seconds,
                "peak_staged_bytes": self.peak_staged_bytes,
                "num_values": (
                    None if self.values is None else int(self.values.shape[0])
                ),
                "num_found": (
                    None if self.found is None else int(self.found.sum())
                ),
                "spans": [s.to_dict() for s in self.timeline.spans],
                "measured_spans": (
                    []
                    if self.measured is None
                    else [s.to_dict() for s in self.measured.spans]
                ),
            },
        )


class _Pacer:
    """Real-time device-occupancy model behind ``pace="modelled"``.

    ``launch`` marks a committed batch's modelled kernel as occupying
    the devices; ``drain`` sleeps until the modelled device is idle
    again.  The sleep releases the GIL, so under ``depth >= 2`` the
    stager thread stages the next wave *during* the drain — the measured
    overlap is real concurrency against an explicitly modelled device,
    not a fabricated number.  Every depth drains the same modelled
    kernel seconds (the same cascades are committed), so any measured
    makespan reduction between depths is attributable purely to overlap.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        #: absolute ``perf_counter`` instant the modelled device frees up
        self.device_free_at = 0.0
        self.paced_seconds = 0.0

    def launch(self, kernel_seconds: float) -> None:
        """Occupy the modelled device for ``kernel_seconds`` more."""
        if not self.enabled or kernel_seconds <= 0:
            return
        now = time.perf_counter()
        self.device_free_at = max(self.device_free_at, now) + kernel_seconds

    def drain(self, reason: str) -> tuple[float, float] | None:
        """Sleep until the modelled device is idle.

        Returns the ``(start, end)`` wall instants of the wait, or
        ``None`` when nothing was in flight.
        """
        if not self.enabled:
            return None
        t0 = time.perf_counter()
        remaining = self.device_free_at - t0
        if remaining <= 0:
            return None
        with obs.span(
            "pipeline.pace", "pipeline", reason=reason, seconds=remaining
        ):
            time.sleep(remaining)
        t1 = time.perf_counter()
        self.paced_seconds += t1 - t0
        return (t0, t1)


class AsyncCascadeDriver:
    """Streams batches through a distributed table with overlap.

    Batches of equal size hit the table's cascade-plan cache
    (:mod:`repro.multigpu.plan`): the chunk slices, key-only packing
    planes, and reverse-routing scratch of the first wave are reused by
    every following wave, and with ``kernels="compiled"`` tables the
    shard loops launch from the warm process-local JIT cache — the
    compile-once/launch-many regime the paper's throughput numbers
    assume.

    Parameters
    ----------
    table:
        The target distributed hash map.  Alternatively pass
        ``total_capacity=`` (with the unified ``topology=`` option, see
        :mod:`repro.options`) and the driver builds — and owns — its own
        :class:`DistributedHashTable`; call :meth:`close` to free it.
    topology:
        Interconnect spec for a driver-owned table (a
        :class:`~repro.multigpu.topology.Topology`, ``TopologySpec``, or
        spec string like ``"cluster:2x4"``).  Invalid together with an
        explicit ``table`` — the table already fixes its topology.
    total_capacity:
        Aggregate slot count of the driver-owned table.
    num_threads:
        CPU threads in the *modelled* stage schedule (the paper
        evaluates 1, 2, 4).
    scale:
        Optional projection factor per batch (scaled-down batches standing
        in for paper-size ones).
    measure:
        When True, also *measure* each batch cascade with a monotonic
        clock and attach a :class:`~repro.exec.MeasuredTimeline` to the
        result — real seconds from the execution engine next to the
        modelled makespan (``docs/execution.md``).
    depth:
        In-flight batch depth.  ``1`` (default) runs each cascade to
        completion before the next one starts; ``depth >= 2`` turns the
        stream into a real pipeline: a stager thread runs batch
        ``i+1``'s distribution phase into a ying/yang staging arena
        while the calling thread commits batch ``i``, with results,
        counters, and transfer logs bit-identical to ``depth=1``
        (``docs/streaming_pipeline.md``).
    staging_budget:
        Byte ceiling for staged-but-uncommitted cascades (modelled VRAM
        set aside for staging buffers).  The stager blocks when the
        budget is full — the pipeline's backpressure, surfaced as
        ``pipeline.stall`` spans/metrics.  ``None`` (default) budgets
        half the node's free modelled VRAM at stream start.
    pace:
        ``"none"`` (default) or ``"modelled"``.  Modelled pacing makes
        the modelled kernel occupancy take *real* time: after each
        commit the driver sleeps until the modelled device would be
        free, for every depth, so measured makespans compare the same
        modelled device across depths and any reduction comes purely
        from overlap.  This is an explicit simulation mode for overlap
        experiments on hosts without accelerators — it never changes
        results, only wall time.
    """

    def __init__(
        self,
        table: DistributedHashTable | None = None,
        *,
        topology=UNSET,
        total_capacity: int | None = None,
        num_threads: int = 4,
        scale: float = 1.0,
        measure: bool = False,
        depth: int = 1,
        staging_budget: int | None = None,
        pace: str = "none",
    ):
        if table is None:
            if total_capacity is None:
                raise ConfigurationError(
                    "AsyncCascadeDriver: pass a table, or total_capacity= "
                    "(optionally with topology=) to build one"
                )
            table = DistributedHashTable(
                total_capacity,
                topology=None if topology is UNSET else topology,
            )
            self._owns_table = True
        else:
            if topology is not UNSET:
                raise ConfigurationError(
                    "AsyncCascadeDriver: got both a table and 'topology='; "
                    "the table already fixes its topology"
                )
            if total_capacity is not None:
                raise ConfigurationError(
                    "AsyncCascadeDriver: got both a table and 'total_capacity='"
                )
            self._owns_table = False
        if num_threads < 1:
            raise ConfigurationError(f"num_threads must be >= 1, got {num_threads}")
        if scale <= 0:
            raise ConfigurationError(f"scale must be > 0, got {scale}")
        if int(depth) < 1:
            raise ConfigurationError(f"depth must be >= 1, got {depth}")
        if pace not in PACE_MODES:
            raise ConfigurationError(
                f"pace must be one of {PACE_MODES}, got {pace!r}"
            )
        if staging_budget is not None and int(staging_budget) <= 0:
            raise ConfigurationError(
                f"staging_budget must be > 0 bytes, got {staging_budget}"
            )
        self.table = table
        self.num_threads = num_threads
        self.scale = scale
        self.measure = bool(measure)
        self.depth = int(depth)
        self.staging_budget = (
            None if staging_budget is None else int(staging_budget)
        )
        self.pace = pace

    def close(self) -> None:
        """Free the table if this driver built it (``total_capacity=``).

        No-op for drivers wrapping a caller-supplied table — the caller
        owns that table's lifetime.
        """
        if self._owns_table:
            self.table.free()
            self._owns_table = False

    def _resolve_budget(self) -> int:
        """The staging byte ceiling for one stream (half free VRAM)."""
        if self.staging_budget is not None:
            return self.staging_budget
        free = sum(d.free_bytes for d in self.table.topology.devices)
        return max(free // 2, 1)

    def _record_batch(
        self,
        measured: MeasuredTimeline | None,
        op: str,
        report: CascadeReport,
        epoch: float,
        batch_start: float,
    ) -> None:
        """Append one batch's measured spans (epoch-relative seconds)."""
        if measured is None:
            return
        now = time.perf_counter()
        measured.add(ShardSpan(-1, f"{op} batch", batch_start - epoch, now - epoch))
        # the host-side distribution phases (multisplit + transpose +
        # reverse) as one span anchored at the batch start — the cost the
        # fused path shrinks, visible next to the kernel spans
        if report.distribution_wall_seconds > 0:
            measured.add(
                ShardSpan(
                    -1,
                    f"{op} distribution",
                    batch_start - epoch,
                    batch_start - epoch + report.distribution_wall_seconds,
                )
            )
        # a mid-batch coordinated shard growth, anchored at the batch start
        # (it runs between the transposition and the kernel phase)
        if report.grow_wall_seconds > 0:
            measured.add(
                ShardSpan(
                    -1,
                    f"{op} grow",
                    batch_start - epoch,
                    batch_start - epoch + report.grow_wall_seconds,
                )
            )
        # kernel spans are 0-based at the kernel phase; rebase to the epoch
        offset = (now - epoch) - report.kernel_wall_seconds
        measured.extend(report.kernel_spans, offset=offset)

    @staticmethod
    def _record_pace(
        measured: MeasuredTimeline | None,
        epoch: float,
        op: str,
        window: tuple[float, float] | None,
    ) -> None:
        """Append one pacing drain as a measured span (if any)."""
        if measured is not None and window is not None:
            t0, t1 = window
            measured.add(ShardSpan(-1, f"{op} pace", t0 - epoch, t1 - epoch))

    def insert_stream(
        self, batches: Iterable[tuple[np.ndarray, np.ndarray]]
    ) -> StreamResult:
        """Insert (keys, values) batches; returns the overlapped timeline.

        With ``depth >= 2`` the batches stage ahead on the pipeline's
        stager thread; results and table state stay bit-identical to
        ``depth=1``.
        """
        if self.depth > 1:
            return self._pipelined_stream("insert", batches)
        stage_lists = []
        total = 0
        measured = MeasuredTimeline() if self.measure else None
        pacer = _Pacer(self.pace == "modelled")
        epoch = time.perf_counter()
        for i, (keys, values) in enumerate(batches):
            with obs.span("insert batch", "batch", index=i):
                batch_start = time.perf_counter()
                report = self.table.insert(keys, values, source="host")
                self._record_batch(measured, "insert", report, epoch, batch_start)
                timing = time_cascade(
                    report, self.table, self.table.topology, scale=self.scale
                )
                stage_lists.append(insert_stages(timing))
                total += int(np.asarray(keys).shape[0])
            # depth=1: the device drains before the next batch stages
            pacer.launch(timing.kernel)
            self._record_pace(measured, epoch, "insert", pacer.drain("inline"))
        return StreamResult(
            timeline=schedule_batches(stage_lists, self.num_threads),
            sequential=schedule_batches(stage_lists, 1),
            num_ops=int(total * self.scale),
            measured=measured,
            depth=self.depth,
            pace=self.pace,
        )

    def query_stream(self, batches: Iterable[np.ndarray]) -> StreamResult:
        """Query key batches; results concatenate in stream order.

        With ``depth >= 2`` the batches stage ahead on the pipeline's
        stager thread; values and found masks stay bit-identical to
        ``depth=1``.
        """
        if self.depth > 1:
            return self._pipelined_stream("query", batches)
        stage_lists = []
        all_values: list[np.ndarray] = []
        all_found: list[np.ndarray] = []
        total = 0
        measured = MeasuredTimeline() if self.measure else None
        pacer = _Pacer(self.pace == "modelled")
        epoch = time.perf_counter()
        for i, keys in enumerate(batches):
            with obs.span("query batch", "batch", index=i):
                batch_start = time.perf_counter()
                values, found, report = self.table.query(keys, source="host")
                self._record_batch(measured, "query", report, epoch, batch_start)
                timing = time_cascade(
                    report, self.table, self.table.topology, scale=self.scale
                )
                stage_lists.append(query_stages(timing))
                all_values.append(values)
                all_found.append(found)
                total += int(np.asarray(keys).shape[0])
            pacer.launch(timing.kernel)
            self._record_pace(measured, epoch, "query", pacer.drain("inline"))
        return StreamResult(
            timeline=schedule_batches(stage_lists, self.num_threads),
            sequential=schedule_batches(stage_lists, 1),
            num_ops=int(total * self.scale),
            values=np.concatenate(all_values) if all_values else np.empty(0, np.uint32),
            found=np.concatenate(all_found) if all_found else np.empty(0, bool),
            measured=measured,
            depth=self.depth,
            pace=self.pace,
        )

    def _pipelined_stream(self, op: str, batches: Iterable) -> StreamResult:
        """The ``depth >= 2`` overlapped path (§IV-B's pipeline).

        A stager thread walks ``batches`` in order, stages each into an
        arena slot (blocking on the ying/yang rotation and the staging
        budget), and the calling thread commits staged cascades strictly
        in sequence-number order — so all table mutation, counter
        merging, and transfer logging happen exactly as in the inline
        path, just overlapped with the next wave's distribution phase.
        """
        table = self.table
        m = table.num_gpus
        budget = StagingBudget(self._resolve_budget())
        arena = StagingArena(self.depth, budget)
        pacer = _Pacer(self.pace == "modelled")
        measured = MeasuredTimeline() if self.measure else None
        stage_lists: list = []
        all_values: list[np.ndarray] = []
        all_found: list[np.ndarray] = []
        totals = {"ops": 0}
        epoch = time.perf_counter()

        def _nbytes(payload) -> int:
            # staged footprint: one packed uint64 plane per pair/key
            keys = payload[0] if op == "insert" else payload
            return int(np.asarray(keys).shape[0]) * 8

        def _stage(slot, seqno, payload):
            t0 = time.perf_counter()
            with obs.span(f"{op} stage", "pipeline", index=seqno):
                if op == "insert":
                    keys, values = payload
                    plan = slot.plans.get(
                        "insert", int(np.asarray(keys).shape[0]), m
                    )
                    staged = table.stage_insert(
                        keys, values, source="host", plan=plan
                    )
                else:
                    plan = slot.plans.get(
                        "query", int(np.asarray(payload).shape[0]), m
                    )
                    staged = table.stage_query(payload, source="host", plan=plan)
            staged.seqno = seqno
            return (staged, t0, time.perf_counter())

        def _drain_in_flight():
            # coordinated growth: the modelled device must be idle first
            self._record_pace(measured, epoch, op, pacer.drain("grow"))

        def _commit(seqno, item):
            staged, s0, s1 = item
            # the previous wave's modelled kernel must finish before this
            # wave's commit touches the shards; the stager keeps staging
            # through this wait — that concurrency is the measured overlap
            self._record_pace(measured, epoch, op, pacer.drain("commit"))
            c0 = time.perf_counter()
            with obs.span(f"{op} batch", "batch", index=seqno):
                out = table.commit_staged(staged, drain=_drain_in_flight)
            c1 = time.perf_counter()
            report = staged.report
            timing = time_cascade(report, table, table.topology, scale=self.scale)
            pacer.launch(timing.kernel)
            stage_lists.append(
                insert_stages(timing) if op == "insert" else query_stages(timing)
            )
            totals["ops"] += staged.num_ops
            if measured is not None:
                measured.add(ShardSpan(-1, f"{op} batch", s0 - epoch, c1 - epoch))
                # the distribution span carries the stager thread's real
                # instants — under load it genuinely overlaps the previous
                # batch's commit/pace spans (Fig. 5)
                measured.add(
                    ShardSpan(-1, f"{op} distribution", s0 - epoch, s1 - epoch)
                )
                if report.grow_wall_seconds > 0:
                    measured.add(
                        ShardSpan(
                            -1,
                            f"{op} grow",
                            c0 - epoch,
                            c0 - epoch + report.grow_wall_seconds,
                        )
                    )
                offset = (c1 - epoch) - report.kernel_wall_seconds
                measured.extend(report.kernel_spans, offset=offset)
            if op == "query":
                values, found, _ = out
                all_values.append(values)
                all_found.append(found)
            return out

        scheduler = PipelineScheduler(arena)
        scheduler.run(
            batches,
            stage=_stage,
            commit=_commit,
            nbytes=_nbytes,
            discard=lambda item: table.discard_staged(item[0]),
        )
        # stream end: the last modelled kernel finishes before we report
        self._record_pace(measured, epoch, op, pacer.drain("final"))

        result = StreamResult(
            timeline=schedule_batches(stage_lists, self.num_threads),
            sequential=schedule_batches(stage_lists, 1),
            num_ops=int(totals["ops"] * self.scale),
            measured=measured,
            depth=self.depth,
            pace=self.pace,
            stall_seconds=arena.stall_seconds,
            peak_staged_bytes=budget.peak_bytes,
        )
        if op == "query":
            result.values = (
                np.concatenate(all_values)
                if all_values
                else np.empty(0, np.uint32)
            )
            result.found = (
                np.concatenate(all_found) if all_found else np.empty(0, bool)
            )
        return result
