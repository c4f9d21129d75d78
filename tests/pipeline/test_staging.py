"""Units for the staging arena/budget + scheduler, and the backpressure
and out-of-core guarantees of the ``depth >= 2`` pipeline (§IV-B).

The backpressure tests prove the staging budget *bounds* peak in-flight
bytes (never merely records them); the out-of-core tests ingest a
stream whose one-shot staging footprint exceeds the modelled per-GPU
VRAM margin, which only the bounded pipeline can do.
"""

from __future__ import annotations

import threading
import time

import networkx as nx
import numpy as np
import pytest

from repro.errors import AllocationError, ConfigurationError
from repro.multigpu import DistributedHashTable
from repro.multigpu.topology import NodeTopology
from repro.obs import runtime as obs
from repro.obs.export import to_perfetto, validate_trace
from repro.pipeline import (
    AsyncCascadeDriver,
    PipelineAborted,
    PipelineScheduler,
    StagingArena,
    StagingBudget,
)
from repro.simt.device import Device, GPUSpec


def small_node(num_gpus: int, vram_bytes: int) -> NodeTopology:
    """A fully-connected NVLink node of tiny-VRAM cards."""
    spec = GPUSpec(name="tiny", vram_bytes=vram_bytes, mem_bandwidth=1e9)
    devices = [Device(i, spec) for i in range(num_gpus)]
    graph = nx.MultiGraph()
    graph.add_nodes_from(range(num_gpus))
    for a in range(num_gpus):
        for b in range(a + 1, num_gpus):
            graph.add_edge(a, b, bandwidth=20e9)
    return NodeTopology(
        devices=devices,
        nvlink=graph,
        pcie_switch_of={i: i // 4 for i in range(num_gpus)},
        pcie_switch_bandwidth=11e9,
    )


def keyed_batches(n: int, num_batches: int, seed: int = 3):
    keys = np.random.default_rng(seed).permutation(
        np.arange(1, n + 1, dtype=np.uint64)
    )
    values = (keys & 0x7FFFFFFF).astype(np.uint32)
    return list(
        zip(np.array_split(keys, num_batches), np.array_split(values, num_batches))
    ), keys, values


class TestStagingBudget:
    def test_rejects_nonpositive_ceiling(self):
        with pytest.raises(ConfigurationError):
            StagingBudget(0)

    def test_accounting_and_peak(self):
        budget = StagingBudget(100)
        budget.acquire(60)
        budget.acquire(40)
        assert budget.in_flight_bytes == 100
        budget.release(60)
        budget.acquire(10)
        assert budget.in_flight_bytes == 50
        assert budget.peak_bytes == 100

    def test_oversized_cascade_rejected_not_deadlocked(self):
        budget = StagingBudget(64)
        with pytest.raises(AllocationError, match="smaller batches"):
            budget.acquire(65)

    def test_release_more_than_in_flight_rejected(self):
        budget = StagingBudget(64)
        budget.acquire(10)
        with pytest.raises(ConfigurationError):
            budget.release(11)

    def test_full_budget_blocks_until_release(self):
        budget = StagingBudget(100)
        budget.acquire(80)
        acquired = threading.Event()

        def blocked():
            budget.acquire(40)
            acquired.set()

        t = threading.Thread(target=blocked, daemon=True)
        t.start()
        assert not acquired.wait(0.1)
        budget.release(80)
        assert acquired.wait(2.0)
        t.join(timeout=2.0)
        assert budget.stalls == 1
        assert budget.stall_seconds > 0
        assert budget.peak_bytes == 80  # the bound held throughout

    def test_abort_wakes_blocked_acquire(self):
        budget = StagingBudget(10)
        budget.acquire(10)
        failed = threading.Event()

        def blocked():
            with pytest.raises(PipelineAborted):
                budget.acquire(5)
            failed.set()

        t = threading.Thread(target=blocked, daemon=True)
        t.start()
        time.sleep(0.05)
        budget.abort()
        assert failed.wait(2.0)
        t.join(timeout=2.0)


class TestStagingArena:
    def test_rejects_bad_depth(self):
        with pytest.raises(ConfigurationError):
            StagingArena(0, StagingBudget(10))

    def test_yingyang_rotation(self):
        arena = StagingArena(2, StagingBudget(1 << 20))
        s0 = arena.acquire(0, 8)
        s1 = arena.acquire(1, 8)
        assert (s0.index, s1.index) == (0, 1)
        arena.release(s0, 8)
        s2 = arena.acquire(2, 8)
        assert s2.index == 0  # seqno % depth

    def test_slots_have_private_plan_caches(self):
        arena = StagingArena(3, StagingBudget(1 << 20))
        caches = {id(slot.plans) for slot in arena.slots}
        assert len(caches) == 3

    def test_busy_slot_blocks_until_commit_releases(self):
        arena = StagingArena(2, StagingBudget(1 << 20))
        s0 = arena.acquire(0, 8)
        arena.acquire(1, 8)
        got = threading.Event()

        def wants_slot0_again():
            arena.acquire(2, 8)
            got.set()

        t = threading.Thread(target=wants_slot0_again, daemon=True)
        t.start()
        assert not got.wait(0.1)
        arena.release(s0, 8)
        assert got.wait(2.0)
        t.join(timeout=2.0)
        assert arena.slot_stalls == 1
        assert arena.stall_seconds > 0

    def test_failed_budget_acquire_unbusies_slot(self):
        arena = StagingArena(1, StagingBudget(16))
        with pytest.raises(AllocationError):
            arena.acquire(0, 32)
        # the slot must be claimable again after the failed admission
        slot = arena.acquire(1, 8)
        assert slot.index == 0


class TestScheduler:
    def _arena(self, depth=2):
        return StagingArena(depth, StagingBudget(1 << 20))

    def test_commits_in_sequence_order(self):
        scheduler = PipelineScheduler(self._arena())
        order = []
        out = scheduler.run(
            range(10),
            stage=lambda slot, seqno, payload: payload * 2,
            commit=lambda seqno, staged: order.append(seqno) or staged,
            nbytes=lambda payload: 8,
        )
        assert order == list(range(10))
        assert out == [i * 2 for i in range(10)]

    def test_stage_error_propagates_to_caller(self):
        scheduler = PipelineScheduler(self._arena())

        def stage(slot, seqno, payload):
            if seqno == 3:
                raise ValueError("boom at 3")
            return payload

        with pytest.raises(ValueError, match="boom at 3"):
            scheduler.run(
                range(10),
                stage=stage,
                commit=lambda seqno, staged: staged,
                nbytes=lambda payload: 8,
            )
        assert scheduler.arena.budget.in_flight_bytes == 0

    def test_commit_error_discards_staged_and_releases_budget(self):
        arena = self._arena(depth=4)
        scheduler = PipelineScheduler(arena)
        discarded = []

        def commit(seqno, staged):
            if seqno == 1:
                time.sleep(0.05)  # let the stager run ahead
                raise RuntimeError("commit failed")
            return staged

        with pytest.raises(RuntimeError, match="commit failed"):
            scheduler.run(
                range(8),
                stage=lambda slot, seqno, payload: payload,
                commit=commit,
                nbytes=lambda payload: 8,
                discard=discarded.append,
            )
        assert arena.budget.in_flight_bytes == 0

    def test_generator_payloads_materialize_lazily(self):
        """At most ``depth`` payloads are ever realized ahead of the
        committer — the property that makes out-of-core streams safe."""
        arena = self._arena(depth=2)
        scheduler = PipelineScheduler(arena)
        produced = []
        committed = []

        def gen():
            for i in range(12):
                produced.append(i)
                yield i

        def commit(seqno, staged):
            committed.append(seqno)
            # stager may hold one staged wave + be producing the next
            assert len(produced) - len(committed) <= arena.depth + 1
            return staged

        scheduler.run(
            gen(),
            stage=lambda slot, seqno, payload: payload,
            commit=commit,
            nbytes=lambda payload: 8,
        )
        assert committed == list(range(12))


class TestBackpressure:
    def test_budget_bounds_peak_in_flight_bytes(self):
        batches, keys, values = keyed_batches(1 << 13, 8)
        per_batch = (1 << 13) // 8 * 8  # packed uint64 per pair
        node = small_node(4, 64 << 20)
        table = DistributedHashTable(1 << 14, topology=node)
        driver = AsyncCascadeDriver(
            table, depth=4, staging_budget=per_batch * 2, pace="modelled",
            scale=50.0,
        )
        res = driver.insert_stream(batches)
        assert res.peak_staged_bytes <= per_batch * 2
        assert res.stall_seconds > 0  # depth 4 wanted more than 2 batches
        assert len(table) == 1 << 13

    def test_stalls_surface_in_obs(self):
        batches, _, _ = keyed_batches(1 << 12, 8)
        per_batch = (1 << 12) // 8 * 8
        node = small_node(2, 64 << 20)
        table = DistributedHashTable(1 << 13, topology=node)
        with obs.session() as (recorder, metrics):
            driver = AsyncCascadeDriver(
                table, depth=4, staging_budget=per_batch, pace="modelled",
                scale=50.0,
            )
            driver.insert_stream(batches)
        stalls = [s for s in recorder.spans if s.name == "pipeline.stall"]
        assert stalls, "backpressure must trace pipeline.stall spans"
        assert metrics.counter("pipeline.stall.count") >= 1
        assert metrics.counter("pipeline.stall.seconds") > 0
        assert metrics.gauge("queue.pipeline.staging_bytes.peak_depth") <= per_batch
        # with room to stage ahead, the stager thread stages a wave while
        # the caller commits or paces an earlier one: the spans overlap
        with obs.session() as (recorder, metrics):
            AsyncCascadeDriver(
                DistributedHashTable(1 << 13, topology=node), depth=4,
                pace="modelled", scale=50.0,
            ).insert_stream(batches)
        staged = [
            s for s in recorder.spans
            if s.category == "pipeline" and s.name.endswith(" stage")
        ]
        busy = [
            s for s in recorder.spans
            if s.category == "batch" or s.name == "pipeline.pace"
        ]
        assert any(
            s.start < b.end and b.start < s.end for s in staged for b in busy
        ), "no staging span overlapped a commit/occupancy span"
        assert validate_trace(to_perfetto(recorder, metrics)) == []


class TestOutOfCore:
    """Streams whose one-shot staging exceeds the modelled VRAM margin."""

    def _vram_for(self, num_gpus: int, capacity: int, margin: int) -> int:
        probe = small_node(num_gpus, 1 << 34)
        table = DistributedHashTable(capacity, topology=probe)
        footprint = max(d.allocated_bytes for d in probe.devices)
        del table
        return footprint + margin

    def _run(self, n: int, num_batches: int, *, depth: int):
        num_gpus = 4
        capacity = int(n / 0.8)
        # VRAM fits the shards plus ~4 staged batches — far below the
        # stream's one-shot staging footprint of n*2 bytes per GPU
        margin = (n // num_batches) * 8 // num_gpus * 4
        node = small_node(num_gpus, self._vram_for(num_gpus, capacity, margin))
        table = DistributedHashTable(capacity, topology=node)
        batches, keys, values = keyed_batches(n, num_batches)

        with pytest.raises(AllocationError):
            table.insert(keys, values)  # monolithic staging cannot fit

        driver = AsyncCascadeDriver(table, depth=depth)
        res = driver.insert_stream(iter(batches))
        assert len(table) == n
        assert res.depth == depth
        assert res.peak_staged_bytes <= margin * num_gpus
        qres = AsyncCascadeDriver(table, depth=depth).query_stream(
            [k for k, _ in batches]
        )
        assert qres.found.all()
        assert (qres.values == np.concatenate([v for _, v in batches])).all()

    def test_out_of_core_ingest(self):
        self._run(1 << 16, 32, depth=2)

    @pytest.mark.slow
    def test_out_of_core_ingest_2_22(self):
        """The tentpole demo: a 2^22 keyspace streams through a node
        whose free VRAM can stage only a few waves at a time."""
        self._run(1 << 22, 64, depth=2)
