"""Backend determinism: serial ≡ thread ≡ process, bit for bit.

The engine's contract (ISSUE: shards are disjoint, kernels are pure,
counters are charged parent-side in shard order) means every backend
must produce identical final slot arrays, statuses/outputs, and merged
counter totals.  These tests enforce that for insert/query/erase over
|g| ∈ {1, 4, 32}, including a tombstone-heavy erase-then-reinsert pass.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from profiles import examples

from repro.core.partitioned import PartitionedWarpDriveTable
from repro.multigpu.distributed_table import DistributedHashTable
from repro.multigpu.topology import p100_nvlink_node
from repro.workloads import random_values, unique_keys

COUNTER_FIELDS = (
    "load_sectors",
    "store_sectors",
    "cas_attempts",
    "cas_successes",
    "warp_collectives",
    "window_probes",
    "kernel_launches",
)


def _counter_totals(devices) -> tuple:
    return tuple(
        tuple(getattr(d.counter, f) for f in COUNTER_FIELDS) for d in devices
    )


def _run_cascades(engine: str, group_size: int, n: int = 6000) -> dict:
    """One full insert → query → erase → reinsert run; returns a snapshot."""
    keys = unique_keys(n, seed=21)
    values = random_values(n, seed=22)
    topology = p100_nvlink_node(4)
    table = DistributedHashTable.for_workload(
        topology, keys, 0.85, group_size=group_size,
        engine=engine, workers=2,
    )
    try:
        irep = table.insert(keys, values, source="device")
        qvals, qfound, _ = table.query(keys, source="device")
        erased, _ = table.erase(keys[: n // 2])
        # tombstone-heavy reinsert: half the table is tombstones now
        table.insert(keys[: n // 2], values[: n // 2] + 1, source="device")
        return {
            "slots": tuple(s.slots.tobytes() for s in table.shards),
            "statuses": tuple(
                r.probe_windows.tobytes() for r in irep.kernel_reports
            ),
            "query": (qvals.tobytes(), qfound.tobytes()),
            "erased": erased.tobytes(),
            "counters": _counter_totals(topology.devices),
            "size": len(table),
            "merged": tuple(
                getattr(irep.merged_kernel_report(), f)
                for f in ("num_ops", "load_sectors", "cas_attempts", "failed")
            ),
        }
    finally:
        table.free()


class TestDistributedEquivalence:
    @pytest.mark.parametrize("group_size", [1, 4, 32])
    def test_serial_vs_thread(self, group_size):
        assert _run_cascades("serial", group_size) == _run_cascades(
            "thread", group_size
        )

    @pytest.mark.slow
    @pytest.mark.parametrize("group_size", [1, 4, 32])
    def test_serial_vs_process(self, group_size):
        assert _run_cascades("serial", group_size) == _run_cascades(
            "process", group_size
        )


def _run_partitioned(engine: str, keys, values) -> dict:
    table = PartitionedWarpDriveTable(
        max(2 * keys.size, 64),
        max_partition_bytes=max(keys.size, 16) * 8 // 2,
        engine=engine,
        workers=2,
    )
    try:
        table.insert(keys, values)
        qvals, qfound = table.query(keys)
        erased = table.erase(keys[::2])
        table.insert(keys[::2], values[::2])
        return {
            "slots": tuple(s.slots.tobytes() for s in table.subtables),
            "query": (qvals.tobytes(), qfound.tobytes()),
            "erased": erased.tobytes(),
            "counters": tuple(
                tuple(getattr(s.counter, f) for f in COUNTER_FIELDS)
                for s in table.subtables
            ),
            "size": len(table),
        }
    finally:
        table.free()


class TestPartitionedEquivalence:
    def test_serial_vs_thread(self):
        keys = unique_keys(4000, seed=31)
        values = random_values(4000, seed=32)
        assert _run_partitioned("serial", keys, values) == _run_partitioned(
            "thread", keys, values
        )

    @pytest.mark.slow
    def test_serial_vs_process(self):
        keys = unique_keys(4000, seed=31)
        values = random_values(4000, seed=32)
        assert _run_partitioned("serial", keys, values) == _run_partitioned(
            "process", keys, values
        )


class TestPropertyEquivalence:
    @examples(15)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n=st.integers(min_value=1, max_value=800),
        group_size=st.sampled_from([1, 4, 32]),
    )
    def test_random_workloads_serial_vs_thread(self, seed, n, group_size):
        keys = unique_keys(n, seed=seed)
        values = random_values(n, seed=seed + 1)
        topology_a, topology_b = p100_nvlink_node(4), p100_nvlink_node(4)
        a = DistributedHashTable.for_workload(
            topology_a, keys, 0.8, group_size=group_size, engine="serial"
        )
        b = DistributedHashTable.for_workload(
            topology_b, keys, 0.8, group_size=group_size,
            engine="thread", workers=2,
        )
        try:
            a.insert(keys, values, source="device")
            b.insert(keys, values, source="device")
            av, af, _ = a.query(keys, source="device")
            bv, bf, _ = b.query(keys, source="device")
            ae, _ = a.erase(keys[: n // 2])
            be, _ = b.erase(keys[: n // 2])
            for sa, sb in zip(a.shards, b.shards):
                assert np.array_equal(sa.slots, sb.slots)
            assert np.array_equal(av, bv)
            assert np.array_equal(af, bf)
            assert np.array_equal(ae, be)
            assert _counter_totals(topology_a.devices) == _counter_totals(
                topology_b.devices
            )
        finally:
            a.free()
            b.free()
