"""Tests for the distributed multi-GPU hash table."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.hashing.partition import modulo_partition
from repro.memory.transfer import MemcpyKind
from repro.multigpu.distributed_table import DistributedHashTable
from repro.multigpu.topology import p100_nvlink_node
from repro.workloads.distributions import random_values, unique_keys, zipf_keys


@pytest.fixture(params=[1, 2, 3, 4])
def node(request):
    return p100_nvlink_node(request.param)


class TestInsertQuery:
    def test_roundtrip_all_gpu_counts(self, node):
        n = 4000
        t = DistributedHashTable.for_load_factor(node, n, 0.9, group_size=4)
        keys = unique_keys(n, seed=1)
        values = random_values(n, seed=2)
        report = t.insert(keys, values, source="host")
        assert len(t) == n
        got, found, _ = t.query(keys, source="host")
        assert found.all() and (got == values).all()

    def test_results_in_input_order(self):
        """The reverse transposition must restore submission order."""
        node = p100_nvlink_node(4)
        n = 2000
        t = DistributedHashTable.for_load_factor(node, n, 0.8)
        keys = unique_keys(n, seed=3)
        values = np.arange(n, dtype=np.uint32)  # value = submission index
        t.insert(keys, values)
        got, found, _ = t.query(keys)
        assert found.all()
        assert (got == values).all()

    def test_absent_keys_reported(self):
        node = p100_nvlink_node(4)
        n = 1000
        t = DistributedHashTable.for_load_factor(node, n, 0.8)
        keys = unique_keys(n, seed=4)
        t.insert(keys, keys)
        pool = unique_keys(3 * n, seed=5)
        absent = pool[~np.isin(pool, keys)][:200]
        got, found, _ = t.query(absent, default=42)
        assert not found.any() and (got == 42).all()

    def test_mixed_present_absent_interleaved(self):
        node = p100_nvlink_node(2)
        keys = unique_keys(500, seed=6)
        t = DistributedHashTable.for_load_factor(node, 500, 0.8)
        t.insert(keys, keys)
        pool = unique_keys(2000, seed=7)
        absent = pool[~np.isin(pool, keys)][:500]
        probe = np.empty(1000, dtype=np.uint32)
        probe[0::2] = keys
        probe[1::2] = absent
        _, found, _ = t.query(probe)
        assert found[0::2].all() and not found[1::2].any()

    def test_every_key_on_its_partition_gpu(self):
        node = p100_nvlink_node(4)
        t = DistributedHashTable.for_load_factor(node, 2000, 0.9)
        keys = unique_keys(2000, seed=8)
        t.insert(keys, keys)
        for gpu, shard in enumerate(t.shards):
            sk, _ = shard.export()
            assert (t.partition(sk) == gpu).all()

    def test_zipf_duplicates_fold_into_updates(self):
        # target load 0.7: with only ~300 unique keys across 4 shards the
        # partition imbalance needs headroom (at paper scale it vanishes;
        # see CascadeReport.load_imbalance)
        node = p100_nvlink_node(4)
        keys = zipf_keys(4000, s=1.3, universe=500, seed=9)
        uniq = int(np.unique(keys).shape[0])
        t = DistributedHashTable.for_load_factor(node, uniq, 0.7)
        t.insert(keys, np.arange(4000, dtype=np.uint32))
        assert len(t) == uniq

    def test_device_source_skips_pcie(self):
        node = p100_nvlink_node(4)
        keys = unique_keys(1000, seed=10)
        t = DistributedHashTable.for_load_factor(node, 1000, 0.9)
        rep_dev = t.insert(keys[:500], keys[:500], source="device")
        assert rep_dev.h2d_bytes == 0
        rep_host = t.insert(keys[500:], keys[500:], source="host")
        assert rep_host.h2d_bytes == 500 * 8

    def test_invalid_source(self):
        node = p100_nvlink_node(2)
        t = DistributedHashTable(100, topology=node)
        with pytest.raises(ConfigurationError):
            t.insert(np.array([1], dtype=np.uint32), np.array([1], dtype=np.uint32),
                     source="quantum")


class TestReports:
    def test_cascade_report_phases(self):
        node = p100_nvlink_node(4)
        n = 2000
        t = DistributedHashTable.for_load_factor(node, n, 0.9)
        keys = unique_keys(n, seed=11)
        rep = t.insert(keys, keys, source="host")
        assert rep.h2d_bytes == n * 8
        assert len(rep.multisplit_reports) == 4
        assert rep.partition_table is not None
        assert rep.alltoall_bytes == rep.partition_table.offdiagonal_bytes()
        assert len(rep.kernel_reports) == 4
        assert rep.load_imbalance < 1.3

    def test_query_report_includes_reverse(self):
        node = p100_nvlink_node(4)
        n = 2000
        t = DistributedHashTable.for_load_factor(node, n, 0.9)
        keys = unique_keys(n, seed=12)
        t.insert(keys, keys, source="host")
        _, _, rep = t.query(keys, source="host")
        assert rep.reverse_bytes > 0
        assert rep.d2h_bytes == n * 8
        # query ships 4-byte keys up
        assert rep.h2d_bytes == n * 4

    def test_merged_kernel_report(self):
        node = p100_nvlink_node(2)
        t = DistributedHashTable.for_load_factor(node, 1000, 0.9)
        keys = unique_keys(1000, seed=13)
        rep = t.insert(keys, keys)
        merged = rep.merged_kernel_report()
        assert merged.num_ops == 1000


class TestDistributedErase:
    def test_erase_cascade(self):
        node = p100_nvlink_node(4)
        keys = unique_keys(2000, seed=20)
        t = DistributedHashTable.for_workload(node, keys, 0.9)
        t.insert(keys, keys)
        erased, report = t.erase(keys[:500])
        assert erased.all()
        assert len(t) == 1500
        assert report.op == "erase"
        assert len(report.kernel_reports) == 4
        _, found, _ = t.query(keys[:500])
        assert not found.any()
        _, found, _ = t.query(keys[500:])
        assert found.all()

    def test_erase_absent_keys_flagged(self):
        node = p100_nvlink_node(2)
        keys = unique_keys(500, seed=21)
        t = DistributedHashTable.for_workload(node, keys, 0.8)
        t.insert(keys, keys)
        pool = unique_keys(2000, seed=22)
        absent = pool[~np.isin(pool, keys)][:100]
        probe = np.concatenate([keys[:100], absent])
        erased, _ = t.erase(probe)
        assert erased[:100].all() and not erased[100:].any()

    def test_erase_host_source_logs_transfers(self):
        """erase(source="host") must log H2D records matching its
        h2d accounting and report reverse traffic, like insert/query."""
        node = p100_nvlink_node(4)
        keys = unique_keys(2000, seed=24)
        t = DistributedHashTable.for_workload(node, keys, 0.9)
        t.insert(keys, keys, source="device")
        t.transfer_log.clear()
        erased, report = t.erase(keys[:1000], source="host")
        assert erased.all()
        assert report.h2d_bytes == 1000 * 4
        h2d_records = [
            r for r in t.transfer_log.records if r.kind is MemcpyKind.H2D
        ]
        assert sum(r.nbytes for r in h2d_records) == report.h2d_bytes
        assert all(r.tag == "erase keys" for r in h2d_records)
        # reverse traffic is now accounted exactly like the query cascade
        assert report.reverse_bytes > 0
        reverse_p2p = [
            r
            for r in t.transfer_log.records
            if r.kind is MemcpyKind.P2P and r.tag.startswith("reverse")
        ]
        assert sum(r.nbytes for r in reverse_p2p) == report.reverse_bytes

    def test_erase_device_source_logs_nothing_host_side(self):
        node = p100_nvlink_node(2)
        keys = unique_keys(500, seed=25)
        t = DistributedHashTable.for_workload(node, keys, 0.9)
        t.insert(keys, keys, source="device")
        t.transfer_log.clear()
        _, report = t.erase(keys[:100])  # default source="device"
        assert report.h2d_bytes == 0
        assert not any(
            r.kind is MemcpyKind.H2D for r in t.transfer_log.records
        )

    def test_query_reverse_bytes_matches_traffic_matrix(self):
        node = p100_nvlink_node(4)
        keys = unique_keys(2000, seed=26)
        t = DistributedHashTable.for_workload(node, keys, 0.9)
        t.insert(keys, keys, source="device")
        t.transfer_log.clear()
        _, _, report = t.query(keys, source="host")
        reverse_p2p = [
            r
            for r in t.transfer_log.records
            if r.kind is MemcpyKind.P2P and r.tag.startswith("reverse")
        ]
        assert report.reverse_bytes == sum(r.nbytes for r in reverse_p2p)

    def test_erase_then_reinsert(self):
        node = p100_nvlink_node(3)
        keys = unique_keys(600, seed=23)
        t = DistributedHashTable.for_workload(node, keys, 0.8)
        t.insert(keys, keys)
        t.erase(keys[:200])
        t.insert(keys[:200], (keys[:200] + 1).astype(np.uint32))
        got, found, _ = t.query(keys[:200])
        assert found.all() and (got == keys[:200] + 1).all()
        assert len(t) == 600


class TestConfiguration:
    def test_capacity_split_across_shards(self):
        node = p100_nvlink_node(4)
        t = DistributedHashTable(1000, topology=node)
        assert t.total_capacity == 4 * 250
        assert all(s.capacity == 250 for s in t.shards)

    @pytest.mark.parametrize("capacity", [128.5, 128.0, None])
    def test_non_integer_capacity_rejected(self, capacity):
        with pytest.raises(ConfigurationError, match="integer"):
            DistributedHashTable(capacity, topology="p100:2")

    def test_topology_as_capacity_names_the_type(self):
        with pytest.raises(ConfigurationError, match="NodeTopology"):
            DistributedHashTable(p100_nvlink_node(2))

    def test_custom_partition(self):
        node = p100_nvlink_node(4)
        t = DistributedHashTable(400, topology=node, partition=modulo_partition(4))
        keys = np.arange(100, dtype=np.uint32)
        t.insert(keys, keys, source="device")
        # key k lives on GPU k mod 4
        for gpu, shard in enumerate(t.shards):
            sk, _ = shard.export()
            assert (sk % 4 == gpu).all()

    def test_partition_gpu_mismatch_rejected(self):
        node = p100_nvlink_node(4)
        with pytest.raises(ConfigurationError):
            DistributedHashTable(100, topology=node, partition=modulo_partition(2))

    def test_export_collects_all_shards(self):
        node = p100_nvlink_node(3)
        keys = unique_keys(600, seed=14)
        t = DistributedHashTable.for_load_factor(node, 600, 0.8)
        t.insert(keys, keys)
        k, v = t.export()
        assert np.sort(k).tolist() == np.sort(keys).tolist()

    def test_vram_accounting(self):
        node = p100_nvlink_node(2)
        t = DistributedHashTable(2000, topology=node)
        assert node.devices[0].allocated_bytes == 1000 * 8
        t.free()
        assert node.devices[0].allocated_bytes == 0

    def test_staging_buffers_transient(self):
        """Fig. 4's double buffers reserve VRAM during a cascade and
        release it afterwards."""
        node = p100_nvlink_node(2)
        keys = unique_keys(1000, seed=30)
        t = DistributedHashTable.for_workload(node, keys, 0.8)
        before = node.devices[0].allocated_bytes
        t.insert(keys, keys)
        assert node.devices[0].allocated_bytes == before  # released
        # but the peak recorded the staging footprint (2x chunk pairs)
        assert node.devices[0].peak_allocated_bytes >= before + 2 * 500 * 8

    def test_staging_released_when_query_raises(self):
        """query()/erase() must release staging buffers on exception
        (the try/finally insert() always had)."""
        node = p100_nvlink_node(2)
        keys = unique_keys(1000, seed=32)
        t = DistributedHashTable.for_workload(node, keys, 0.8)
        t.insert(keys, keys)
        baseline = node.devices[0].allocated_bytes

        def boom(tasks):
            raise RuntimeError("engine crashed")

        t.engine.run = boom
        with pytest.raises(RuntimeError):
            t.query(keys)
        assert node.devices[0].allocated_bytes == baseline
        with pytest.raises(RuntimeError):
            t.erase(keys[:10])
        assert node.devices[0].allocated_bytes == baseline

    def test_oversized_batch_exhausts_vram(self):
        """A batch whose double buffers exceed the card must fail the
        same way the real node would."""
        from repro.errors import AllocationError
        from repro.multigpu.topology import NodeTopology
        from repro.simt.device import Device, GPUSpec
        import networkx as nx

        tiny = GPUSpec(name="tiny", vram_bytes=64 * 1024, mem_bandwidth=1e9)
        devices = [Device(i, tiny) for i in range(2)]
        graph = nx.MultiGraph()
        graph.add_nodes_from([0, 1])
        graph.add_edge(0, 1, bandwidth=20e9)
        node = NodeTopology(
            devices=devices,
            nvlink=graph,
            pcie_switch_of={0: 0, 1: 0},
            pcie_switch_bandwidth=11e9,
        )
        t = DistributedHashTable(2000, topology=node)  # 8 kB of shards per GPU
        big = unique_keys(16000, seed=31)  # 64 kB of staging per GPU
        with pytest.raises(AllocationError):
            t.insert(big, big)
