"""Tests for the WarpDriveHashTable public API."""

import numpy as np
import pytest

from repro.core.config import HashTableConfig
from repro.core.table import WarpDriveHashTable
from repro.errors import ConfigurationError, InsertionError
from repro.perfmodel.specs import P100
from repro.simt.device import Device
from repro.workloads.distributions import random_values, unique_keys


class TestConstruction:
    def test_capacity_or_config_required(self):
        with pytest.raises(ConfigurationError):
            WarpDriveHashTable()

    def test_conflicting_capacity_rejected(self):
        cfg = HashTableConfig(capacity=100)
        with pytest.raises(ConfigurationError):
            WarpDriveHashTable(capacity=50, config=cfg)

    def test_for_load_factor(self):
        t = WarpDriveHashTable.for_load_factor(950, 0.95)
        assert t.capacity == 1000
        assert len(t) == 0
        assert t.load_factor == 0.0

    def test_table_bytes(self):
        assert WarpDriveHashTable(1000).table_bytes == 8000

    def test_float_capacity_rejected(self):
        """128.5 would allocate 128 slots yet report load against 128.5."""
        with pytest.raises(ConfigurationError, match="integer"):
            WarpDriveHashTable(128.5)


class TestBasicOperations:
    def test_insert_query_roundtrip(self, small_keys, small_values):
        t = WarpDriveHashTable.for_load_factor(len(small_keys), 0.9)
        report = t.insert(small_keys, small_values)
        assert report.num_ops == len(small_keys)
        assert len(t) == len(small_keys)
        got, found = t.query(small_keys)
        assert found.all() and (got == small_values).all()

    def test_occupancy_matches_size(self, small_keys, small_values):
        t = WarpDriveHashTable.for_load_factor(len(small_keys), 0.8)
        t.insert(small_keys, small_values)
        assert t.occupancy() == pytest.approx(t.load_factor)

    def test_contains(self, small_keys, small_values):
        t = WarpDriveHashTable.for_load_factor(len(small_keys), 0.5)
        t.insert(small_keys, small_values)
        assert t.contains(small_keys[:10]).all()
        assert not t.contains(np.array([0xFFFFFF00], dtype=np.uint32)).any()

    def test_get_scalar(self):
        t = WarpDriveHashTable(64)
        t.insert(np.array([5], dtype=np.uint32), np.array([6], dtype=np.uint32))
        assert t.get(5) == 6
        assert t.get(9) is None
        assert t.get(9, default=-0 + 3) == 3

    def test_update_semantics(self):
        t = WarpDriveHashTable(64)
        keys = np.array([1, 2], dtype=np.uint32)
        t.insert(keys, np.array([10, 20], dtype=np.uint32))
        t.insert(keys, np.array([11, 21], dtype=np.uint32))
        assert len(t) == 2  # updates do not grow the table
        got, _ = t.query(keys)
        assert got.tolist() == [11, 21]

    def test_erase_updates_size(self, small_keys, small_values):
        t = WarpDriveHashTable.for_load_factor(len(small_keys), 0.7)
        t.insert(small_keys, small_values)
        erased = t.erase(small_keys[:100])
        assert erased.all()
        assert len(t) == len(small_keys) - 100

    def test_erase_duplicate_keys_counted_once(self):
        t = WarpDriveHashTable(64)
        t.insert(np.array([3], dtype=np.uint32), np.array([1], dtype=np.uint32))
        erased = t.erase(np.array([3, 3], dtype=np.uint32))
        assert erased.all()
        assert len(t) == 0

    def test_export_roundtrip(self, small_keys, small_values):
        t = WarpDriveHashTable.for_load_factor(len(small_keys), 0.9)
        t.insert(small_keys, small_values)
        k, v = t.export()
        order = np.argsort(k)
        src = np.argsort(small_keys)
        assert (k[order] == small_keys[src]).all()
        assert (v[order] == small_values[src]).all()

    def test_clear(self, small_keys, small_values):
        t = WarpDriveHashTable.for_load_factor(len(small_keys), 0.9)
        t.insert(small_keys, small_values)
        t.clear()
        assert len(t) == 0
        assert not t.contains(small_keys[:5]).any()

    def test_query_default_value(self):
        t = WarpDriveHashTable(32)
        got, found = t.query(np.array([1], dtype=np.uint32), default=123)
        assert not found[0] and got[0] == 123

    def test_unknown_executor_rejected(self):
        t = WarpDriveHashTable(32)
        with pytest.raises(ConfigurationError):
            t.insert(np.array([1], dtype=np.uint32), np.array([1], dtype=np.uint32),
                     kernels="magic")


class TestRebuild:
    def test_transparent_rebuild_on_failure(self):
        """A tight probing budget at high load triggers §II's
        invalidate+rebuild with a translated hash function, and the table
        ends up complete anyway.  Everything is seeded, so the rebuild
        count is deterministic."""
        cfg = HashTableConfig(capacity=256, group_size=4, p_max=3, max_rebuilds=8)
        t = WarpDriveHashTable(config=cfg)
        keys = unique_keys(236, seed=20)
        values = random_values(236, seed=21)
        t.insert(keys, values)
        got, found = t.query(keys)
        assert found.all() and (got == values).all()
        assert len(t) == 236

    def test_rebuild_disabled_raises(self):
        cfg = HashTableConfig(capacity=64, group_size=4, p_max=1,
                              rebuild_on_failure=False)
        t = WarpDriveHashTable(config=cfg)
        keys = unique_keys(63, seed=22)
        with pytest.raises(InsertionError):
            t.insert(keys, np.zeros(63, dtype=np.uint32))

    def test_rebuild_budget_exhaustion(self):
        # a table with capacity < n can never hold all keys: every rebuild
        # fails, and the budget must eventually stop the recursion
        cfg = HashTableConfig(capacity=16, p_max=4, max_rebuilds=2)
        t = WarpDriveHashTable(config=cfg)
        keys = unique_keys(32, seed=23)
        with pytest.raises(InsertionError):
            t.insert(keys, np.zeros(32, dtype=np.uint32))
        assert t.rebuilds <= 2 + 1

    def test_rebuild_preserves_previous_contents(self):
        t = WarpDriveHashTable(128, group_size=2, p_max=2)
        first = unique_keys(60, seed=24)
        t.insert(first, first)
        second = unique_keys(130, seed=25)[:60]
        second = second[~np.isin(second, first)][:50]
        t.insert(second, second)
        got, found = t.query(np.concatenate([first, second]))
        assert found.all()


class TestDeviceIntegration:
    def test_table_lives_in_vram(self):
        dev = Device(0, P100)
        t = WarpDriveHashTable(1024, device=dev)
        assert dev.allocated_bytes == 1024 * 8
        t.free()
        assert dev.allocated_bytes == 0

    def test_work_charged_to_device_counter(self, small_keys, small_values):
        dev = Device(0, P100)
        t = WarpDriveHashTable.for_load_factor(len(small_keys), 0.8, device=dev)
        t.insert(small_keys, small_values)
        assert dev.counter.load_sectors > 0
        assert dev.counter.cas_successes >= len(small_keys)


class TestReports:
    def test_last_report_tracks_latest_op(self, small_keys, small_values):
        t = WarpDriveHashTable.for_load_factor(len(small_keys), 0.8)
        t.insert(small_keys, small_values)
        assert t.last_report.op == "insert"
        t.query(small_keys)
        assert t.last_report.op == "query"

    def test_probe_windows_grow_with_load(self):
        means = []
        for load in (0.5, 0.95):
            t = WarpDriveHashTable.for_load_factor(4096, load, group_size=4)
            keys = unique_keys(4096, seed=26)
            rep = t.insert(keys, keys)
            means.append(rep.mean_windows)
        assert means[1] > means[0]
