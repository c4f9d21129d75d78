"""The unified option vocabulary: one spelling per option."""

import numpy as np
import pytest

from repro.bench.distribution import run_distribution_suite
from repro.core.counting import CountingHashTable
from repro.core.multivalue import MultiValueHashTable
from repro.core.partitioned import PartitionedWarpDriveTable
from repro.core.table import WarpDriveHashTable
from repro.errors import ConfigurationError
from repro.multigpu.distributed_table import DistributedHashTable
from repro.multigpu.topology import p100_nvlink_node
from repro.pipeline.driver import AsyncCascadeDriver
from repro.serve import KVServer

KEYS = np.arange(4, dtype=np.uint32)

#: every spelling that once resolved through a deprecation shim
REMOVED_SPELLINGS = [
    pytest.param(
        lambda: WarpDriveHashTable(64).insert(KEYS, KEYS, executor="fast"),
        id="WarpDriveHashTable.insert-executor",
    ),
    pytest.param(
        lambda: WarpDriveHashTable(64).query(KEYS, executor="fast"),
        id="WarpDriveHashTable.query-executor",
    ),
    pytest.param(
        lambda: WarpDriveHashTable(64).erase(KEYS, executor="fast"),
        id="WarpDriveHashTable.erase-executor",
    ),
    pytest.param(
        lambda: CountingHashTable(64).add(KEYS, executor="fast"),
        id="CountingHashTable.add-executor",
    ),
    pytest.param(
        lambda: CountingHashTable(64).count(KEYS, executor="fast"),
        id="CountingHashTable.count-executor",
    ),
    pytest.param(
        lambda: MultiValueHashTable(64).insert(KEYS, KEYS, executor="fast"),
        id="MultiValueHashTable.insert-executor",
    ),
    pytest.param(
        lambda: MultiValueHashTable(64).count(KEYS, executor="fast"),
        id="MultiValueHashTable.count-executor",
    ),
    pytest.param(
        lambda: DistributedHashTable(128, executor="serial"),
        id="DistributedHashTable-executor",
    ),
    pytest.param(
        lambda: PartitionedWarpDriveTable(256, executor="serial"),
        id="PartitionedWarpDriveTable-executor",
    ),
    pytest.param(
        lambda: CountingHashTable(64, executor="serial"),
        id="CountingHashTable-executor",
    ),
    pytest.param(
        lambda: MultiValueHashTable(64, executor="serial"),
        id="MultiValueHashTable-executor",
    ),
    pytest.param(
        lambda: AsyncCascadeDriver(total_capacity=128, wall_clock=True),
        id="AsyncCascadeDriver-wall_clock",
    ),
    pytest.param(
        lambda: DistributedHashTable(p100_nvlink_node(2), 128),
        id="DistributedHashTable-positional-topology",
    ),
    pytest.param(
        lambda: DistributedHashTable(topology="p100:2"),
        id="DistributedHashTable-no-capacity",
    ),
    pytest.param(
        lambda: run_distribution_suite(n=64, m=4, repeats=1),
        id="run_distribution_suite-m",
    ),
    pytest.param(
        lambda: KVServer.create(num_gpus=2),
        id="KVServer.create-num_gpus",
    ),
]


class TestShims:
    @pytest.mark.parametrize("call", REMOVED_SPELLINGS)
    def test_removed_spelling_rejected(self, call):
        """Each option has one spelling: the old aliases fail loudly."""
        with pytest.raises((TypeError, ConfigurationError)):
            call()

    def test_table_engine_option_means_shared_storage(self):
        t = WarpDriveHashTable(64, engine="process")
        try:
            assert t.shm_descriptor() is not None
        finally:
            t.free()
        t = WarpDriveHashTable(64, engine="serial")
        assert t.shm_descriptor() is None


class TestTopLevelExports:
    def test_unified_entry_points(self):
        import repro

        for name in (
            "WarpDriveHashTable",
            "DistributedHashTable",
            "AsyncCascadeDriver",
            "StreamResult",
            "CascadeReport",
            "obs",
        ):
            assert hasattr(repro, name), name
            assert name in repro.__all__
