"""Tests for the asynchronous streaming driver."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.multigpu import DistributedHashTable, p100_nvlink_node
from repro.pipeline.driver import AsyncCascadeDriver
from repro.workloads import BatchStream


@pytest.fixture(scope="module")
def setup():
    node = p100_nvlink_node(4)
    stream = BatchStream(total=8000, batch_size=1000, seed=5)
    pool = np.concatenate([b.keys for b in stream])
    table = DistributedHashTable.for_workload(node, pool, 0.9)
    return node, stream, table


class TestInsertStream:
    def test_all_batches_land(self, setup):
        node, stream, table = setup
        driver = AsyncCascadeDriver(table, num_threads=4)
        res = driver.insert_stream((b.keys, b.values) for b in stream)
        assert len(table) == 8000
        assert res.num_ops == 8000
        assert res.makespan > 0
        res.timeline.verify_no_overlap()

    def test_overlap_reduces_wall_time(self, setup):
        node, stream, table = setup
        driver = AsyncCascadeDriver(table, num_threads=4)
        res = driver.query_stream([b.keys for b in stream])
        assert 0.0 < res.reduction < 0.8
        assert res.makespan <= res.sequential.makespan

    def test_query_results_ordered(self, setup):
        node, stream, table = setup
        driver = AsyncCascadeDriver(table, num_threads=2)
        res = driver.query_stream([b.keys for b in stream])
        expected = np.concatenate([b.values for b in stream])
        assert res.found.all()
        assert (res.values == expected).all()

    def test_scale_projects_ops(self, setup):
        node, stream, table = setup
        driver = AsyncCascadeDriver(table, num_threads=1, scale=100.0)
        res = driver.query_stream([stream.batch(0).keys])
        assert res.num_ops == 100 * stream.batch(0).size

    def test_single_thread_is_sequential(self, setup):
        node, stream, table = setup
        driver = AsyncCascadeDriver(table, num_threads=1)
        res = driver.query_stream([b.keys for b in stream])
        assert res.reduction == pytest.approx(0.0)

    def test_empty_stream(self, setup):
        node, stream, table = setup
        driver = AsyncCascadeDriver(table)
        res = driver.insert_stream([])
        assert res.num_ops == 0 and res.makespan == 0.0

    def test_invalid_params(self, setup):
        _, _, table = setup
        with pytest.raises(ConfigurationError):
            AsyncCascadeDriver(table, num_threads=0)
        with pytest.raises(ConfigurationError):
            AsyncCascadeDriver(table, scale=0)


class TestWallClock:
    def test_disabled_by_default(self, setup):
        node, stream, table = setup
        driver = AsyncCascadeDriver(table, num_threads=2)
        res = driver.query_stream([stream.batch(0).keys])
        assert res.measured is None
        # no measurement was taken: the makespan is None, not a fake 0.0
        assert res.measured_makespan is None

    def test_measured_timeline_attached(self):
        node = p100_nvlink_node(4)
        stream = BatchStream(total=4000, batch_size=1000, seed=6)
        pool = np.concatenate([b.keys for b in stream])
        table = DistributedHashTable.for_workload(node, pool, 0.9)
        driver = AsyncCascadeDriver(table, num_threads=2, measure=True)

        res = driver.insert_stream((b.keys, b.values) for b in stream)
        assert res.measured is not None
        assert res.measured_makespan > 0.0
        # one node-level span per batch plus one distribution span per
        # batch, plus the per-shard kernel spans
        node_spans = res.measured.shard_spans(-1)
        batch_spans = [s for s in node_spans if s.op == "insert batch"]
        dist_spans = [s for s in node_spans if s.op == "insert distribution"]
        assert len(batch_spans) == 4
        assert len(dist_spans) == 4
        assert all(s.duration > 0 for s in dist_spans)
        kernel_spans = [s for s in res.measured.spans if s.shard >= 0]
        assert kernel_spans and all(s.duration > 0 for s in kernel_spans)
        # batches stream one after another on a monotonic clock
        starts = [s.start for s in batch_spans]
        assert starts == sorted(starts)
        # modelled and measured makespans coexist on the same result
        assert res.makespan > 0.0

        qres = driver.query_stream([b.keys for b in stream])
        assert qres.found.all()
        assert qres.measured_makespan > 0.0
        assert qres.measured.busy_seconds > 0.0
        table.free()
