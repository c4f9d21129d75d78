"""Coordinated shard growth across the multi-GPU cascade and the driver.

Shard growth is decided between the transposition and kernel phases of
an insert cascade — when the incoming per-GPU counts are known exactly
but before shard tasks snapshot slot views.  When any shard's policy
trips, *all* shards grow to a uniform target so the partition hash keeps
addressing evenly-sized shards, each rehash is a device-local D2D pass
logged as a ``"grow rehash"`` transfer, and the whole episode lands in
``CascadeReport.grow_reports`` / obs metrics / measured driver spans.
"""

import numpy as np
import pytest

from repro.core.growth import GrowthPolicy
from repro.errors import ConfigurationError
from repro.multigpu import DistributedHashTable, p100_nvlink_node
from repro.memory.transfer import MemcpyKind
from repro.obs import runtime as obs
from repro.obs.export import to_perfetto, validate_trace
from repro.pipeline.driver import AsyncCascadeDriver
from repro.workloads.distributions import random_values, unique_keys


def _node():
    return p100_nvlink_node(4)


def _chunks(n, parts, seed):
    keys = unique_keys(n, seed=seed)
    values = random_values(n, seed=seed + 1)
    return (
        keys,
        values,
        list(zip(np.array_split(keys, parts), np.array_split(values, parts))),
    )


class TestCoordinatedGrowth:
    def test_four_x_ingest_without_insertion_error(self):
        table = DistributedHashTable(
            512, topology=_node(), growth=GrowthPolicy(max_load=0.9)
        )
        keys, values, chunks = _chunks(2048, 8, seed=31)
        for ck, cv in chunks:
            table.insert(ck, cv)
        assert len(table) == 2048
        got, found, _ = table.query(keys)
        assert found.all() and (got == values).all()

    def test_shard_capacities_stay_uniform(self):
        table = DistributedHashTable(
            512, topology=_node(), growth=GrowthPolicy(max_load=0.9)
        )
        _, _, chunks = _chunks(2048, 8, seed=32)
        for ck, cv in chunks:
            table.insert(ck, cv)
        caps = {s.capacity for s in table.shards}
        assert len(caps) == 1, f"shards diverged: {caps}"
        assert caps.pop() > 128
        assert sum(s.grows for s in table.shards) >= table.num_gpus

    def test_grow_reports_and_transfer_records(self):
        table = DistributedHashTable(
            512, topology=_node(), growth=GrowthPolicy(max_load=0.9)
        )
        _, _, chunks = _chunks(2048, 8, seed=33)
        grow_reports = []
        for ck, cv in chunks:
            report = table.insert(ck, cv)
            grow_reports.extend(report.grow_reports)
            if report.grow_reports:
                assert report.grow_wall_seconds > 0
                assert "grow_reports" in report.to_dict()
        assert grow_reports and all(r.op == "rehash" for r in grow_reports)
        rehash_xfers = [
            r for r in table.transfer_log.records if r.tag == "grow rehash"
        ]
        assert rehash_xfers
        assert all(
            r.kind is MemcpyKind.D2D and r.src_device == r.dst_device
            for r in rehash_xfers
        )

    def test_explicit_grow(self):
        table = DistributedHashTable(512, topology=_node())
        keys = unique_keys(300, seed=34)
        table.insert(keys, keys)
        table.grow(2048)
        assert table.total_capacity >= 2048
        assert len({s.capacity for s in table.shards}) == 1
        got, found, _ = table.query(keys)
        assert found.all() and (got == keys).all()

    def test_explicit_shrink_rejected(self):
        table = DistributedHashTable(512, topology=_node())
        with pytest.raises(ConfigurationError):
            table.grow(256)


class TestGrowthObservability:
    @pytest.fixture
    def traced(self):
        with obs.session() as (recorder, _metrics):
            yield recorder

    def _ingest(self, table, seed=35):
        _, _, chunks = _chunks(2048, 8, seed=seed)
        for ck, cv in chunks:
            table.insert(ck, cv)

    def test_metrics_count_grows(self, traced):
        table = DistributedHashTable(
            512, topology=_node(), growth=GrowthPolicy(max_load=0.9)
        )
        self._ingest(table)
        counters = obs.get_metrics().counters
        assert counters.get("cascade.insert.grows", 0) >= table.num_gpus
        assert counters.get("cascade.insert.grow_wall_seconds", 0) > 0
        assert counters.get("kernel.rehash.ops", 0) >= table.num_gpus

    def test_trace_has_shard_growth_span_and_validates(self, traced):
        table = DistributedHashTable(
            512, topology=_node(), growth=GrowthPolicy(max_load=0.9)
        )
        self._ingest(table)
        growth_spans = [
            s for s in traced.spans if s.name == "shard growth"
        ]
        assert growth_spans
        assert growth_spans[0].category == "lifecycle"
        assert growth_spans[0].attrs["num_gpus"] == 4
        grow_spans = [s for s in traced.spans if s.name == "grow"]
        assert len(grow_spans) >= 4  # every shard grew under the episode
        data = to_perfetto(traced)
        assert validate_trace(data) == []
        names = {ev.get("name") for ev in data["traceEvents"]}
        assert "shard growth" in names and "grow" in names


class TestDriverGrowth:
    def test_mid_stream_growth_is_transparent(self):
        table = DistributedHashTable(
            512, topology=_node(), growth=GrowthPolicy(max_load=0.9)
        )
        driver = AsyncCascadeDriver(table, num_threads=2, measure=True)
        keys, values, chunks = _chunks(2048, 8, seed=36)
        res = driver.insert_stream(chunks)
        assert res.num_ops == 2048
        assert len(table) == 2048
        got, found, _ = table.query(keys)
        assert found.all() and (got == values).all()

    def test_measured_timeline_includes_grow_span(self):
        table = DistributedHashTable(
            512, topology=_node(), growth=GrowthPolicy(max_load=0.9)
        )
        driver = AsyncCascadeDriver(table, num_threads=2, measure=True)
        _, _, chunks = _chunks(2048, 8, seed=37)
        res = driver.insert_stream(chunks)
        grow_spans = [
            s for s in res.measured.spans if s.op == "insert grow"
        ]
        assert grow_spans, "no measured span for mid-stream shard growth"
        assert all(s.end > s.start for s in grow_spans)
        assert all(s.shard == -1 for s in grow_spans)
