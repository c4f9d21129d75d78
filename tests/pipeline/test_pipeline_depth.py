"""Depth-equivalence properties of the streaming pipeline (tentpole).

Every ``depth`` must be *bit-identical* to ``depth=1``: same stored
pairs, same query values/found masks in stream order, same per-device
transaction counters, same transfer-log records — commits are
sequence-numbered and all table mutation happens on the committer, so
running the stager arbitrarily far ahead may change wall time only.
The properties cover mid-stream coordinated growth, tombstone churn,
and modelled pacing (which must never change results, only seconds).
"""

from __future__ import annotations

import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from profiles import examples

from repro.core.growth import GrowthPolicy
from repro.multigpu import DistributedHashTable, p100_nvlink_node
from repro.pipeline import AsyncCascadeDriver

DEPTHS = (1, 2, 4)


def stream_data(n: int, num_batches: int, seed: int):
    rng = np.random.default_rng(seed)
    keys = rng.permutation(np.arange(1, n + 1, dtype=np.uint64))
    values = rng.integers(0, 1 << 31, size=n).astype(np.uint32)
    return (
        list(zip(np.array_split(keys, num_batches), np.array_split(values, num_batches))),
        keys,
        values,
    )


def table_state(table: DistributedHashTable):
    """Everything a depth could possibly perturb, in comparable form."""
    ks, vs = table.export()
    order = np.argsort(ks, kind="stable")
    return {
        "size": len(table),
        "pairs": (ks[order].tobytes(), vs[order].tobytes()),
        "counters": [d.counter.snapshot() for d in table.topology.devices],
        "log": [
            (r.kind, r.src_device, r.dst_device, r.nbytes, r.tag)
            for r in table.transfer_log.records
        ],
        "capacities": [s.config.capacity for s in table.shards],
    }


def run_stream(depth: int, batches, *, growth=None, churn=False, pace="none"):
    node = p100_nvlink_node(4)
    n = sum(k.shape[0] for k, _ in batches)
    if growth is not None:
        table = DistributedHashTable(n // 3, topology=node, growth=growth)
    else:
        table = DistributedHashTable(int(n / 0.8), topology=node)
    driver = AsyncCascadeDriver(table, depth=depth, pace=pace, scale=20.0)
    ins = driver.insert_stream(iter(batches))
    if churn:
        # tombstone churn between the streams: erase every other batch,
        # then re-insert shifted values — queries cross tombstones
        for i, (k, v) in enumerate(batches):
            if i % 2 == 0:
                erased, _ = table.erase(k, source="device")
                assert erased.all()
        for i, (k, v) in enumerate(batches):
            if i % 2 == 0:
                table.insert(k, v + 1)
    qry = driver.query_stream([k for k, _ in batches])
    return table, ins, qry


def assert_equivalent(results):
    base_table, base_ins, base_qry = results[DEPTHS[0]]
    base_state = table_state(base_table)
    for depth in DEPTHS[1:]:
        table, ins, qry = results[depth]
        assert table_state(table) == base_state, f"depth={depth} table state"
        assert ins.num_ops == base_ins.num_ops
        assert qry.values.tobytes() == base_qry.values.tobytes()
        assert qry.found.tobytes() == base_qry.found.tobytes()
        assert qry.depth == depth


class TestDepthEquivalence:
    @given(
        num_batches=st.integers(min_value=1, max_value=9),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @examples(10)
    def test_insert_query_bit_identical(self, num_batches, seed):
        batches, _, _ = stream_data(4096, num_batches, seed)
        results = {d: run_stream(d, batches) for d in DEPTHS}
        assert_equivalent(results)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @examples(8)
    def test_mid_stream_growth_bit_identical(self, seed):
        """The stream outgrows the table mid-flight: the coordinated
        grow drains in-flight waves, replays live pairs, and every
        depth lands on identical capacities and contents."""
        batches, _, _ = stream_data(6144, 6, seed)
        growth = GrowthPolicy(max_load=0.85)
        results = {d: run_stream(d, batches, growth=growth) for d in DEPTHS}
        base_caps = table_state(results[1][0])["capacities"]
        assert sum(base_caps) > 6144 // 3  # growth did fire mid-stream
        assert_equivalent(results)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @examples(6)
    def test_tombstone_churn_bit_identical(self, seed):
        batches, _, _ = stream_data(4096, 5, seed)
        results = {d: run_stream(d, batches, churn=True) for d in DEPTHS}
        assert_equivalent(results)
        # churned values really did shift where re-inserted
        _, _, qry = results[1]
        expected = np.concatenate(
            [v + 1 if i % 2 == 0 else v for i, (_, v) in enumerate(batches)]
        )
        assert (qry.values == expected).all()

    def test_modelled_pacing_changes_seconds_not_results(self):
        batches, _, _ = stream_data(4096, 6, 7)
        plain = {d: run_stream(d, batches, pace="none") for d in DEPTHS}
        paced = {d: run_stream(d, batches, pace="modelled") for d in DEPTHS}
        assert_equivalent(plain)
        assert_equivalent(paced)
        assert table_state(plain[1][0]) == table_state(paced[1][0])
        for d in DEPTHS:
            assert (
                paced[d][2].values.tobytes() == plain[d][2].values.tobytes()
            )

    def test_depth_reported_in_to_dict(self):
        batches, _, _ = stream_data(1024, 2, 3)
        _, ins, _ = run_stream(2, batches)
        d = ins.to_dict()
        assert d["depth"] == 2
        assert d["pace"] == "none"
        assert "stall_seconds" in d and "peak_staged_bytes" in d


class TestMeasuredOverlap:
    @pytest.mark.skipif(
        sys.gettrace() is not None,
        reason="measured-makespan comparison is meaningless under a "
        "tracer (coverage/debug): host staging slows ~20x while the "
        "modelled pacing sleeps do not",
    )
    def test_paced_depth2_beats_depth1_measured(self):
        """The acceptance gate in miniature: same modelled device, same
        cascades — depth=2's *measured* makespan drops because staging
        (~7 ms/wave at this size) genuinely overlaps the ~12 ms modelled
        kernel occupancy.  One retry absorbs scheduler-noise flakes; the
        structural win (~10%) must still show."""
        batches, _, _ = stream_data(1 << 20, 8, 11)

        def measured(depth):
            node = p100_nvlink_node(4)
            table = DistributedHashTable(1 << 21, topology=node)
            driver = AsyncCascadeDriver(
                table, depth=depth, pace="modelled", measure=True,
                scale=500.0,
            )
            return driver.insert_stream(iter(batches)).measured_makespan

        attempts = []
        for _ in range(2):
            m1, m2 = measured(1), measured(2)
            assert m1 is not None and m2 is not None
            attempts.append((m1, m2))
            if m2 < m1:
                return
        raise AssertionError(f"no overlap win across attempts: {attempts}")
