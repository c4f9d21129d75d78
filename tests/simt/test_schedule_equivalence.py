"""Volta-style random interleavings must be semantically equivalent to
lock-step execution.

The reference kernels tolerate any progress order the independent-thread
-scheduling model permits; these tests run the same workload under
``RoundRobinScheduler`` (lock-step) and N ``RandomScheduler`` seeds and
require identical *semantics* — exported contents, query answers, erase
masks, size — even where slot placement may differ.  A constructed
contention-free workload must additionally be bit-identical, counters
included.  Every assertion surfaces the scheduler seed so a failure is
replayable directly.
"""

import numpy as np
import pytest

from repro.core.table import WarpDriveHashTable
from repro.simt.scheduler import RandomScheduler, RoundRobinScheduler
from repro.workloads.distributions import random_values, unique_keys

SEEDS = list(range(6))

N = 96
GROUP_SIZE = 4
CAPACITY = 160


def _keys_values():
    return unique_keys(N, seed=13), random_values(N, seed=14)


def _build(scheduler):
    keys, values = _keys_values()
    table = WarpDriveHashTable(CAPACITY, group_size=GROUP_SIZE)
    table.insert(keys, values, kernels="ref", scheduler=scheduler)
    return table


def _sorted_export(table):
    keys, values = table.export()
    order = np.argsort(keys, kind="stable")
    return keys[order], values[order]


@pytest.fixture(scope="module")
def lockstep_table():
    return _build(RoundRobinScheduler())


class TestRandomVersusLockstep:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_inserted_contents_match(self, seed, lockstep_table):
        table = _build(RandomScheduler(seed=seed))
        ref_k, ref_v = _sorted_export(lockstep_table)
        got_k, got_v = _sorted_export(table)
        assert np.array_equal(got_k, ref_k), f"scheduler seed {seed}: key sets differ"
        assert np.array_equal(got_v, ref_v), f"scheduler seed {seed}: values differ"
        assert len(table) == len(lockstep_table), f"scheduler seed {seed}: size"

    @pytest.mark.parametrize("seed", SEEDS)
    def test_query_answers_match(self, seed, lockstep_table):
        keys, _ = _keys_values()
        absent = unique_keys(2 * N, seed=15)
        absent = absent[~np.isin(absent, keys)][:32]
        probe = np.concatenate([keys, absent])

        table = _build(RandomScheduler(seed=seed))
        ref_vals, ref_found = lockstep_table.query(probe, kernels="ref")
        got_vals, got_found = table.query(
            probe, kernels="ref", scheduler=RandomScheduler(seed=seed)
        )
        assert np.array_equal(got_found, ref_found), (
            f"scheduler seed {seed}: found masks differ"
        )
        assert np.array_equal(got_vals[got_found], ref_vals[ref_found]), (
            f"scheduler seed {seed}: query values differ"
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_erase_masks_match(self, seed):
        keys, _ = _keys_values()
        victims = np.concatenate([keys[::3], np.array([0xDEAD], dtype=np.uint32)])

        ref = _build(RoundRobinScheduler())
        ref_mask = ref.erase(victims, kernels="ref", scheduler=RoundRobinScheduler())

        table = _build(RandomScheduler(seed=seed))
        got_mask = table.erase(
            victims, kernels="ref", scheduler=RandomScheduler(seed=seed)
        )
        assert np.array_equal(got_mask, ref_mask), (
            f"scheduler seed {seed}: erase masks differ"
        )
        assert len(table) == len(ref), f"scheduler seed {seed}: post-erase size"

    @pytest.mark.parametrize("seed", SEEDS)
    def test_unique_key_insert_invariants(self, seed):
        """Each unique key claims exactly one slot: CAS successes == n."""
        keys, values = _keys_values()
        table = WarpDriveHashTable(CAPACITY, group_size=GROUP_SIZE)
        table.insert(keys, values, kernels="ref", scheduler=RandomScheduler(seed=seed))
        assert table.counter.cas_successes == N, (
            f"scheduler seed {seed}: {table.counter.cas_successes} CAS "
            f"successes for {N} unique inserts"
        )
        assert table.counter.cas_attempts >= table.counter.cas_successes
        assert len(table) == N


class TestContentionFreeWorkload:
    """With disjoint first-probe windows, every schedule must produce the
    same bits: each task claims a slot nobody else ever examines."""

    @staticmethod
    def _disjoint_window_keys(table, count):
        taken: set[int] = set()
        picked = []
        for candidate in range(1, 100_000):
            key = np.asarray([candidate], dtype=np.uint32)
            start = int(table.seq.window_start(key, 0, 0, table.capacity)[0])
            window = {(start + r) % table.capacity for r in range(GROUP_SIZE)}
            if window & taken:
                continue
            taken |= window
            picked.append(candidate)
            if len(picked) == count:
                return np.asarray(picked, dtype=np.uint32)
        raise AssertionError("could not build a contention-free key set")

    @pytest.mark.parametrize("seed", SEEDS)
    def test_slots_and_counters_are_bit_identical(self, seed):
        probe = WarpDriveHashTable(CAPACITY, group_size=GROUP_SIZE)
        keys = self._disjoint_window_keys(probe, 24)
        values = random_values(keys.shape[0], seed=16)

        ref = WarpDriveHashTable(CAPACITY, group_size=GROUP_SIZE)
        ref.insert(keys, values, kernels="ref", scheduler=RoundRobinScheduler())

        table = WarpDriveHashTable(CAPACITY, group_size=GROUP_SIZE)
        table.insert(keys, values, kernels="ref", scheduler=RandomScheduler(seed=seed))

        assert np.array_equal(np.asarray(table.slots), np.asarray(ref.slots)), (
            f"scheduler seed {seed}: slot arrays differ on a "
            "contention-free workload"
        )
        assert table.counter.snapshot() == ref.counter.snapshot(), (
            f"scheduler seed {seed}: counters differ on a "
            "contention-free workload"
        )
