"""Executor equivalence: the vectorized bulk path must agree with the
faithful Fig. 3 reference kernels on final table *contents*."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.table import WarpDriveHashTable
from repro.simt.scheduler import RandomScheduler, SequentialScheduler
from repro.workloads.distributions import random_values, unique_keys


def sorted_pairs(table):
    k, v = table.export()
    order = np.argsort(k)
    return k[order], v[order]


@pytest.mark.parametrize("g", [1, 4, 32])
def test_fast_matches_ref_contents(g):
    keys = unique_keys(120, seed=31)
    values = random_values(120, seed=32)
    fast = WarpDriveHashTable(160, group_size=g)
    fast.insert(keys, values, kernels="fast")
    ref = WarpDriveHashTable(160, group_size=g)
    ref.insert(keys, values, kernels="ref")
    fk, fv = sorted_pairs(fast)
    rk, rv = sorted_pairs(ref)
    assert (fk == rk).all() and (fv == rv).all()


@pytest.mark.parametrize("g", [2, 8])
def test_fast_matches_ref_under_interleaving(g):
    """Unique keys: the stored pair *set* is schedule independent, so the
    fast path must match the reference even under adversarial schedules."""
    keys = unique_keys(80, seed=33)
    values = random_values(80, seed=34)
    fast = WarpDriveHashTable(128, group_size=g)
    fast.insert(keys, values)
    ref = WarpDriveHashTable(128, group_size=g)
    ref.insert(keys, values, kernels="ref", scheduler=RandomScheduler(seed=5))
    fk, fv = sorted_pairs(fast)
    rk, rv = sorted_pairs(ref)
    assert (fk == rk).all() and (fv == rv).all()


def test_query_results_match():
    keys = unique_keys(100, seed=35)
    values = random_values(100, seed=36)
    t = WarpDriveHashTable(150, group_size=4)
    t.insert(keys, values)
    probe = np.concatenate([keys[:50], np.array([0xFFFF0000], dtype=np.uint32)])
    vf, ff = t.query(probe, kernels="fast")
    vr, fr = t.query(probe, kernels="ref")
    assert (vf == vr).all() and (ff == fr).all()


def test_erase_results_match():
    keys = unique_keys(60, seed=37)
    t1 = WarpDriveHashTable(100, group_size=4)
    t1.insert(keys, keys)
    t2 = WarpDriveHashTable(100, group_size=4)
    t2.insert(keys, keys)
    e1 = t1.erase(keys[:20], kernels="fast")
    e2 = t2.erase(keys[:20], kernels="ref")
    assert (e1 == e2).all()
    k1, v1 = sorted_pairs(t1)
    k2, v2 = sorted_pairs(t2)
    assert (k1 == k2).all() and (v1 == v2).all()


def test_duplicate_sequential_semantics_match():
    """With duplicates, sequential ref order = submission order, and the
    fast path's last-writer-wins must agree."""
    keys = np.array([9, 9, 4, 9, 4], dtype=np.uint32)
    values = np.array([1, 2, 3, 4, 5], dtype=np.uint32)
    fast = WarpDriveHashTable(32, group_size=4)
    fast.insert(keys, values)
    ref = WarpDriveHashTable(32, group_size=4)
    ref.insert(keys, values, kernels="ref", scheduler=SequentialScheduler())
    fk, fv = sorted_pairs(fast)
    rk, rv = sorted_pairs(ref)
    assert (fk == rk).all() and (fv == rv).all()
    assert fv[fk == 9][0] == 4 and fv[fk == 4][0] == 5


@given(
    n=st.integers(min_value=1, max_value=60),
    seed=st.integers(min_value=0, max_value=10_000),
    g=st.sampled_from([1, 2, 4, 8, 16, 32]),
)
@settings(max_examples=20, deadline=None)
def test_equivalence_property(n, seed, g):
    keys = unique_keys(n, seed=seed)
    values = random_values(n, seed=seed + 1)
    fast = WarpDriveHashTable(2 * n + 4, group_size=g)
    fast.insert(keys, values)
    ref = WarpDriveHashTable(2 * n + 4, group_size=g)
    ref.insert(keys, values, kernels="ref")
    fk, fv = sorted_pairs(fast)
    rk, rv = sorted_pairs(ref)
    assert (fk == rk).all() and (fv == rv).all()


def test_transaction_counts_are_comparable():
    """With bounded in-flight waves (as on real hardware) the fast path's
    probe accounting matches the contention-free reference within a small
    factor; the same probe walk underlies both."""
    keys = unique_keys(200, seed=38)
    values = random_values(200, seed=39)
    fast = WarpDriveHashTable(256, group_size=4)
    frep = fast.insert(keys, values, wave_size=8)
    ref = WarpDriveHashTable(256, group_size=4)
    rrep = ref.insert(keys, values, kernels="ref")
    assert frep.mean_windows == pytest.approx(rrep.mean_windows, rel=0.25)
