"""Tests for the multi-value hash table (§II extension)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.multivalue import MultiValueHashTable
from repro.errors import ConfigurationError, InsertionError
from repro.workloads.distributions import random_values, unique_keys, zipf_keys


class TestBasics:
    def test_every_pair_gets_a_slot(self):
        t = MultiValueHashTable(100, group_size=4)
        keys = np.array([5, 5, 5, 7], dtype=np.uint32)
        t.insert(keys, np.array([1, 2, 3, 4], dtype=np.uint32))
        assert len(t) == 4
        assert t.count(np.array([5, 7, 9], dtype=np.uint32)).tolist() == [3, 1, 0]

    def test_query_multi_returns_all_values(self):
        t = MultiValueHashTable(64, group_size=2)
        keys = np.full(10, 42, dtype=np.uint32)
        t.insert(keys, np.arange(10, dtype=np.uint32))
        vals = t.query_multi(42)
        assert sorted(vals.tolist()) == list(range(10))

    def test_contains(self):
        t = MultiValueHashTable(64)
        t.insert(np.array([1], dtype=np.uint32), np.array([9], dtype=np.uint32))
        assert t.contains(np.array([1, 2], dtype=np.uint32)).tolist() == [True, False]

    def test_duplicate_values_under_one_key_kept(self):
        t = MultiValueHashTable(64)
        t.insert(np.array([3, 3], dtype=np.uint32), np.array([7, 7], dtype=np.uint32))
        assert t.query_multi(3).tolist() == [7, 7]

    def test_capacity_exhaustion_raises(self):
        t = MultiValueHashTable(8, group_size=4, p_max=4)
        keys = np.full(20, 1, dtype=np.uint32)
        with pytest.raises(InsertionError):
            t.insert(keys, np.arange(20, dtype=np.uint32))

    def test_invalid_capacity(self):
        with pytest.raises(ConfigurationError):
            MultiValueHashTable(0)

    def test_float_capacity_rejected(self):
        with pytest.raises(ConfigurationError, match="integer"):
            MultiValueHashTable(128.5)

    def test_load_factor(self):
        t = MultiValueHashTable(100)
        t.insert(np.full(50, 1, dtype=np.uint32), np.arange(50, dtype=np.uint32))
        assert t.load_factor == pytest.approx(0.5)


class TestZipfWorkload:
    """The use case §V-B points at: CUDPP 'does not support key
    collisions unless a multi-value hash table is used'."""

    @pytest.fixture(scope="class")
    def table(self):
        keys = zipf_keys(6000, s=1.4, universe=300, seed=1)
        t = MultiValueHashTable.for_load_factor(6000, 0.8, group_size=4)
        t.insert(keys, np.arange(6000, dtype=np.uint32))
        return t, keys

    def test_counts_match_multiplicities(self, table):
        t, keys = table
        uniq, counts = np.unique(keys, return_counts=True)
        assert (t.count(uniq) == counts).all()

    def test_query_multi_matches_positions(self, table):
        t, keys = table
        uniq = np.unique(keys)
        for key in uniq[:5]:
            expected = set(np.flatnonzero(keys == key).tolist())
            assert set(t.query_multi(int(key)).tolist()) == expected

    def test_total_pairs_preserved(self, table):
        t, keys = table
        uniq = np.unique(keys)
        assert int(t.count(uniq).sum()) == 6000


class TestMixedGroupSizes:
    @pytest.mark.parametrize("g", [1, 2, 8, 16, 32])
    def test_roundtrip_all_groups(self, g):
        keys = zipf_keys(2000, s=1.5, universe=100, seed=2)
        t = MultiValueHashTable.for_load_factor(2000, 0.7, group_size=g)
        t.insert(keys, np.arange(2000, dtype=np.uint32))
        uniq, counts = np.unique(keys, return_counts=True)
        assert (t.count(uniq) == counts).all()


class TestProperties:
    @given(
        n=st.integers(min_value=1, max_value=300),
        universe=st.integers(min_value=1, max_value=50),
        seed=st.integers(min_value=0, max_value=500),
    )
    @settings(max_examples=20, deadline=None)
    def test_count_conservation_property(self, n, universe, seed):
        """Sum of per-key counts always equals the number of insertions."""
        rng = np.random.default_rng(seed)
        keys = rng.integers(1, universe + 1, size=n).astype(np.uint32)
        t = MultiValueHashTable(4 * n + 16, group_size=4)
        t.insert(keys, np.arange(n, dtype=np.uint32))
        uniq = np.unique(keys)
        assert int(t.count(uniq).sum()) == n
