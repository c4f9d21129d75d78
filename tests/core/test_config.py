"""Tests for HashTableConfig."""

import math

import numpy as np
import pytest

from repro.constants import DEFAULT_P_MAX
from repro.core.config import HashTableConfig
from repro.errors import ConfigurationError


class TestConstruction:
    def test_defaults(self):
        cfg = HashTableConfig(capacity=100)
        assert cfg.group_size == 4
        assert cfg.p_max == DEFAULT_P_MAX
        assert cfg.rebuild_on_failure

    def test_invalid_capacity(self):
        with pytest.raises(ConfigurationError):
            HashTableConfig(capacity=0)

    @pytest.mark.parametrize("capacity", [128.5, 128.0, "128", None])
    def test_non_integer_capacity_rejected(self, capacity):
        """A float capacity would allocate ``int(c)`` slots but keep ``c``
        in the config, skewing every load factor."""
        with pytest.raises(ConfigurationError, match="integer"):
            HashTableConfig(capacity=capacity)

    def test_numpy_integer_capacity_accepted(self):
        assert HashTableConfig(capacity=np.int64(128)).capacity == 128

    def test_invalid_group(self):
        with pytest.raises(ConfigurationError):
            HashTableConfig(capacity=10, group_size=3)

    def test_invalid_p_max(self):
        with pytest.raises(ConfigurationError):
            HashTableConfig(capacity=10, p_max=0)

    def test_negative_rebuilds(self):
        with pytest.raises(ConfigurationError):
            HashTableConfig(capacity=10, max_rebuilds=-1)


class TestForLoadFactor:
    def test_capacity_formula(self):
        cfg = HashTableConfig.for_load_factor(950, 0.95)
        assert cfg.capacity == math.ceil(950 / 0.95)

    def test_exact_load_one(self):
        cfg = HashTableConfig.for_load_factor(100, 1.0)
        assert cfg.capacity == 100

    def test_kwargs_forwarded(self):
        cfg = HashTableConfig.for_load_factor(100, 0.5, group_size=16)
        assert cfg.group_size == 16

    def test_invalid_load(self):
        with pytest.raises(ConfigurationError):
            HashTableConfig.for_load_factor(100, 0.0)
        with pytest.raises(ConfigurationError):
            HashTableConfig.for_load_factor(100, 1.5)

    def test_invalid_num_pairs(self):
        with pytest.raises(ConfigurationError):
            HashTableConfig.for_load_factor(0, 0.5)


class TestDerived:
    def test_table_bytes(self):
        assert HashTableConfig(capacity=1000).table_bytes == 8000

    def test_rebuilt_changes_family_only(self):
        cfg = HashTableConfig(capacity=64, group_size=8)
        re = cfg.rebuilt(1)
        assert re.capacity == 64 and re.group_size == 8
        import numpy as np

        xs = np.arange(100, dtype=np.uint32)
        assert not (cfg.family.primary(xs) == re.family.primary(xs)).all()
