"""Model-based testing of the distributed table against a dict oracle.

Same contract as the single-GPU stateful machine, but every operation
crosses the full multisplit → transposition → kernel cascade, so this
exercises partitioning, routing, and result re-ordering under random
op interleavings.
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.multigpu.distributed_table import DistributedHashTable
from repro.multigpu.topology import p100_nvlink_node

KEYS = st.integers(min_value=1, max_value=150)
VALUES = st.integers(min_value=0, max_value=10_000)


class DistributedMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        node = p100_nvlink_node(3)
        # capacity far above the universe so shard imbalance cannot fail
        self.table = DistributedHashTable(1536, topology=node, group_size=4)
        self.model: dict[int, int] = {}

    @rule(keys=st.lists(KEYS, min_size=1, max_size=10), value=VALUES)
    def bulk_insert(self, keys, value):
        arr = np.array(keys, dtype=np.uint32)
        vals = (np.arange(len(keys)) + value).astype(np.uint32)
        self.table.insert(arr, vals)
        for k, v in zip(keys, vals):
            self.model[k] = int(v)

    @rule(keys=st.lists(KEYS, min_size=1, max_size=6))
    def erase(self, keys):
        arr = np.array(keys, dtype=np.uint32)
        erased, _ = self.table.erase(arr)
        # per-request flag must match membership at the batch's start;
        # duplicates in one batch all report success (they share the
        # stored pair and erase is a single barrier-delimited phase)
        for i, k in enumerate(keys):
            assert bool(erased[i]) == (k in self.model)
        for k in keys:
            self.model.pop(k, None)

    @rule(keys=st.lists(KEYS, min_size=1, max_size=10))
    def query(self, keys):
        arr = np.array(keys, dtype=np.uint32)
        got, found, _ = self.table.query(arr, default=0)
        for i, k in enumerate(keys):
            if k in self.model:
                assert found[i] and int(got[i]) == self.model[k]
            else:
                assert not found[i]

    @invariant()
    def size_matches(self):
        assert len(self.table) == len(self.model)

    @invariant()
    def export_matches(self):
        k, v = self.table.export()
        assert dict(zip(k.tolist(), v.tolist())) == self.model
        assert np.unique(k).size == k.size


TestDistributedAgainstDict = DistributedMachine.TestCase
TestDistributedAgainstDict.settings = settings(
    max_examples=15, stateful_step_count=15, deadline=None
)
