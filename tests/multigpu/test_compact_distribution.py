"""Compact layout through the multi-GPU cascade.

Distribution must be layout-blind on answers and layout-aware on
accounting: a ``layout="compact"`` :class:`DistributedHashTable`
returns bit-identical values/found masks to an ``aos`` one, while its
:class:`CascadeReport` charges the quotiented record width — strictly
fewer modelled VRAM and exchange bytes once the per-shard capacity
crosses 2^16 slots, exactly equal below the crossover.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.constants import PAIR_BYTES
from repro.core.store import slot_record_bytes
from repro.multigpu.distributed_table import DistributedHashTable
from repro.workloads.distributions import random_values, unique_keys

GPUS = 4


def _run(layout: str, cap_per_gpu: int, n: int, seed: int = 9):
    """insert → query → erase through a p100:4 cascade; returns the
    answers and the three per-op reports."""
    keys = unique_keys(n, seed=seed)
    values = random_values(n, seed=seed + 1)
    table = DistributedHashTable(
        cap_per_gpu * GPUS, topology=f"p100:{GPUS}", layout=layout
    )
    try:
        ins = table.insert(keys, values)
        got, found, qry = table.query(keys)
        erased, ers = table.erase(keys[: n // 3])
        _, found_after, _ = table.query(keys)
        return {
            "answers": (got.tobytes(), found.tobytes(),
                        erased.tobytes(), found_after.tobytes()),
            "ins": ins,
            "qry": qry,
            "ers": ers,
        }
    finally:
        table.free()


class TestCompactCascade:
    def test_answers_bit_identical_across_layouts(self):
        runs = {
            lay: _run(lay, 1 << 12, 9000) for lay in ("aos", "soa", "compact")
        }
        assert (
            runs["compact"]["answers"]
            == runs["aos"]["answers"]
            == runs["soa"]["answers"]
        )

    def test_reports_carry_layout_and_record(self):
        run = _run("compact", 1 << 12, 4000)
        for rep in (run["ins"], run["qry"], run["ers"]):
            assert rep.layout == "compact"
            assert rep.record_bytes == slot_record_bytes("compact", 1 << 12)
            d = rep.to_dict()
            assert d["schema_version"] == 4
            assert d["layout"] == "compact"
            assert d["record_bytes"] == rep.record_bytes
            assert d["table_bytes"] == rep.table_bytes
        aos = _run("aos", 1 << 12, 4000)["ins"]
        assert aos.layout == "aos" and aos.record_bytes == PAIR_BYTES

    def test_accounting_parity_below_crossover(self):
        """At 2^12 slots/GPU the compact record rounds to 8 B: every
        modelled charge must match aos exactly (no phantom savings)."""
        a, c = _run("aos", 1 << 12, 9000), _run("compact", 1 << 12, 9000)
        for op in ("ins", "qry", "ers"):
            assert c[op].table_bytes == a[op].table_bytes
            assert c[op].alltoall_bytes == a[op].alltoall_bytes
            assert c[op].reverse_bytes == a[op].reverse_bytes

    @pytest.mark.parametrize(
        "n", [2000, pytest.param(30000, marks=pytest.mark.slow)]
    )
    def test_strictly_fewer_bytes_past_crossover(self, n):
        """At 2^17 slots/GPU (record 7 B) the compact cascade owes
        strictly fewer VRAM, all-to-all, and reverse bytes at equal n."""
        cap = 1 << 17
        assert slot_record_bytes("compact", cap) == 7
        a, c = _run("aos", cap, n), _run("compact", cap, n)
        assert c["answers"] == a["answers"]
        for op in ("ins", "qry", "ers"):
            assert c[op].table_bytes < a[op].table_bytes
        assert c["ins"].alltoall_bytes < a["ins"].alltoall_bytes
        assert c["qry"].reverse_bytes < a["qry"].reverse_bytes

    def test_growth_refreshes_table_bytes(self):
        """Commit-time growth widens the shards; the post-commit report
        must charge the grown footprint, not the staged one."""
        cap = 1 << 10
        n = int(cap * GPUS * 0.7)
        keys = unique_keys(n, seed=3)
        table = DistributedHashTable(
            cap * GPUS, topology=f"p100:{GPUS}", layout="compact"
        )
        try:
            before = sum(s.table_bytes for s in table.shards)
            rep = table.insert(keys, random_values(n, seed=4))
            after = sum(s.table_bytes for s in table.shards)
            assert rep.table_bytes == after
            if after > before:  # at 70% aggregate load someone grew
                assert rep.table_bytes > before
        finally:
            table.free()
