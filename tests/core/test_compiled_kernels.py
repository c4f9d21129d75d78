"""Bit-identity of the compiled bulk kernels against the fast ones.

``kernels="compiled"`` runs the C loops of the ``cc`` provider; the
contract is the same as the other backends': final slot
contents, statuses, probe-window arrays, every
:class:`~repro.core.report.KernelReport` field, and the merged
transaction-counter snapshots must be **bit-identical** to the
vectorized ``"fast"`` kernels — across group sizes, layouts, probing
policies, tombstone-heavy churn, and growth episodes.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from profiles import examples

from repro.core.config import HashTableConfig
from repro.core.growth import GrowthPolicy
from repro.core.kernels_jit import (
    available_providers,
    compiled_available,
    slot_planes,
    warm,
)
from repro.core.table import WarpDriveHashTable
from repro.multigpu import DistributedHashTable, p100_nvlink_node
from repro.obs import runtime as obs
from repro.workloads import random_values, unique_keys

needs_provider = pytest.mark.skipif(
    not compiled_available(), reason="no JIT provider on this host"
)

REPORT_FIELDS = (
    "op",
    "num_ops",
    "load_sectors",
    "store_sectors",
    "cas_attempts",
    "cas_successes",
    "warp_collectives",
    "failed",
    "group_size",
)


def report_tuple(report) -> tuple:
    return tuple(getattr(report, f) for f in REPORT_FIELDS) + (
        report.probe_windows.tobytes(),
    )


def slots_bytes(table) -> bytes:
    layout, packed, kp, vp = slot_planes(table.slots)
    return packed.tobytes() if layout == "aos" else kp.tobytes() + vp.tobytes()


def lifecycle(
    kernels: str,
    *,
    n: int = 1200,
    group_size: int = 4,
    layout: str = "aos",
    probing: str = "window",
    seed: int = 5,
) -> dict:
    """insert → query(hit+miss) → erase → tombstone-heavy reinsert."""
    keys = unique_keys(n, seed=seed)
    values = random_values(n, seed=seed + 1)
    probe = np.concatenate([keys, unique_keys(max(n // 2, 1), seed=seed + 2)])
    table = WarpDriveHashTable(
        max(64, int(n / 0.8)),
        group_size=group_size,
        layout=layout,
        probing=probing,
    )
    try:
        irep = table.insert(keys, values, kernels=kernels)
        qvals, qfound = table.query(probe, kernels=kernels)
        erased = table.erase(keys[: n // 2], kernels=kernels)
        rrep = table.insert(
            keys[: n // 2], values[: n // 2] + 1, kernels=kernels
        )
        return {
            "slots": slots_bytes(table),
            "insert": report_tuple(irep),
            "reinsert": report_tuple(rrep),
            "query": (qvals.tobytes(), qfound.tobytes()),
            "erased": erased.tobytes(),
            "counter": table.counter.snapshot(),
            "size": len(table),
        }
    finally:
        table.free()


@needs_provider
class TestBitIdentity:
    @pytest.mark.parametrize("group_size", [1, 4, 32])
    @pytest.mark.parametrize("layout", ["aos", "soa", "compact"])
    def test_lifecycle_matches_fast(self, group_size, layout):
        assert lifecycle(
            "compiled", group_size=group_size, layout=layout
        ) == lifecycle("fast", group_size=group_size, layout=layout)

    @pytest.mark.parametrize("probing", ["window", "double", "linear"])
    def test_probing_policies_match_fast(self, probing):
        assert lifecycle("compiled", probing=probing) == lifecycle(
            "fast", probing=probing
        )

    def test_growth_episodes_match_fast(self):
        """Quarter-capacity start: the compiled path must survive the
        coordinated resize-and-rehash episodes bit-for-bit."""
        n = 2000
        keys = unique_keys(n, seed=41)
        values = random_values(n, seed=42)
        snaps = {}
        for kernels in ("fast", "compiled"):
            table = WarpDriveHashTable(
                max(64, n // 4),
                group_size=4,
                growth=GrowthPolicy(max_load=0.85),
            )
            try:
                for lo in range(0, n, n // 4):
                    table.insert(
                        keys[lo : lo + n // 4],
                        values[lo : lo + n // 4],
                        kernels=kernels,
                    )
                qvals, qfound = table.query(keys, kernels=kernels)
                snaps[kernels] = (
                    slots_bytes(table),
                    table.capacity,
                    qvals.tobytes(),
                    qfound.tobytes(),
                    len(table),
                )
            finally:
                table.free()
        assert snaps["fast"] == snaps["compiled"]

    @examples(15)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n=st.integers(min_value=1, max_value=500),
        group_size=st.sampled_from([1, 4, 32]),
        layout=st.sampled_from(["aos", "soa", "compact"]),
    )
    def test_random_workloads_match_fast(self, seed, n, group_size, layout):
        assert lifecycle(
            "compiled", n=n, group_size=group_size, layout=layout, seed=seed
        ) == lifecycle(
            "fast", n=n, group_size=group_size, layout=layout, seed=seed
        )


class TestProviders:
    """Every provider on this host implements the same loops."""

    @pytest.mark.parametrize("provider", available_providers())
    def test_provider_matches_fast(self, provider, monkeypatch):
        monkeypatch.setenv("REPRO_JIT_PROVIDER", provider)
        assert lifecycle("compiled", n=1200) == lifecycle("fast", n=1200)


@needs_provider
class TestWarmup:
    def test_warm_compiles_once_under_jit_span(self, monkeypatch):
        monkeypatch.setattr(
            "repro.core.kernels_jit._LOOPS_CACHE", {}, raising=True
        )
        with obs.session() as (recorder, _):
            assert warm("window", "aos") is True
            compile_spans = [
                s for s in recorder.spans if s.name == "jit_compile"
            ]
            assert len(compile_spans) == 1
            assert compile_spans[0].attrs["kernels"] == "compiled"
            # the span names the resolved policy triple so traces say
            # exactly which compiled instance was built
            assert compile_spans[0].attrs["provider"] in available_providers()
            assert compile_spans[0].attrs["probing"] == "window"
            assert compile_spans[0].attrs["layout"] == "aos"
            # second warm hits the cache — no second compilation span
            assert warm("window", "aos") is True
            assert (
                len([s for s in recorder.spans if s.name == "jit_compile"])
                == 1
            )

    def test_warm_launches_hit_hot_cache(self, monkeypatch):
        monkeypatch.setattr(
            "repro.core.kernels_jit._LOOPS_CACHE", {}, raising=True
        )
        warm("window", "aos")
        keys = unique_keys(200, seed=7)
        table = WarpDriveHashTable(512, group_size=4)
        try:
            with obs.session() as (recorder, _):
                table.insert(keys, keys, kernels="compiled")
                assert not [
                    s for s in recorder.spans if s.name == "jit_compile"
                ]
        finally:
            table.free()

    def test_cache_is_keyed_per_policy_pair(self, monkeypatch):
        monkeypatch.setattr(
            "repro.core.kernels_jit._LOOPS_CACHE", {}, raising=True
        )
        from repro.core import kernels_jit

        warm("window", "aos")
        warm("window", "soa")
        warm("window", "compact")
        warm("double", "aos")
        assert len(kernels_jit._LOOPS_CACHE) >= 3


@needs_provider
class TestSpeedFloors:
    """Compiled stays well clear of the vectorized ``fast`` kernels.

    Conservative floors at n = 2^16, best of 3 fresh-table inserts per
    backend, all in the calling thread (the cascade on the serial
    engine); a 2-CPU host measured ~7x on both.  They only catch the
    compiled path regressing towards interpreter speed; host speed as a
    whole is measured by ``perfbench/``.
    """

    N = 1 << 16

    def _speedup(self, build, insert) -> float:
        keys = unique_keys(self.N, seed=11)
        values = random_values(self.N, seed=12)
        warm("window", "aos")  # keep the one-time compile off the clock
        best = {}
        for kernels in ("fast", "compiled"):
            best[kernels] = float("inf")
            for _ in range(3):
                table = build(keys, kernels)
                try:
                    t0 = time.perf_counter()
                    insert(table, keys, values)
                    seconds = time.perf_counter() - t0
                finally:
                    table.free()
                best[kernels] = min(best[kernels], seconds)
        return best["fast"] / best["compiled"]

    def test_single_shard_insert_at_least_3x(self):
        speedup = self._speedup(
            lambda keys, kernels: WarpDriveHashTable(
                config=HashTableConfig.for_load_factor(
                    keys.size, 0.95, group_size=4
                ),
                kernels=kernels,
            ),
            lambda table, keys, values: table.insert(keys, values),
        )
        assert speedup >= 3.0, f"compiled single-shard insert {speedup:.2f}x"

    def test_cascade_insert_at_least_2x(self):
        speedup = self._speedup(
            lambda keys, kernels: DistributedHashTable.for_workload(
                p100_nvlink_node(4), keys, 0.95,
                group_size=4, engine="serial", kernels=kernels,
            ),
            lambda table, keys, values: table.insert(
                keys, values, source="device"
            ),
        )
        assert speedup >= 2.0, f"compiled m=4 cascade insert {speedup:.2f}x"
