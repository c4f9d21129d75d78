"""The no-provider fallback: ``kernels="compiled"`` must degrade cleanly.

With no JIT provider (forced off via ``REPRO_JIT_PROVIDER=none``, or a
C toolchain that cannot build the library) a ``"compiled"`` request
warns once per owner, resolves to ``"fast"``,
produces results identical to an explicit ``"fast"`` run, and every
report / span records the backend **actually used** — never the one
requested.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.core.kernels_jit import (
    active_provider,
    compiled_available,
    reset_fallback_warnings,
    resolve_kernels,
)
from repro.core.table import WarpDriveHashTable
from repro.errors import ConfigurationError
from repro.exec.engine import ShardKernelTask, create_engine
from repro.multigpu.distributed_table import DistributedHashTable
from repro.multigpu.topology import p100_nvlink_node
from repro.obs import runtime as obs
from repro.workloads import random_values, unique_keys


@pytest.fixture(autouse=True)
def fresh_warnings():
    reset_fallback_warnings()
    yield
    reset_fallback_warnings()


@pytest.fixture
def no_provider(monkeypatch):
    monkeypatch.setenv("REPRO_JIT_PROVIDER", "none")


class TestResolution:
    def test_no_provider_resolves_to_fast_and_warns_once(self, no_provider):
        assert active_provider() is None
        with pytest.warns(RuntimeWarning, match="falling back"):
            assert resolve_kernels("compiled", owner="T") == "fast"
        # warned already for this owner: the second call must stay silent
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_kernels("compiled", owner="T") == "fast"

    def test_each_owner_warns_independently(self, no_provider):
        with pytest.warns(RuntimeWarning):
            resolve_kernels("compiled", owner="A")
        with pytest.warns(RuntimeWarning):
            resolve_kernels("compiled", owner="B")

    def test_other_backends_pass_through(self, no_provider):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_kernels("fast") == "fast"
            assert resolve_kernels("ref") == "ref"

    @pytest.mark.parametrize("pin", ["gpu", "numba", "interp"])
    def test_invalid_provider_pin_raises(self, pin, monkeypatch):
        monkeypatch.setenv("REPRO_JIT_PROVIDER", pin)
        with pytest.raises(ConfigurationError):
            active_provider()

    @pytest.mark.skipif(
        not compiled_available(), reason="no JIT provider on this host"
    )
    def test_instrumented_slots_fall_back(self):
        """slot stores without raw planes (e.g. sanitizer shadows) must
        keep the instrumented fast path."""

        class Shadowed:  # no _keys/_values planes, not an ndarray
            pass

        with pytest.warns(RuntimeWarning, match="sanitizer"):
            assert (
                resolve_kernels("compiled", slots=Shadowed(), owner="S")
                == "fast"
            )


class TestFallbackResults:
    def test_table_results_identical_to_fast(self, no_provider):
        keys = unique_keys(800, seed=3)
        values = random_values(800, seed=4)
        tables = {k: WarpDriveHashTable(1200, group_size=4) for k in ("fast", "compiled")}
        try:
            with pytest.warns(RuntimeWarning, match="falling back"):
                tables["compiled"].insert(keys, values, kernels="compiled")
            tables["fast"].insert(keys, values, kernels="fast")
            qc = tables["compiled"].query(keys, kernels="compiled")
            qf = tables["fast"].query(keys, kernels="fast")
            assert (tables["compiled"].slots == tables["fast"].slots).all()
            assert (qc[0] == qf[0]).all() and (qc[1] == qf[1]).all()
            assert (
                tables["compiled"].counter.snapshot()
                == tables["fast"].counter.snapshot()
            )
        finally:
            for t in tables.values():
                t.free()

    def test_unbuildable_toolchain_falls_back_to_fast(
        self, monkeypatch, tmp_path
    ):
        """A compiler on PATH that cannot build the library must leave
        the provider unavailable rather than raise on first launch."""
        from repro.core import _jit_cc, kernels_jit

        monkeypatch.delenv("REPRO_JIT_PROVIDER", raising=False)
        monkeypatch.setenv("CC", "false")
        monkeypatch.setenv("REPRO_JIT_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(_jit_cc, "_LIB", None)
        monkeypatch.setattr(_jit_cc, "_LIB_FAILED", False)
        monkeypatch.setattr(kernels_jit, "_CC_STATE", {"ok": None})
        monkeypatch.setattr(kernels_jit, "_LOOPS_CACHE", {})
        keys = unique_keys(800, seed=3)
        values = random_values(800, seed=4)
        broken = WarpDriveHashTable(4096, group_size=4)
        fast = WarpDriveHashTable(4096, group_size=4)
        try:
            with pytest.warns(RuntimeWarning, match="falling back"):
                broken.insert(keys, values, kernels="compiled")
            fast.insert(keys, values, kernels="fast")
            assert active_provider() is None
            assert (
                resolve_kernels("compiled", owner="WarpDriveHashTable.insert")
                == "fast"
            )
            assert (broken.slots == fast.slots).all()
            qb = broken.query(keys, kernels="compiled")
            qf = fast.query(keys, kernels="fast")
            assert (qb[0] == qf[0]).all() and (qb[1] == qf[1]).all()
        finally:
            broken.free()
            fast.free()

    def test_worker_resolves_independently(self, no_provider):
        """Engines re-resolve in the executing process; the result must
        say what actually ran."""
        keys = unique_keys(400, seed=9)
        with create_engine("serial") as eng:
            table = WarpDriveHashTable(800, group_size=4)
            try:
                task = ShardKernelTask(
                    shard=0,
                    op="insert",
                    slots=table.slots,
                    seq=table.seq,
                    keys=keys,
                    values=keys,
                    shm=table.shm_descriptor(),
                    kernels="compiled",
                )
                with pytest.warns(RuntimeWarning, match="falling back"):
                    res = eng.run([task])[0]
                assert res.kernels == "fast"
            finally:
                table.free()


class TestReportedBackend:
    def _cascade(self, n=600):
        keys = unique_keys(n, seed=13)
        values = random_values(n, seed=14)
        table = DistributedHashTable.for_workload(
            p100_nvlink_node(2), keys, 0.8, group_size=4, kernels="compiled"
        )
        try:
            with obs.session() as (recorder, _):
                report = table.insert(keys, values, source="device")
        finally:
            table.free()
        phase = [s for s in recorder.spans if s.name == "kernel phase"]
        return report, phase

    def test_cascade_report_records_fast_when_fallen_back(self, no_provider):
        with pytest.warns(RuntimeWarning, match="falling back"):
            report, phase = self._cascade()
        assert report.kernels == "fast"
        assert phase and all(s.attrs["kernels"] == "fast" for s in phase)
        assert report.to_dict()["kernels"] == "fast"

    @pytest.mark.skipif(
        not compiled_available(), reason="no JIT provider on this host"
    )
    def test_cascade_report_records_compiled_when_live(self):
        report, phase = self._cascade()
        assert report.kernels == "compiled"
        assert phase and all(
            s.attrs["kernels"] == "compiled" for s in phase
        )

    def test_constructor_rejects_unknown_backend(self):
        with pytest.raises(ConfigurationError):
            DistributedHashTable(256, topology=p100_nvlink_node(2), kernels="ref")
