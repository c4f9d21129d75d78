"""Tier-1 smoke tests for the distribution benchmark suite.

The real measurement (n = 2^18, asserting the ≥2x speedup) lives in
``benchmarks/bench_distribution.py`` outside the tier-1 test paths;
here we only check the suite's structure at a tiny n so it stays well
inside the tier-1 time budget.
"""

import os

import pytest

from repro.bench import (
    distribution_speedup,
    format_distribution_records,
    run_distribution_suite,
)
from repro.bench.distribution import PHASES, DistributionRecord
from repro.errors import ConfigurationError


@pytest.fixture(scope="module")
def records():
    return run_distribution_suite(n=512, topology="p100:4", seed=3, repeats=1)


class TestSuite:
    def test_row_grid_complete(self, records):
        rows = {(r.bench, r.path) for r in records}
        assert rows == {
            (phase, path)
            for phase in PHASES
            for path in ("reference", "fused")
        }

    def test_rows_well_formed(self, records):
        for r in records:
            assert r.n == 512 and r.m == 4
            assert r.seconds >= 0 and r.ops_per_s >= 0

    def test_cpus_recorded(self, records):
        assert all(r.cpus == (os.cpu_count() or 1) for r in records)

    def test_total_is_sum_of_phases(self, records):
        for path in ("reference", "fused"):
            parts = sum(
                r.seconds
                for r in records
                if r.path == path and r.bench != "total"
            )
            (total,) = [
                r.seconds
                for r in records
                if r.path == path and r.bench == "total"
            ]
            assert total == pytest.approx(parts)

    def test_speedup_helper(self, records):
        assert distribution_speedup(records, "total") > 0
        assert distribution_speedup([], "total") == 0.0
        assert distribution_speedup(records, "no-such-phase") == 0.0

    def test_format(self, records):
        text = format_distribution_records(records)
        for phase in PHASES:
            assert phase in text
        assert "vs reference" in text and "host cpus" in text

    def test_bad_repeats(self):
        with pytest.raises(ConfigurationError):
            run_distribution_suite(n=64, repeats=0)

    def test_record_defaults_cpus(self):
        rec = DistributionRecord(
            bench="total", n=1, m=1, path="fused", seconds=1.0, ops_per_s=1.0
        )
        assert rec.cpus >= 1
