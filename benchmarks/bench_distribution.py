"""Measured distribution-path comparison — real seconds, not modelled.

Runs the host-side distribution phases (multisplit, transposition,
reverse transposition) under both the reference implementation and the
fused single-pass one at n = 2^18, m = 4, and writes
``BENCH_distribution.json`` at the repo root (row schema: bench, n, m,
path, seconds, ops_per_s, plus the host ``cpus`` the run had and the
``kernels`` backend counting_scatter resolved — "compiled" when a JIT
provider serviced the fused multisplit, "fast" otherwise).

The fused path must deliver at least a 2x end-to-end speedup on these
phases while staying bit-identical to the reference — the equivalence
itself is property-tested in ``tests/multigpu`` and re-checked inside
the suite before any number is reported.
"""

import json
from pathlib import Path

from conftest import record

from repro.bench import (
    distribution_speedup,
    format_distribution_records,
    run_distribution_suite,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS = REPO_ROOT / "BENCH_distribution.json"


def merge_distribution_rows(records, path: Path) -> Path:
    """Replace the file's distribution rows, keeping the cluster rows
    ``bench_cluster.py`` merges into the same file."""
    rows = []
    if path.exists():
        rows = [
            row
            for row in json.loads(path.read_text())
            if str(row.get("bench", "")).startswith("cluster")
        ]
    rows = [r.to_dict() for r in records] + rows
    path.write_text(json.dumps(rows, indent=2) + "\n")
    return path


def test_distribution(benchmark):
    records = benchmark.pedantic(
        lambda: run_distribution_suite(n=1 << 18, topology="p100:4", seed=11),
        iterations=1,
        rounds=1,
    )
    merge_distribution_rows(records, RESULTS)
    record("distribution", format_distribution_records(records))

    rows = {(r.bench, r.path) for r in records}
    for phase in ("multisplit", "transpose", "reverse", "total"):
        for path in ("reference", "fused"):
            assert (phase, path) in rows
    assert all(r.seconds > 0 and r.cpus >= 1 for r in records)
    assert distribution_speedup(records, "total") >= 2.0


if __name__ == "__main__":
    rows = run_distribution_suite(n=1 << 18, topology="p100:4", seed=11)
    out = merge_distribution_rows(rows, RESULTS)
    print(format_distribution_records(rows))
    print(f"total speedup: {distribution_speedup(rows, 'total'):.2f}x")
    print(f"wrote {out}")
