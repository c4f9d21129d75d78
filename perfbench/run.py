"""Benchmark entry point: one workload, one seed, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload cascade-bulk --seed 1 --seconds 20 --trace 0

Workloads: ``cascade-bulk``, ``stream-grow``, ``serve-zipf`` (see
``README.md``).  The measurement runs in a child process
(``harness.py``) with ``src`` on its path, so its peak RSS is its own
workload's and a hung run is killed after a fixed budget instead of
hanging its caller.  Everything the run writes (the JIT cache, temporary
files, the server's unix socket) goes under ``.bench_build/`` in the
checkout.  The last line of standard output is the JSON result; the run
exits non-zero without printing one when the child fails, times out, or
the checkout holds no ``src/repro``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
#: the whole run, build included, must end well inside three minutes
CHILD_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--workload",
        required=True,
        choices=("cascade-bulk", "stream-grow", "serve-zipf"),
    )
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro package under {ROOT}", file=sys.stderr)
        return 2

    build = ROOT / ".bench_build"
    (build / "tmp").mkdir(parents=True, exist_ok=True)
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        REPRO_JIT_CACHE_DIR=str(build / "repro-jit"),
        TMPDIR=str(build / "tmp"),
    )
    cmd = [
        sys.executable,
        str(HERE / "harness.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(
            f"perfbench: {args.workload} did not finish in {CHILD_TIMEOUT_S} s",
            file=sys.stderr,
        )
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        print(f"perfbench: harness exited {proc.returncode}", file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stdout.write(proc.stdout)
        print("perfbench: harness printed no result line", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
