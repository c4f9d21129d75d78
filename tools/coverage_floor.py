"""Line-coverage floor for the instrumented fast paths, without pytest-cov.

The CI image does not ship ``coverage``/``pytest-cov`` (they are an
optional ``cov`` extra in pyproject), so this tool measures line
coverage for ``repro.simt`` and ``repro.core`` with a stdlib
``sys.settrace`` collector and enforces the same ``fail_under`` floor
configured under ``[tool.coverage.report]``.

Usage::

    python tools/coverage_floor.py              # tier-1 suite, floor from pyproject
    python tools/coverage_floor.py --floor 80 tests/simt
    python tools/coverage_floor.py --list       # per-file table only, no gate

When the real ``coverage`` package is installed (``pip install -e
.[cov]``), prefer ``pytest --cov``; the numbers agree to within the
stdlib tracer's granularity (it cannot see lines executed before
tracing starts, i.e. nothing in this repo's layout).
"""

from __future__ import annotations

import argparse
import re
import sys
import threading
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

#: packages the floor applies to — keep in sync with [tool.coverage.run]
TARGET_PACKAGES = ("repro/simt", "repro/core")

#: test-tree globs the gate refuses to run without: the lifecycle layer
#: (grow/rehash), the compiled kernel backend, the streaming pipeline
#: (depth equivalence + staging backpressure), the serving layer
#: (soak replay identity, fault injection, wire codecs), and the
#: compact slot layout (cross-layout bit-identity, store/view planes)
#: are exercised only through these modules, so a renamed or emptied
#: file would silently drop the floor's most load-bearing coverage
#: instead of failing the gate
REQUIRED_TEST_GLOBS = (
    "tests/core/test_growth*.py",
    "tests/multigpu/test_distributed_growth*.py",
    "tests/core/test_compiled_kernels*.py",
    "tests/core/test_compiled_fallback*.py",
    "tests/exec/test_compiled_equivalence*.py",
    "tests/pipeline/test_pipeline_depth*.py",
    "tests/multigpu/test_hierarchical*.py",
    "tests/pipeline/test_staging*.py",
    "tests/serve/test_soak*.py",
    "tests/serve/test_faults*.py",
    "tests/serve/test_protocol*.py",
    "tests/core/test_compact_layout*.py",
    "tests/core/test_store*.py",
    "tests/multigpu/test_compact_distribution*.py",
)


def missing_required_tests() -> list[str]:
    """Globs with no non-empty match under the repo root."""
    missing = []
    for pattern in REQUIRED_TEST_GLOBS:
        matches = [p for p in REPO_ROOT.glob(pattern) if p.stat().st_size > 0]
        if not matches:
            missing.append(pattern)
    return missing

_PRAGMA = re.compile(r"#\s*pragma:\s*no\s+cover")


def target_files() -> list[Path]:
    files: list[Path] = []
    for pkg in TARGET_PACKAGES:
        files.extend(sorted((SRC / pkg).rglob("*.py")))
    return files


def executable_lines(path: Path) -> set[int]:
    """Line numbers the interpreter can actually visit, per the line
    table of the compiled module (docstrings/blank lines excluded),
    minus ``pragma: no cover`` suppressions."""
    source = path.read_text()
    code = compile(source, str(path), "exec")
    lines: set[int] = set()
    stack = [code]
    while stack:
        obj = stack.pop()
        for _, _, lineno in obj.co_lines():
            if lineno is not None:
                lines.add(lineno)
        stack.extend(c for c in obj.co_consts if hasattr(c, "co_lines"))
    source_lines = source.splitlines()
    suppressed = {
        i for i, text in enumerate(source_lines, start=1) if _PRAGMA.search(text)
    }
    # drop the module's zeroth pseudo-line and anything pragma-marked
    return {n for n in lines - suppressed if 1 <= n <= len(source_lines)}


class LineCollector:
    """Records (filename, lineno) pairs for frames inside the targets."""

    def __init__(self, prefixes: tuple[str, ...]):
        self.prefixes = prefixes
        self.hits: dict[str, set[int]] = {}

    def _local(self, frame, event, arg):
        if event == "line":
            self.hits[frame.f_code.co_filename].add(frame.f_lineno)
        return self._local

    def _global(self, frame, event, arg):
        if event != "call":
            return None
        filename = frame.f_code.co_filename
        if not filename.startswith(self.prefixes):
            return None
        self.hits.setdefault(filename, set())
        return self._local

    def __enter__(self):
        sys.settrace(self._global)
        threading.settrace(self._global)
        return self

    def __exit__(self, *exc):
        sys.settrace(None)
        threading.settrace(None)
        return False


def configured_floor() -> float:
    """The fail_under value from pyproject's [tool.coverage.report]."""
    text = (REPO_ROOT / "pyproject.toml").read_text()
    match = re.search(r"fail_under\s*=\s*([0-9.]+)", text)
    return float(match.group(1)) if match else 85.0


def run_suite(pytest_args: list[str], collector: LineCollector) -> int:
    import pytest

    with collector:
        return pytest.main(["-q", *pytest_args])


def report(hits: dict[str, set[int]], *, show_files: bool) -> float:
    total_exec = total_hit = 0
    rows = []
    for path in target_files():
        lines = executable_lines(path)
        covered = hits.get(str(path), set()) & lines
        total_exec += len(lines)
        total_hit += len(covered)
        pct = 100.0 * len(covered) / len(lines) if lines else 100.0
        rows.append((path.relative_to(SRC), len(covered), len(lines), pct))
    if show_files:
        for rel, hit, n, pct in rows:
            print(f"{str(rel):<48} {hit:>4}/{n:<4} {pct:6.1f}%")
    overall = 100.0 * total_hit / total_exec if total_exec else 100.0
    print(
        f"coverage[{', '.join(TARGET_PACKAGES)}]: "
        f"{total_hit}/{total_exec} lines = {overall:.1f}%"
    )
    return overall


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("pytest_args", nargs="*", default=[],
                        help="extra args for pytest (default: configured testpaths)")
    parser.add_argument("--floor", type=float, default=None,
                        help="minimum percent (default: pyproject fail_under)")
    parser.add_argument("--list", action="store_true",
                        help="print the per-file table")
    parser.add_argument("--no-gate", action="store_true",
                        help="report only; always exit 0")
    args = parser.parse_args(argv)

    missing = missing_required_tests()
    if missing:
        for pattern in missing:
            print(f"coverage_floor: required test tree missing: {pattern}")
        return 1

    sys.path.insert(0, str(SRC))
    # subprocess-driven tests (examples, process backend) also need src
    import os

    existing = os.environ.get("PYTHONPATH", "")
    os.environ["PYTHONPATH"] = (
        f"{SRC}{os.pathsep}{existing}" if existing else str(SRC)
    )
    collector = LineCollector((str(SRC / "repro"),))
    status = run_suite(args.pytest_args, collector)
    if status != 0:
        print(f"coverage_floor: test run failed (pytest exit {status})")
        return int(status)

    overall = report(collector.hits, show_files=args.list)
    floor = args.floor if args.floor is not None else configured_floor()
    if args.no_gate:
        return 0
    if overall < floor:
        print(f"coverage_floor: {overall:.1f}% is below the floor of {floor:.1f}%")
        return 1
    print(f"coverage_floor: ok (floor {floor:.1f}%)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
