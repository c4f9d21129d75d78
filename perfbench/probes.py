"""Per-layer timing for the traced benchmark run, installed from outside.

Nothing here touches ``src/``: every wrapper is an instance attribute set
on an object the benchmark built itself (a table, a server's cache), so
the untraced run executes the library exactly as a caller gets it.
Instance attributes shadow the class methods for ``self.stage_insert``
style calls too, which is how one set of wrappers sees the bare cascade,
the pipelined stream and the served batch alike.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.perfmodel import time_cascade

clock = time.perf_counter


@dataclass
class Cascade:
    """One finished cascade as seen from outside the table."""

    report: object
    #: caller-visible seconds: the bare call, or stage + commit when a
    #: pipeline drove the two halves separately
    wall: float
    #: modelled P100 seconds of the cascade (perfmodel.time_cascade)
    model_s: float


class TableProbe:
    """Times calls into one ``DistributedHashTable``.

    ``stage_*`` and ``commit_staged`` are timed on every path; the bare
    ``insert``/``query``/``erase`` entry points are timed as well, and a
    commit made inside one of them is attributed to that call rather than
    to the pipeline.
    """

    def __init__(self, table):
        self.table = table
        self.stage_s = 0.0
        #: commits driven by a pipeline (not nested in a bare call)
        self.commit_s = 0.0
        self.cascades: list[Cascade] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._stage_wall: dict[int, float] = {}
        for name in ("stage_insert", "stage_query", "stage_erase"):
            setattr(table, name, self._wrap_stage(getattr(table, name)))
        table.commit_staged = self._wrap_commit(table.commit_staged)
        for name in ("insert", "query", "erase"):
            setattr(table, name, self._wrap_call(getattr(table, name)))

    def _wrap_stage(self, fn):
        def timed_stage(*args, **kwargs):
            t0 = clock()
            staged = fn(*args, **kwargs)
            dt = clock() - t0
            with self._lock:
                self.stage_s += dt
                self._stage_wall[id(staged)] = dt
            return staged

        return timed_stage

    def _wrap_commit(self, fn):
        def timed_commit(staged, **kwargs):
            t0 = clock()
            out = fn(staged, **kwargs)
            dt = clock() - t0
            with self._lock:
                stage_dt = self._stage_wall.pop(id(staged), 0.0)
            if getattr(self._local, "bare", False):
                self._local.pending = staged.report
            else:
                model = self.model_seconds(staged.report)
                with self._lock:
                    self.commit_s += dt
                    self.cascades.append(
                        Cascade(staged.report, stage_dt + dt, model)
                    )
            return out

        return timed_commit

    def _wrap_call(self, fn):
        def timed_call(*args, **kwargs):
            self._local.bare = True
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self._local.bare = False
            report = self._local.pending
            model = self.model_seconds(report)
            with self._lock:
                self.cascades.append(Cascade(report, dt, model))
            return out

        return timed_call

    def model_seconds(self, report) -> float:
        # priced after the cascade's own timing ends, against the table as
        # the cascade left it (growth changes the shard footprints)
        return time_cascade(report, self.table, self.table.topology).total


class CacheProbe:
    """Sums the seconds a server's hot-key cache spends in its calls."""

    def __init__(self, cache):
        self.seconds = 0.0
        for name in ("lookup", "admit", "invalidate"):
            setattr(cache, name, self._wrap(getattr(cache, name)))

    def _wrap(self, fn):
        def timed(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds += clock() - t0

        return timed


#: per-layer metrics a fixed input reproduces bit for bit, in the order
#: :func:`exact_counts` returns them
EXACT = (
    "model.cascade_s",
    "core.probe_windows_per_op",
    "core.cas_success_ratio",
    "multigpu.alltoall_bytes",
    "core.grow_count",
    "core.rehash_pairs",
)


def exact_counts(cascades: list[Cascade]) -> tuple:
    """The counts a fixed input must reproduce bit for bit (see EXACT)."""
    windows = ops = cas_attempts = cas_successes = 0
    for c in cascades:
        for rep in c.report.kernel_reports:
            windows += rep.total_windows
            ops += rep.num_ops
            cas_attempts += rep.cas_attempts
            cas_successes += rep.cas_successes
    return (
        float(sum(c.model_s for c in cascades)),
        windows / ops if ops else 0.0,
        cas_successes / cas_attempts if cas_attempts else 0.0,
        sum(c.report.alltoall_bytes + c.report.reverse_bytes for c in cascades),
        sum(1 for c in cascades if c.report.grow_reports),
        sum(r.num_ops for c in cascades for r in c.report.grow_reports),
    )


def cascade_layers(cascades: list[Cascade]) -> dict[str, float]:
    """core / multigpu / host-glue / perfmodel figures of some cascades."""
    kernel = sum(c.report.kernel_wall_seconds for c in cascades)
    dist = sum(c.report.distribution_wall_seconds for c in cascades)
    grow = sum(c.report.grow_wall_seconds for c in cascades)
    wall = sum(c.wall for c in cascades)
    keys = sum(c.report.num_ops for c in cascades)
    n = len(cascades)
    return {
        **dict(zip(EXACT, exact_counts(cascades))),
        "core.kernel_s": kernel,
        "core.grow_s": grow,
        "multigpu.distribution_s": dist,
        "multigpu.load_imbalance": (
            sum(c.report.load_imbalance for c in cascades) / n if n else 0.0
        ),
        "cascade.glue_s": wall - kernel - dist - grow,
        "cascade.calls": n,
        "cascade.keys_per_call": keys / n if n else 0.0,
    }
