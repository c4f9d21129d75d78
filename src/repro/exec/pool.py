"""Persistent worker-process pool for the ``process`` backend.

A deliberately small pool (no futures machinery): ``workers`` long-lived
processes pull ``(id, func, arg)`` tuples from a task queue and push
``(id, ok, payload)`` back.  Design points the backends rely on:

* **lazy start** — processes spawn on first :meth:`map`, so building a
  table with ``engine="process"`` costs nothing until it runs;
* **exception propagation** — a worker catches everything, ships the
  formatted traceback home, and :class:`WorkerError` re-raises it in the
  parent with the remote traceback attached;
* **graceful shutdown** — :meth:`close` drains with sentinels, joins
  with a timeout, and only then terminates stragglers.

``fork`` is preferred (shared-memory attach is cheap and the library is
already imported); ``spawn`` is the fallback on platforms without fork.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import traceback
from collections.abc import Callable, Sequence

from ..errors import ExecutionError

__all__ = ["WorkerError", "WorkerPool", "default_worker_count"]


class WorkerError(ExecutionError):
    """A task raised inside a worker process.

    ``remote_traceback`` carries the worker-side formatted traceback.
    """

    def __init__(self, message: str, remote_traceback: str = ""):
        super().__init__(message)
        self.remote_traceback = remote_traceback


def default_worker_count() -> int:
    """One worker per core, capped — sized for per-shard kernel tasks."""
    return max(1, min(16, os.cpu_count() or 1))


def _worker_main(task_queue, result_queue) -> None:  # pragma: no cover - child
    while True:
        item = task_queue.get()
        if item is None:
            break
        task_id, func, arg = item
        try:
            result_queue.put((task_id, True, func(arg)))
        except BaseException as exc:  # noqa: BLE001 - must cross the pipe
            result_queue.put(
                (
                    task_id,
                    False,
                    (type(exc).__name__, str(exc), traceback.format_exc()),
                )
            )


class WorkerPool:
    """Fixed-size pool executing picklable ``func(arg)`` calls."""

    def __init__(self, workers: int | None = None):
        self.workers = int(workers) if workers else default_worker_count()
        if self.workers < 1:
            raise ExecutionError(f"workers must be >= 1, got {self.workers}")
        methods = mp.get_all_start_methods()
        self._ctx = mp.get_context("fork" if "fork" in methods else "spawn")
        self._tasks = None
        self._results = None
        self._procs: list = []

    @property
    def started(self) -> bool:
        return bool(self._procs)

    def _ensure_started(self) -> None:
        if self._procs:
            return
        self._tasks = self._ctx.Queue()
        self._results = self._ctx.Queue()
        for _ in range(self.workers):
            proc = self._ctx.Process(
                target=_worker_main, args=(self._tasks, self._results), daemon=True
            )
            proc.start()
            self._procs.append(proc)

    def map(self, func: Callable, args: Sequence) -> list:
        """Run ``func`` over ``args``; results in input order.

        The first failed task raises :class:`WorkerError` (after all
        submitted tasks have been collected, so the pool stays usable).
        """
        if not args:
            return []
        self._ensure_started()
        for task_id, arg in enumerate(args):
            self._tasks.put((task_id, func, arg))
        results: dict[int, object] = {}
        failure: tuple | None = None
        for _ in range(len(args)):
            task_id, ok, payload = self._results.get()
            if ok:
                results[task_id] = payload
            elif failure is None or task_id < failure[0]:
                failure = (task_id, payload)
        if failure is not None:
            task_id, (exc_type, message, remote_tb) = failure
            raise WorkerError(
                f"worker task {task_id} raised {exc_type}: {message}",
                remote_traceback=remote_tb,
            )
        return [results[i] for i in range(len(args))]

    def close(self, *, timeout: float = 5.0) -> None:
        """Stop all workers; joins gracefully, terminates stragglers."""
        if not self._procs:
            return
        for _ in self._procs:
            self._tasks.put(None)
        for proc in self._procs:
            proc.join(timeout=timeout)
        for proc in self._procs:
            if proc.is_alive():  # pragma: no cover - hung worker path
                proc.terminate()
                proc.join(timeout=1.0)
        for queue in (self._tasks, self._results):
            queue.close()
            queue.join_thread()
        self._procs = []
        self._tasks = None
        self._results = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self.close(timeout=0.5)
        except Exception:
            pass
