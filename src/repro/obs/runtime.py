"""Process-global observability switch and instrumentation facade.

The hooks wired through :mod:`repro.simt`, :mod:`repro.exec`,
:mod:`repro.multigpu`, and :mod:`repro.pipeline` all call through this
module.  Disabled (the default) every call is a single attribute check
returning a shared no-op — zero allocation, no recorder, no lock — so
the instrumented hot paths run at their uninstrumented speed
(``perfbench/`` times them this way; its ``trace.overhead_frac`` is
the cost of enabling).  Enabled via
:func:`configure` or the scoped :func:`session`, the same calls record
into one :class:`~repro.obs.trace.TraceRecorder` and
:class:`~repro.obs.metrics.MetricsRegistry` pair.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from typing import Any, Iterable, Iterator

from .metrics import MetricsRegistry
from .trace import SpanRecord, TraceRecorder

__all__ = [
    "configure",
    "enabled",
    "get_recorder",
    "get_metrics",
    "session",
    "span",
    "add_span",
    "record_shard_spans",
    "observe_cascade",
    "observe_kernel",
    "observe_transfers",
]


class _ObsState:
    __slots__ = ("enabled", "recorder", "metrics")

    def __init__(self):
        self.enabled = False
        self.recorder: TraceRecorder | None = None
        self.metrics: MetricsRegistry | None = None


_STATE = _ObsState()
#: shared reusable no-op context for disabled spans
_NULL = nullcontext()


def configure(
    *,
    enabled: bool | None = None,
    recorder: TraceRecorder | None = None,
    metrics: MetricsRegistry | None = None,
) -> tuple[TraceRecorder | None, MetricsRegistry | None]:
    """Flip the global switch and/or swap the active sinks.

    ``configure(enabled=True)`` creates a fresh recorder/registry pair
    when none is active; ``configure(enabled=False)`` stops recording
    but leaves the sinks readable.  Returns ``(recorder, metrics)``.
    """
    if recorder is not None:
        _STATE.recorder = recorder
    if metrics is not None:
        _STATE.metrics = metrics
    if enabled is not None:
        _STATE.enabled = bool(enabled)
        if _STATE.enabled:
            if _STATE.recorder is None:
                _STATE.recorder = TraceRecorder()
            if _STATE.metrics is None:
                _STATE.metrics = MetricsRegistry()
    return _STATE.recorder, _STATE.metrics


def enabled() -> bool:
    return _STATE.enabled


def get_recorder() -> TraceRecorder | None:
    return _STATE.recorder


def get_metrics() -> MetricsRegistry | None:
    return _STATE.metrics


@contextmanager
def session(
    trace_id: str | None = None,
) -> Iterator[tuple[TraceRecorder, MetricsRegistry]]:
    """Scoped observability: fresh sinks on entry, prior state restored.

    The ``repro trace`` CLI and the tests run inside one of these so a
    traced workload never leaks global state into the rest of the
    process.
    """
    prior = (_STATE.enabled, _STATE.recorder, _STATE.metrics)
    recorder = TraceRecorder(trace_id)
    metrics = MetricsRegistry()
    _STATE.enabled, _STATE.recorder, _STATE.metrics = True, recorder, metrics
    try:
        yield recorder, metrics
    finally:
        _STATE.enabled, _STATE.recorder, _STATE.metrics = prior


# -- instrumentation facade (no-ops when disabled) ---------------------------


def span(name: str, category: str = "phase", **attrs: Any):
    """Context manager timing a block (shared no-op when disabled)."""
    if not _STATE.enabled:
        return _NULL
    return _STATE.recorder.span(name, category, **attrs)


def add_span(
    name: str,
    category: str,
    start: float,
    end: float,
    **kwargs: Any,
) -> SpanRecord | None:
    if not _STATE.enabled:
        return None
    return _STATE.recorder.add_span(name, category, start, end, **kwargs)


def record_shard_spans(
    shard_spans: Iterable, **kwargs: Any
) -> list[SpanRecord]:
    if not _STATE.enabled:
        return []
    return _STATE.recorder.record_shard_spans(shard_spans, **kwargs)


def observe_cascade(report) -> None:
    if _STATE.enabled:
        _STATE.metrics.observe_cascade(report)


def observe_kernel(report) -> None:
    if _STATE.enabled:
        _STATE.metrics.observe_kernel(report)


def observe_transfers(records: Iterable) -> None:
    if _STATE.enabled:
        _STATE.metrics.observe_transfers(records)
