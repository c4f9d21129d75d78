"""Compiled bulk kernels — the ``kernels="compiled"`` backend.

The fast bulk executors of :mod:`repro.core.bulk` interpret the probing
policy with vectorized NumPy passes; this module runs the *same*
wave/round algorithm as scalar C loops (:mod:`repro.core._jit_cc`),
built once into a disk-cached shared library and launched through
ctypes.  The compiled loops are **bit-identical** to the fast kernels —
final slot contents, per-item statuses, probe-window arrays, and every
:class:`~repro.core.report.KernelReport` counter field (property-tested
in ``tests/core/test_compiled_kernels.py`` and
``tests/exec/test_compiled_equivalence.py``).

Provider
--------
There is one provider, ``cc``: it is live when the C library builds
(or is already cached) and loads.  ``REPRO_JIT_PROVIDER`` (``cc`` |
``none``) pins it for tests and benchmarks; any other value raises
:class:`~repro.errors.ConfigurationError`.

Fallback rules
--------------
:func:`resolve_kernels` maps a requested backend to the one that can
actually run, warning once per call-site owner:

* no provider (no C toolchain, a toolchain that cannot build the
  library, or ``REPRO_JIT_PROVIDER=none``) → ``"fast"``;
* sanitizer-instrumented slot stores → ``"fast"`` (compiled loops
  bypass the shadow instrumentation, so racecheck must keep the
  vectorized path).

The library is loaded once per process, when the provider is first
resolved; each ``(probing, layout)`` op table is bound under a
``jit_compile`` observability span and warmed explicitly (see
:func:`warm`) so first-call setup never pollutes measured kernel rows.
"""

from __future__ import annotations

import os
import warnings

import numpy as np

from ..errors import ConfigurationError
from ..memory.layout import pack_pairs
from ..obs import runtime as obs
from ..simt.counters import TransactionCounter
from ..utils.validation import check_keys, check_same_length, check_values
from . import _jit_cc
from .bulk import (
    STATUS,
    _merge_counter,
    _record_bytes,
    _sectors_per_window,
    default_wave_size,
)
from .probing import WindowSequence
from .report import KernelReport

__all__ = [
    "PROVIDERS",
    "active_provider",
    "available_providers",
    "compiled_available",
    "resolve_kernels",
    "reset_fallback_warnings",
    "slot_planes",
    "warm",
    "bulk_insert_compiled",
    "bulk_query_compiled",
    "bulk_erase_compiled",
    "scatter_permutation",
]

#: the one compiled provider
PROVIDERS = ("cc",)

#: dummy planes for the layout that is not in use
_NO_U64 = np.empty(0, dtype=np.uint64)
_NO_U32 = np.empty(0, dtype=np.uint32)

#: bind-once/launch-many cache: (probing, layout) -> op table
_LOOPS_CACHE: dict[tuple[str, str], dict] = {}

#: whether the cc library loaded (None = not tried yet)
_CC_STATE: dict[str, bool | None] = {"ok": None}

#: call sites that already warned about a fallback
_WARNED: set[tuple[str, str]] = set()


# -- provider resolution --------------------------------------------------


def _cc_available() -> bool:
    """Whether the C library loads — tried once per process, then cached.

    A compiler on ``PATH`` is not enough: one that cannot build the
    library makes the provider unavailable, so ``kernels="compiled"``
    falls back to ``"fast"`` instead of raising.
    """
    if _CC_STATE["ok"] is None:
        _CC_STATE["ok"] = _jit_cc.library_loads()
    return bool(_CC_STATE["ok"])


def active_provider() -> str | None:
    """The provider ``kernels="compiled"`` resolves to (None = fallback).

    ``REPRO_JIT_PROVIDER`` pins the choice (``cc`` or ``none``);
    otherwise ``cc`` runs whenever its library loads.
    """
    forced = os.environ.get("REPRO_JIT_PROVIDER", "").strip().lower()
    if forced == "none":
        return None
    if forced and forced not in PROVIDERS:
        raise ConfigurationError(
            f"REPRO_JIT_PROVIDER must be one of {PROVIDERS + ('none',)}, "
            f"got {forced!r}"
        )
    return "cc" if _cc_available() else None


def available_providers() -> tuple[str, ...]:
    """Providers that could run on this host (ignores the env pin)."""
    return PROVIDERS if _cc_available() else ()


def compiled_available() -> bool:
    """True when ``kernels="compiled"`` would not fall back."""
    return active_provider() is not None


def slot_planes(slots):
    """Raw storage planes of a slot view, or None when unsupported.

    Returns ``(layout, packed_u64, key_plane, value_plane)`` for a plain
    AoS array, an unsanitized SoA view, or an unsanitized compact view
    — whose key plane holds σ-permuted remainder words, so the wrappers
    σ-encode probe keys to match
    (:class:`~repro.core.store.CompactPackedView`).
    Sanitizer-instrumented views (``ShadowedArray``, shadowed SoA or
    compact views) return None: the compiled loops cannot record shadow
    accesses, so the caller must fall back to the instrumented fast path.
    """
    if isinstance(slots, np.ndarray):
        if slots.dtype == np.uint64 and slots.ndim == 1:
            return ("aos", slots, _NO_U32, _NO_U32)
        return None
    if getattr(slots, "sanitizer", None) is not None:
        return None
    values = getattr(slots, "_values", None)
    if values is None:
        return None
    keys = getattr(slots, "_keys", None)
    if keys is not None:
        return ("soa", _NO_U64, keys, values)
    rq = getattr(slots, "_rq", None)
    if rq is not None:
        return ("compact", _NO_U64, rq, values)
    return None


def _warn_once(key: tuple[str, str], message: str) -> None:
    if key in _WARNED:
        return
    _WARNED.add(key)
    warnings.warn(message, RuntimeWarning, stacklevel=3)


def reset_fallback_warnings() -> None:
    """Forget which owners warned (test isolation)."""
    _WARNED.clear()


def resolve_kernels(kernels: str, *, slots=None, owner: str = "repro"):
    """Map a requested kernel backend to the one that can actually run.

    Anything but ``"compiled"`` passes through untouched.  A
    ``"compiled"`` request resolves to ``"compiled"`` when a provider is
    available and the slot store (if given) exposes raw planes; otherwise
    it warns **once per owner** and resolves to ``"fast"`` — reports and
    spans must record the *resolved* value, never the requested one.
    """
    if kernels != "compiled":
        return kernels
    if active_provider() is None:
        _warn_once(
            (owner, "unavailable"),
            f"{owner}: kernels='compiled' requested but the cc provider "
            "is unavailable (no C toolchain could build or load it, or "
            "REPRO_JIT_PROVIDER=none); falling back to kernels='fast'",
        )
        return "fast"
    if slots is not None and slot_planes(slots) is None:
        _warn_once(
            (owner, "sanitized"),
            f"{owner}: kernels='compiled' cannot run on sanitizer-"
            "instrumented slot stores (compiled loops bypass the shadow "
            "tracker); falling back to kernels='fast'",
        )
        return "fast"
    return "compiled"


def _loops_for(probing: str, layout: str) -> dict:
    """The bind-once/launch-many op-table cache.

    Keyed per ``(probing, layout)`` policy pair; each layout gets its own
    slot-access mode of the C loops.  A cache miss binds under a
    ``jit_compile`` span so setup cost is always attributable and never
    pollutes measured kernel rows.
    """
    if active_provider() is None:
        raise ConfigurationError(
            "kernels='compiled' has no available provider; call "
            "resolve_kernels() first to fall back to 'fast'"
        )
    key = (probing, layout)
    fns = _LOOPS_CACHE.get(key)
    if fns is None:
        with obs.span(
            "jit_compile",
            "kernel",
            kernels="compiled",
            provider="cc",
            probing=probing,
            layout=layout,
        ):
            fns = _jit_cc.build_loops(layout)
        _LOOPS_CACHE[key] = fns
    return fns


def warm(probing: str = "window", layout: str = "aos") -> bool:
    """Pre-bind the loops for one policy pair (once per process).

    Returns True when the compiled path is live, False when it would
    fall back — callers may warm at construction so the first measured
    launch hits a hot cache.  Workers resolve independently: the cache
    is process-local, so each worker process warms itself exactly once.
    """
    if active_provider() is None:
        return False
    _loops_for(probing, layout)
    return True


# -- compiled counting-scatter permutation --------------------------------


def scatter_permutation(bins: np.ndarray, num_bins: int):
    """Stable bin-order permutation, compiled: ``(src, counts, offsets)``.

    Histogram → exclusive scan → stable scatter in one pass — the exact
    permutation ``np.argsort(bins, kind="stable")`` produces, plus the
    per-bin counts and exclusive offsets, without a sort.  Returns
    ``None`` when no provider is available, so
    :func:`repro.primitives.scatter.counting_scatter` can keep its
    vectorized path as the fallback.
    """
    if active_provider() is None:
        return None
    b = np.ascontiguousarray(bins, dtype=np.int64)
    n = int(b.shape[0])
    src = np.empty(n, dtype=np.int64)
    counts = np.zeros(num_bins, dtype=np.int64)
    offsets = np.zeros(num_bins, dtype=np.int64)
    _jit_cc.scatter_permutation_compiled(b, n, num_bins, src, counts, offsets)
    return src, counts, offsets


def reverse_gather_fill(
    counts: np.ndarray, bases: np.ndarray, out: np.ndarray
) -> bool:
    """Compiled reverse-gather index fill for the fused exchange.

    Writes the concatenation of ``arange(bases[p], bases[p]+counts[p])``
    over all partitions into ``out`` (int64, preallocated to
    ``counts.sum()``) — the flat gather indices one source GPU's answers
    return through in
    :func:`repro.multigpu.alltoall.transpose_exchange_fast`.  Returns
    False when no provider is available, so the caller keeps its
    vectorized per-partition fill as the fallback.  Both legs are
    property-tested identical (``tests/primitives/test_scatter.py``).
    """
    if active_provider() is None:
        return False
    c = np.ascontiguousarray(counts, dtype=np.int64)
    b = np.ascontiguousarray(bases, dtype=np.int64)
    _jit_cc.reverse_gather_compiled(c, b, int(c.shape[0]), out)
    return True


# -- public kernel entry points -------------------------------------------


def _planes_or_raise(slots):
    planes = slot_planes(slots)
    if planes is None:
        raise ConfigurationError(
            "compiled kernels need a plain AoS slot array or an "
            "unsanitized SoA/compact view; resolve_kernels() falls back "
            "to 'fast' for instrumented stores"
        )
    return planes


def _probe_keys(layout: str, k: np.ndarray) -> np.ndarray:
    """Keys in the domain the slot planes store — σ-encoded for compact."""
    if layout != "compact":
        return k
    from .store import _sigma

    return np.ascontiguousarray(_sigma(k))


def _launch_counters(n: int) -> np.ndarray:
    """Five counter cells plus the batch size, which the C loops read
    from ``counters[5]`` (and zero before returning)."""
    counters = np.zeros(6, dtype=np.int64)
    counters[5] = n
    return counters


def _report(op, n, probes, counters, failed, g) -> KernelReport:
    return KernelReport(
        op=op,
        num_ops=n,
        probe_windows=probes,
        load_sectors=int(counters[0]),
        store_sectors=int(counters[1]),
        cas_attempts=int(counters[2]),
        cas_successes=int(counters[3]),
        warp_collectives=int(counters[4]),
        failed=failed,
        group_size=g,
    )


def bulk_insert_compiled(
    slots,
    seq: WindowSequence,
    keys: np.ndarray,
    values: np.ndarray,
    counter: TransactionCounter | None = None,
    *,
    wave_size: int | None = None,
) -> tuple[KernelReport, np.ndarray]:
    """Compiled :func:`repro.core.bulk.bulk_insert` — identical contract."""
    k = check_keys(keys)
    v = check_values(values)
    check_same_length("keys", k, "values", v)
    layout, packed, kp, vp = _planes_or_raise(slots)
    n = k.shape[0]
    capacity = slots.shape[0]
    g = seq.group_size
    wave = (
        default_wave_size(capacity)
        if wave_size is None
        else max(int(wave_size), 1)
    )
    k = np.ascontiguousarray(k)
    ek = _probe_keys(layout, k)
    pairs = pack_pairs(ek, v)
    h1, step = seq.hash_cache(k)
    status = np.zeros(n, dtype=np.uint8)
    probes = np.zeros(n, dtype=np.int64)
    counters = _launch_counters(n)
    _loops_for(seq.name, layout)["insert"](
        packed, kp, vp, capacity, g, seq.inner_count, seq.max_windows,
        wave, _sectors_per_window(g, _record_bytes(slots)), h1, step,
        ek, pairs, status, probes, counters,
    )
    failed = int(np.sum(status == STATUS["failed"]))
    report = _report("insert", n, probes, counters, failed, g)
    _merge_counter(counter, report)
    return report, status


def bulk_query_compiled(
    slots,
    seq: WindowSequence,
    keys: np.ndarray,
    counter: TransactionCounter | None = None,
    default: int = 0,
) -> tuple[KernelReport, np.ndarray, np.ndarray]:
    """Compiled :func:`repro.core.bulk.bulk_query` — identical contract."""
    k = check_keys(keys)
    layout, packed, kp, vp = _planes_or_raise(slots)
    n = k.shape[0]
    capacity = slots.shape[0]
    g = seq.group_size
    k = np.ascontiguousarray(k)
    ek = _probe_keys(layout, k)
    h1, step = seq.hash_cache(k)
    out_values = np.full(n, default, dtype=np.uint32)
    found = np.zeros(n, dtype=np.bool_)
    probes = np.zeros(n, dtype=np.int64)
    counters = _launch_counters(n)
    _loops_for(seq.name, layout)["query"](
        packed, kp, vp, capacity, g, seq.inner_count, seq.max_windows,
        _sectors_per_window(g, _record_bytes(slots)), h1, step, ek,
        out_values, found.view(np.uint8), probes, counters,
    )
    report = _report("query", n, probes, counters, int(np.sum(~found)), g)
    _merge_counter(counter, report)
    return report, out_values, found


def bulk_erase_compiled(
    slots,
    seq: WindowSequence,
    keys: np.ndarray,
    counter: TransactionCounter | None = None,
) -> tuple[KernelReport, np.ndarray]:
    """Compiled :func:`repro.core.bulk.bulk_erase` — identical contract."""
    k = check_keys(keys)
    layout, packed, kp, vp = _planes_or_raise(slots)
    n = k.shape[0]
    capacity = slots.shape[0]
    g = seq.group_size
    k = np.ascontiguousarray(k)
    ek = _probe_keys(layout, k)
    h1, step = seq.hash_cache(k)
    erased = np.zeros(n, dtype=np.bool_)
    probes = np.zeros(n, dtype=np.int64)
    counters = _launch_counters(n)
    _loops_for(seq.name, layout)["erase"](
        packed, kp, vp, capacity, g, seq.inner_count, seq.max_windows,
        _sectors_per_window(g, _record_bytes(slots)), h1, step, ek,
        erased.view(np.uint8), probes, counters,
    )
    report = _report("erase", n, probes, counters, int(np.sum(~erased)), g)
    _merge_counter(counter, report)
    return report, erased
