"""Multi-value WarpDrive table.

§II: "open addressing hash maps can be extended to multi-value hash maps
in a straightforward manner" — and §V-B notes CUDPP needs exactly such a
table to handle key collisions.  The extension: insertion always claims
a fresh slot (no update-in-place), so a key's values accumulate along
its probe walk; retrieval collects *every* matching slot until an EMPTY
window proves the walk complete.

The probe walk, window structure, and accounting are shared with the
single-value table — only the match policy differs.
"""

from __future__ import annotations

import math

import numpy as np

from ..constants import DEFAULT_P_MAX
from ..errors import ConfigurationError, InsertionError
from ..hashing.families import DoubleHashFamily, make_double_family
from ..memory.layout import pack_pairs
from ..simt.counters import TransactionCounter
from ..utils.validation import (
    check_group_size,
    check_integral,
    check_keys,
    check_same_length,
    check_values,
)
from .bulk import _sectors_per_window, _window_rows, default_wave_size
from .probing import make_window_sequence
from .report import KernelReport
from .slots import is_empty, is_vacant, slot_keys, slot_values
from .store import make_store

__all__ = ["MultiValueHashTable"]


class MultiValueHashTable:
    """Open-addressing multi-map: one key, many values.

    Takes the unified option vocabulary of :mod:`repro.options`:
    ``engine=`` (decides shared-memory slot backing, exactly like the
    single-value table), ``probing=`` and ``layout=`` (the probing and
    storage policies of :mod:`repro.core.probing` /
    :mod:`repro.core.store`), and ``kernels=`` on the bulk methods.
    """

    def __init__(
        self,
        capacity: int,
        *,
        group_size: int = 4,
        p_max: int = DEFAULT_P_MAX,
        family: DoubleHashFamily | None = None,
        probing: str = "window",
        layout: str = "aos",
        engine: object = None,
        shared: bool = False,
    ):
        capacity = check_integral("capacity", capacity)
        if capacity <= 0:
            raise ConfigurationError(f"capacity must be > 0, got {capacity}")
        check_group_size(group_size)
        if engine is not None:
            shared = shared or engine == "process" or bool(
                getattr(engine, "requires_shared_slots", False)
            )
        self.capacity = capacity
        self.family = family if family is not None else make_double_family()
        self.seq = make_window_sequence(probing, self.family, group_size, p_max)
        self.store = make_store(capacity, layout=layout, shared=shared)
        self.counter = TransactionCounter()
        self._size = 0
        self.last_report: KernelReport | None = None

    @property
    def slots(self):
        """The packed slot view (storage-policy controlled)."""
        return self.store.view

    def shm_descriptor(self):
        """Shared-memory descriptor of the slot table (None if not shared)."""
        return self.store.descriptor()

    def free(self) -> None:
        """Release the slot storage."""
        self.store.free()

    @staticmethod
    def _check_kernels(method: str, kernels) -> None:
        """Bulk-method ``kernels=`` check: only ``"fast"`` exists here."""
        if kernels != "fast":
            raise ConfigurationError(
                f"MultiValueHashTable.{method} supports kernels='fast' only "
                f"(no reference multi-value kernels); got {kernels!r}"
            )

    @classmethod
    def for_load_factor(cls, num_pairs: int, load_factor: float, **kwargs):
        if not 0 < load_factor <= 1:
            raise ConfigurationError(f"load factor must be in (0, 1], got {load_factor}")
        capacity = max(int(math.ceil(num_pairs / load_factor)), 1)
        return cls(capacity, **kwargs)

    def __len__(self) -> int:
        """Number of stored (key, value) pairs — duplicates included."""
        return self._size

    @property
    def load_factor(self) -> float:
        return self._size / self.capacity

    # -- insert ---------------------------------------------------------------

    def insert(
        self, keys: np.ndarray, values: np.ndarray, *, kernels: str = "fast",
    ) -> KernelReport:
        """Append (key, value) pairs; every pair claims its own slot."""
        self._check_kernels("insert", kernels)
        k = check_keys(keys)
        v = check_values(values)
        check_same_length("keys", k, "values", v)
        n = k.shape[0]
        g = self.seq.group_size
        pairs = pack_pairs(k, v)
        report = KernelReport(op="insert", num_ops=n, group_size=g)
        sectors_per_window = _sectors_per_window(g)
        max_windows = self.seq.max_windows
        wave = default_wave_size(self.capacity)

        status = np.zeros(n, dtype=np.uint8)  # 0 pending, 1 placed, 3 failed
        win_idx = np.zeros(n, dtype=np.int64)
        probes = np.zeros(n, dtype=np.int64)
        cursor = 0
        pending = np.empty(0, dtype=np.int64)

        while pending.size or cursor < n:
            if cursor < n and pending.size < wave:
                take = min(wave - pending.size, n - cursor)
                pending = np.concatenate(
                    [pending, np.arange(cursor, cursor + take, dtype=np.int64)]
                )
                cursor += take

            rows = _window_rows(self.seq, k[pending], win_idx[pending], self.capacity)
            window = self.slots[rows]
            probes[pending] += 1
            report.load_sectors += pending.size * sectors_per_window
            report.warp_collectives += pending.size

            vac = is_vacant(window)
            has_vac = vac.any(axis=1)
            claim_sel = np.flatnonzero(has_vac)
            if claim_sel.size:
                lanes = np.argmax(vac[claim_sel], axis=1)
                target = rows[claim_sel, lanes]
                items = pending[claim_sel]
                order = np.lexsort((items, target))
                t_sorted = target[order]
                i_sorted = items[order]
                first = np.ones(order.size, dtype=bool)
                first[1:] = t_sorted[1:] != t_sorted[:-1]
                winners = i_sorted[first]
                self.slots[t_sorted[first]] = pairs[winners]
                status[winners] = 1
                report.cas_attempts += claim_sel.size
                report.cas_successes += winners.size
                report.store_sectors += winners.size

            advance = pending[~has_vac]
            win_idx[advance] += 1
            status[advance[win_idx[advance] >= max_windows]] = 3

            pending = pending[status[pending] == 0]

        report.probe_windows = probes
        report.failed = int(np.sum(status == 3))
        placed = int(np.sum(status == 1))
        self._size += placed
        self.counter.load_sectors += report.load_sectors
        self.counter.store_sectors += report.store_sectors
        self.counter.cas_attempts += report.cas_attempts
        self.counter.cas_successes += report.cas_successes
        self.last_report = report
        if report.failed:
            raise InsertionError(
                f"{report.failed} pairs could not be placed "
                f"(load={self.load_factor:.3f}); multi-value tables do not "
                f"rebuild transparently — size for the full multiplicity"
            )
        return report

    # -- retrieval --------------------------------------------------------------

    def count(
        self, keys: np.ndarray, *, kernels: str = "fast"
    ) -> np.ndarray:
        """Number of values stored under each key (vectorized).

        Distinct chaotic attempts may revisit a slot (the window walk is
        not injective for arbitrary capacities), so matches are
        deduplicated by slot index before counting — the GPU kernel's
        equivalent is a revisit check against the probe history.
        """
        self._check_kernels("count", kernels)
        k = check_keys(keys)
        n = k.shape[0]
        win_idx = np.zeros(n, dtype=np.int64)
        pending = np.arange(n, dtype=np.int64)
        g = self.seq.group_size
        report = KernelReport(op="count", num_ops=n, group_size=g)
        probes = np.zeros(n, dtype=np.int64)
        sectors_per_window = _sectors_per_window(g)
        max_windows = self.seq.max_windows
        hit_items: list[np.ndarray] = []
        hit_slots: list[np.ndarray] = []

        while pending.size:
            rows = _window_rows(self.seq, k[pending], win_idx[pending], self.capacity)
            window = self.slots[rows]
            probes[pending] += 1
            report.load_sectors += pending.size * sectors_per_window
            live = ~is_vacant(window)
            match = live & (slot_keys(window) == k[pending][:, None])
            if match.any():
                per_row = match.sum(axis=1)
                hit_items.append(np.repeat(pending, per_row))
                hit_slots.append(rows[match])
            empty_here = is_empty(window).any(axis=1)
            done = empty_here.copy()
            win_idx[pending[~done]] += 1
            over = win_idx[pending] >= max_windows
            pending = pending[~done & ~over]

        counts = np.zeros(n, dtype=np.int64)
        if hit_items:
            items = np.concatenate(hit_items)
            slots_hit = np.concatenate(hit_slots)
            uniq = np.unique(np.stack([items, slots_hit], axis=1), axis=0)
            counts += np.bincount(uniq[:, 0], minlength=n)
        report.probe_windows = probes
        self.last_report = report
        return counts

    def query_multi(self, key: int) -> np.ndarray:
        """All values stored under ``key``, in insertion-walk order.

        Revisited slots (non-injective walks) are reported once.
        """
        k = np.asarray([key], dtype=np.uint32)
        check_keys(k)
        out: list[int] = []
        seen: set[int] = set()
        for flat in range(self.seq.max_windows):
            ref = self.seq.window_ref(flat)
            rows = self.seq.window_slots(k, ref.outer, ref.inner, self.capacity)[0]
            window = self.slots[rows]
            live = ~is_vacant(window)
            match = live & (slot_keys(window) == np.uint32(key))
            for slot, value in zip(rows[match], slot_values(window[match])):
                if int(slot) not in seen:
                    seen.add(int(slot))
                    out.append(int(value))
            if is_empty(window).any():
                break
        return np.array(out, dtype=np.uint32)

    def contains(self, keys: np.ndarray) -> np.ndarray:
        return self.count(keys) > 0
