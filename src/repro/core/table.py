"""The WarpDrive hash table — single-GPU public API.

This is the user-facing object implementing the paper's core
contribution: an open-addressing hash map probed by coalesced groups of
``|g|`` threads with the hybrid linear-window/chaotic-hop scheme of
Fig. 3.  Bulk operations run the vectorized kernels by default; the
``kernels="ref"`` path runs the faithful generator kernels under a
chosen interleaving scheduler (slow; for verification); see
:mod:`repro.options` for the unified option set.

Example
-------
>>> import numpy as np
>>> from repro.core import WarpDriveHashTable
>>> table = WarpDriveHashTable.for_load_factor(1000, 0.9, group_size=4)
>>> keys = np.arange(1000, dtype=np.uint32)
>>> report = table.insert(keys, keys * 2)
>>> values, found = table.query(keys)
>>> bool(found.all()), int(values[21])
(True, 42)
"""

from __future__ import annotations

from dataclasses import replace as _dc_replace

import numpy as np

from ..constants import EMPTY_SLOT
from ..errors import ConfigurationError, InsertionError
from ..memory.layout import unpack_pairs
from ..obs import runtime as obs
from ..options import UNSET
from ..simt.counters import TransactionCounter
from ..simt.device import Device
from ..simt.kernel import launch
from ..simt.scheduler import Scheduler, SequentialScheduler
from ..simt.warp import CoalescedGroup
from ..utils.validation import check_keys, check_same_length, check_values
from .bulk import STATUS, bulk_erase, bulk_insert, bulk_query
from .config import HashTableConfig
from .growth import GrowthPolicy
from .kernels_jit import (
    bulk_erase_compiled,
    bulk_insert_compiled,
    bulk_query_compiled,
    resolve_kernels,
    warm,
)
from .kernels_ref import erase_task, insert_task, query_task
from .probing import make_window_sequence
from .report import KernelReport
from .slots import is_vacant
from .store import make_store

__all__ = ["WarpDriveHashTable"]


class WarpDriveHashTable:
    """Fixed-capacity concurrent hash map with sub-warp probing.

    Parameters
    ----------
    capacity:
        Slot count ``c``.  Either pass this or a full ``config``.
    group_size:
        Coalesced-group width ``|g|``; the paper finds ``{2, 4, 8}``
        optimal at high load (Fig. 7).
    device:
        Optional simulated :class:`~repro.simt.device.Device`; when given,
        the slot array is allocated as VRAM (counted against the 16 GB of
        a P100) and all work is charged to the device's counter.
    config:
        Full :class:`~repro.core.config.HashTableConfig`; overrides the
        keyword shortcuts.
    engine:
        Name (or instance) of the :mod:`repro.exec` shard-execution
        backend this table will be driven under.  The table never
        instantiates the engine itself — the option only decides the
        storage: ``"process"`` (or any engine with
        ``requires_shared_slots``) backs the slot array with POSIX
        shared memory, same as ``shared=True``.
    probing:
        Window-walk policy — ``"window"`` (default), ``"double"``, or
        ``"linear"`` (:mod:`repro.core.probing`); consumed uniformly by
        the fast and ref kernels.
    layout:
        Slot storage policy — ``"aos"`` (default), ``"soa"``, or
        ``"compact"`` (quotienting sub-8-byte modelled records;
        :mod:`repro.core.store`).
    growth:
        Optional :class:`~repro.core.growth.GrowthPolicy`: the table
        grows (rehashing with the real bulk kernels) instead of raising
        :class:`~repro.errors.InsertionError` when an ingest would push
        the load past the policy's threshold.
    kernels:
        Default kernel backend for bulk operations *and* lifecycle
        rehash episodes — ``"fast"`` (default), ``"ref"``, or
        ``"compiled"``.  Per-call ``kernels=`` still overrides;
        :meth:`grow` replays live pairs through the compiled bulk insert
        when the default resolves to ``"compiled"`` (auto-fallback to
        ``"fast"`` without a JIT provider, as everywhere else).
    """

    def __init__(
        self,
        capacity: int | None = None,
        *,
        group_size: int = 4,
        p_max: int | None = None,
        config: HashTableConfig | None = None,
        device: Device | None = None,
        shared: bool = False,
        engine: object = None,
        probing: str = UNSET,
        layout: str = UNSET,
        growth: GrowthPolicy | None = UNSET,
        kernels: str = "fast",
    ):
        if engine is not None:
            shared = shared or engine == "process" or bool(
                getattr(engine, "requires_shared_slots", False)
            )
        overrides = {}
        if probing is not UNSET:
            overrides["probing"] = probing
        if layout is not UNSET:
            overrides["layout"] = layout
        if growth is not UNSET:
            overrides["growth"] = growth
        if config is None:
            if capacity is None:
                raise ConfigurationError("pass either capacity or config")
            kwargs = {"capacity": capacity, "group_size": group_size}
            if p_max is not None:
                kwargs["p_max"] = p_max
            kwargs.update(overrides)
            config = HashTableConfig(**kwargs)
        else:
            if capacity is not None and capacity != config.capacity:
                raise ConfigurationError(
                    "capacity argument conflicts with config.capacity"
                )
            if overrides:
                config = _dc_replace(config, **overrides)
        if kernels not in ("fast", "ref", "compiled"):
            raise ConfigurationError(
                f"kernels must be 'fast', 'ref' or 'compiled', got {kernels!r}"
            )
        self.default_kernels = kernels
        self.config = config
        self.device = device
        self.counter = device.counter if device is not None else TransactionCounter()

        # the storage policy owns the slot memory: plain / VRAM / POSIX
        # shared memory (``shared=True`` lets the process backend mutate
        # the table zero-copy), packed or split layout, shadowed when a
        # sanitizer rides on the device — the table only ever sees the
        # packed view
        self._shared = bool(shared)
        self.store = make_store(
            config.capacity,
            layout=config.layout,
            device=device,
            shared=shared,
            sanitizer=device.sanitizer if device is not None else None,
        )

        self.seq = make_window_sequence(
            config.probing, config.family, config.group_size, config.p_max
        )
        self._size = 0
        self.rebuilds = 0
        self.grows = 0
        self.last_report: KernelReport | None = None
        self.last_rehash_report: KernelReport | None = None

    @property
    def slots(self):
        """The packed slot view (storage-policy controlled)."""
        return self.store.view

    # -- construction helpers -------------------------------------------

    @classmethod
    def for_load_factor(
        cls,
        num_pairs: int,
        load_factor: float,
        *,
        device: Device | None = None,
        **config_kwargs,
    ) -> "WarpDriveHashTable":
        """Size a table so ``num_pairs`` inserts reach ``load_factor``."""
        config = HashTableConfig.for_load_factor(
            num_pairs, load_factor, **config_kwargs
        )
        return cls(config=config, device=device)

    # -- basic properties -------------------------------------------------

    @property
    def capacity(self) -> int:
        return self.config.capacity

    def __len__(self) -> int:
        """Number of live pairs currently stored."""
        return self._size

    @property
    def load_factor(self) -> float:
        """True load α = n/c."""
        return self._size / self.capacity

    def occupancy(self) -> float:
        """Measured fraction of non-vacant slots (cross-check for tests)."""
        return float(np.mean(~is_vacant(self.slots)))

    @property
    def table_bytes(self) -> int:
        """Modelled slot-array footprint — read off the live store.

        Identical to :attr:`HashTableConfig.table_bytes`; going through
        :attr:`SlotStore.nbytes` keeps the figure honest against the
        storage policy actually allocated (satellite of the compact
        layout: nothing downstream may assume 8 bytes per slot).
        """
        return self.store.nbytes

    # -- bulk operations --------------------------------------------------

    def insert(
        self,
        keys: np.ndarray,
        values: np.ndarray,
        *,
        kernels: str = UNSET,
        scheduler: Scheduler | None = None,
        wave_size: int | None = None,
    ) -> KernelReport:
        """Insert (or update) key-value pairs.

        ``kernels`` selects the kernel implementation — ``"fast"``
        (vectorized, default) or ``"ref"`` (faithful generator kernels
        under a scheduler).  Raises
        :class:`~repro.errors.InsertionError` if the probing scheme
        exhausts ``p_max`` windows and ``rebuild_on_failure`` is off (or
        rebuild attempts run out); otherwise transparently rebuilds with a
        translated hash family, as §II prescribes.
        """
        if kernels is UNSET:
            kernels = self.default_kernels
        k = check_keys(keys)
        v = check_values(values)
        check_same_length("keys", k, "values", v)
        # growth-policy tables resize *before* the kernel runs, so the
        # batch lands under the load ceiling (batch size is an upper
        # bound on new pairs — duplicates only leave headroom)
        self.ensure_capacity(k.shape[0])

        kernels = resolve_kernels(
            kernels, slots=self.slots, owner="WarpDriveHashTable.insert"
        )
        if kernels == "fast":
            report, status = bulk_insert(
                self.slots, self.seq, k, v, self.counter, wave_size=wave_size
            )
        elif kernels == "compiled":
            report, status = bulk_insert_compiled(
                self.slots, self.seq, k, v, self.counter, wave_size=wave_size
            )
        elif kernels == "ref":
            report, status = self._insert_ref(k, v, scheduler)
        else:
            raise ConfigurationError(f"unknown kernels {kernels!r}")
        return self._finish_insert(k, v, report, status, kernels)

    def _finish_insert(
        self,
        k: np.ndarray,
        v: np.ndarray,
        report: KernelReport,
        status: np.ndarray,
        kernels: str,
    ) -> KernelReport:
        """Post-kernel bookkeeping: size, last report, rebuild-on-failure."""
        self._size += int(np.sum(status == STATUS["inserted"]))
        self.last_report = report

        if report.failed:
            failed_mask = status == STATUS["failed"]
            if self.config.growth is not None:
                # a growth policy replaces the same-capacity rebuild: grow
                # past the threshold, then land the failed pairs in the
                # roomier table (the grow rehashed everything else)
                self.grow(
                    self.config.growth.next_capacity(
                        self.capacity, self._size + int(report.failed)
                    )
                )
                self.insert(k[failed_mask], v[failed_mask], kernels=kernels)
                return report
            if (
                not self.config.rebuild_on_failure
                or self.rebuilds >= self.config.max_rebuilds
            ):
                raise InsertionError(
                    f"{report.failed} pairs could not be placed after "
                    f"p_max={self.config.p_max} chaotic probes "
                    f"(load={self.load_factor:.3f}); rebuild budget exhausted"
                )
            self._rebuild_with(k[failed_mask], v[failed_mask], kernels=kernels)
        return report

    # -- execution-engine integration -------------------------------------

    def shm_descriptor(self):
        """Shared-memory descriptor of the slot table (None if not shared)."""
        return self.store.descriptor()

    def absorb_insert(
        self, keys: np.ndarray, values: np.ndarray, report: KernelReport,
        status: np.ndarray,
    ) -> KernelReport:
        """Account an insert kernel the execution engine ran on our slots.

        The engine runs kernels counter-less (workers may live in another
        process); charging here, in shard order, keeps counter totals
        bit-identical across serial/thread/process backends.
        """
        report.charge_to(self.counter)
        return self._finish_insert(keys, values, report, status, "fast")

    def absorb_query(self, report: KernelReport) -> KernelReport:
        report.charge_to(self.counter)
        self.last_report = report
        return report

    def absorb_erase(self, report: KernelReport) -> KernelReport:
        report.charge_to(self.counter)
        self._size -= report.store_sectors
        self.last_report = report
        return report

    def _ref_sanitizer(self):
        """The device's race sanitizer, if one is attached."""
        return self.device.sanitizer if self.device is not None else None

    def _insert_ref(
        self, k: np.ndarray, v: np.ndarray, scheduler: Scheduler | None
    ) -> tuple[KernelReport, np.ndarray]:
        sanitizer = self._ref_sanitizer()
        group = CoalescedGroup(
            self.config.group_size, self.counter, sanitizer=sanitizer
        )
        sched = scheduler or SequentialScheduler()

        def kernel(i: int):
            return insert_task(
                self.slots, self.seq, group, int(k[i]), int(v[i]), self.counter
            )

        results = launch(
            kernel, k.shape[0], scheduler=sched, counter=self.counter,
            observer=sanitizer,
        )
        status = np.array(
            [STATUS[s] for s, _ in results], dtype=np.uint8
        )
        probes = np.array([w for _, w in results], dtype=np.int64)
        report = KernelReport(
            op="insert",
            num_ops=k.shape[0],
            probe_windows=probes,
            group_size=self.config.group_size,
            failed=int(np.sum(status == STATUS["failed"])),
        )
        return report, status

    def query(
        self,
        keys: np.ndarray,
        *,
        default: int = 0,
        kernels: str = UNSET,
        scheduler: Scheduler | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Retrieve values; returns (values, found-mask).

        Keys not present yield ``default`` with ``found == False``.
        """
        if kernels is UNSET:
            kernels = self.default_kernels
        k = check_keys(keys)
        kernels = resolve_kernels(
            kernels, slots=self.slots, owner="WarpDriveHashTable.query"
        )
        if kernels == "fast":
            report, values, found = bulk_query(
                self.slots, self.seq, k, self.counter, default=default
            )
        elif kernels == "compiled":
            report, values, found = bulk_query_compiled(
                self.slots, self.seq, k, self.counter, default=default
            )
        elif kernels == "ref":
            sanitizer = self._ref_sanitizer()
            group = CoalescedGroup(
                self.config.group_size, self.counter, sanitizer=sanitizer
            )
            sched = scheduler or SequentialScheduler()

            def kernel(i: int):
                return query_task(
                    self.slots, self.seq, group, int(k[i]), self.counter
                )

            results = launch(
                kernel, k.shape[0], scheduler=sched, counter=self.counter,
                observer=sanitizer,
            )
            values = np.full(k.shape[0], default, dtype=np.uint32)
            found = np.zeros(k.shape[0], dtype=bool)
            probes = np.zeros(k.shape[0], dtype=np.int64)
            for i, (s, val, w) in enumerate(results):
                probes[i] = w
                if s == "found":
                    values[i] = val
                    found[i] = True
            report = KernelReport(
                op="query",
                num_ops=k.shape[0],
                probe_windows=probes,
                group_size=self.config.group_size,
                failed=int(np.sum(~found)),
            )
        else:
            raise ConfigurationError(f"unknown kernels {kernels!r}")
        self.last_report = report
        return values, found

    def contains(self, keys: np.ndarray) -> np.ndarray:
        """Boolean membership mask."""
        _, found = self.query(keys)
        return found

    def get(self, key: int, default: int | None = None) -> int | None:
        """Scalar lookup convenience."""
        values, found = self.query(np.asarray([key], dtype=np.uint32))
        if not found[0]:
            return default
        return int(values[0])

    def erase(
        self,
        keys: np.ndarray,
        *,
        kernels: str = UNSET,
        scheduler: Scheduler | None = None,
    ) -> np.ndarray:
        """Delete keys (tombstones); returns an erased-mask.

        Deletions form their own barrier-delimited phase, per §IV-A: "the
        described pattern ... cannot be used in combination with
        deletions.  Nevertheless, insertions and deletions can be safely
        interleaved using global barriers."
        """
        if kernels is UNSET:
            kernels = self.default_kernels
        k = check_keys(keys)
        kernels = resolve_kernels(
            kernels, slots=self.slots, owner="WarpDriveHashTable.erase"
        )
        if kernels == "fast":
            report, erased = bulk_erase(self.slots, self.seq, k, self.counter)
            # every tombstone write is one store sector in the erase report
            self._size -= report.store_sectors
        elif kernels == "compiled":
            report, erased = bulk_erase_compiled(
                self.slots, self.seq, k, self.counter
            )
            self._size -= report.store_sectors
        elif kernels == "ref":
            sanitizer = self._ref_sanitizer()
            group = CoalescedGroup(
                self.config.group_size, self.counter, sanitizer=sanitizer
            )
            sched = scheduler or SequentialScheduler()

            def kernel(i: int):
                return erase_task(self.slots, self.seq, group, int(k[i]), self.counter)

            cas_before = self.counter.cas_successes
            results = launch(
                kernel, k.shape[0], scheduler=sched, counter=self.counter,
                observer=sanitizer,
            )
            erased = np.array([s == "erased" for s, _ in results], dtype=bool)
            report = KernelReport(
                op="erase",
                num_ops=k.shape[0],
                probe_windows=np.array([w for _, w in results], dtype=np.int64),
                group_size=self.config.group_size,
                failed=int(np.sum(~erased)),
            )
            # each successful tombstone CAS removed one live slot
            self._size -= self.counter.cas_successes - cas_before
        else:
            raise ConfigurationError(f"unknown kernels {kernels!r}")
        self.last_report = report
        return erased

    # -- maintenance -------------------------------------------------------

    def export(self) -> tuple[np.ndarray, np.ndarray]:
        """All stored (keys, values), in unspecified order."""
        live = self.slots[~is_vacant(self.slots)]
        return unpack_pairs(live)

    def clear(self) -> None:
        self.store.fill(EMPTY_SLOT)
        self._size = 0

    @property
    def growth(self) -> GrowthPolicy | None:
        """The table's growth policy (None = fixed capacity)."""
        return self.config.growth

    def ensure_capacity(self, extra: int) -> KernelReport | None:
        """Grow ahead of ``extra`` incoming pairs if the policy demands.

        Returns the rehash :class:`KernelReport` when a grow happened,
        else None.  No-op without a growth policy.
        """
        policy = self.config.growth
        if policy is None:
            return None
        required = self._size + int(extra)
        if not policy.should_grow(self.capacity, required):
            return None
        return self.grow(policy.next_capacity(self.capacity, required))

    def grow(self, new_capacity: int) -> KernelReport | None:
        """Resize to ``new_capacity``, migrating live pairs by rehash.

        The migration runs the *real* bulk insert kernel against the new
        store, so its probe counts, CAS traffic, and store sectors are
        measured, charged to the device counter, and reported — tagged
        ``op="rehash"`` and kept in :attr:`last_rehash_report`.  The hash
        family is deliberately preserved: a grown table answers queries
        bit-identically to a fresh table of the new capacity (see
        ``HashTableConfig.grown``).  Returns the rehash report (None when
        the table was empty).
        """
        config = self.config.grown(new_capacity)  # validates new > old
        live_k, live_v = self.export()
        old_store = self.store
        with obs.span(
            "grow",
            "lifecycle",
            capacity_from=self.capacity,
            capacity_to=int(new_capacity),
            live=int(live_k.shape[0]),
        ) as sp:
            self.config = config
            self.seq = make_window_sequence(
                config.probing, config.family, config.group_size, config.p_max
            )
            self.store = make_store(
                config.capacity,
                layout=config.layout,
                device=self.device,
                shared=self._shared,
                sanitizer=self.device.sanitizer if self.device is not None else None,
            )
            self._size = 0
            report = None
            if live_k.shape[0]:
                # rehash episodes inherit the table's kernel backend:
                # compiled tables replay their live pairs through the
                # compiled bulk insert (warmed first, so compile time
                # stays inside a jit_compile span, not the rehash)
                kernels = resolve_kernels(
                    self.default_kernels,
                    slots=self.slots,
                    owner="WarpDriveHashTable.grow",
                )
                if kernels == "compiled":
                    warm(self.seq.name, self.config.layout)
                    report, status = bulk_insert_compiled(
                        self.slots, self.seq, live_k, live_v, self.counter
                    )
                else:
                    report, status = bulk_insert(
                        self.slots, self.seq, live_k, live_v, self.counter
                    )
                self._size = int(np.sum(status != STATUS["failed"]))
                if report.failed:  # pragma: no cover - load shrank, cannot fail
                    raise InsertionError(
                        f"{report.failed} live pairs failed to rehash into "
                        f"capacity {config.capacity}"
                    )
            self.grows += 1
            rehash = self._note_rehash(report, sp)
        old_store.free()
        return rehash

    def _note_rehash(self, report: KernelReport | None, span) -> KernelReport | None:
        """Record one lifecycle rehash: tag, expose, trace, and meter it."""
        if report is None:
            return None
        rehash = _dc_replace(report, op="rehash")
        self.last_rehash_report = rehash
        if span is not None:
            span.attrs["rehash_probe_windows"] = int(rehash.total_windows)
            span.attrs["rehash_cas_attempts"] = int(rehash.cas_attempts)
            span.attrs["rehash_store_sectors"] = int(rehash.store_sectors)
        if obs.enabled():
            obs.observe_kernel(rehash)
        return rehash

    def _rebuild_with(
        self, extra_keys: np.ndarray, extra_values: np.ndarray, *, kernels: str
    ) -> None:
        """Invalidate and reconstruct with a distinct hash function (§II)."""
        self.rebuilds += 1
        stored_k, stored_v = self.export()
        with obs.span(
            "rebuild",
            "lifecycle",
            attempt=self.rebuilds,
            capacity=self.capacity,
            live=int(stored_k.shape[0]),
            pending=int(np.asarray(extra_keys).shape[0]),
        ) as sp:
            self.config = self.config.rebuilt(self.rebuilds)
            self.seq = make_window_sequence(
                self.config.probing,
                self.config.family,
                self.config.group_size,
                self.config.p_max,
            )
            self.store.fill(EMPTY_SLOT)
            self._size = 0
            all_k = np.concatenate([stored_k, extra_keys])
            all_v = np.concatenate([stored_v, extra_values])
            report = None
            if all_k.size:
                report = self.insert(all_k, all_v, kernels=kernels)
            self._note_rehash(report, sp)

    def free(self) -> None:
        """Release simulated VRAM and any shared-memory segment."""
        self.store.free()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WarpDriveHashTable(capacity={self.capacity}, "
            f"group_size={self.config.group_size}, size={self._size}, "
            f"load={self.load_factor:.3f})"
        )
