"""Hash-table configuration."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from ..constants import DEFAULT_P_MAX
from ..errors import ConfigurationError
from ..hashing.families import DoubleHashFamily, make_double_family
from ..utils.validation import (
    check_group_size,
    check_integral,
    check_load_factor,
    check_positive,
)
from .growth import GrowthPolicy
from .probing import WINDOW_SEQUENCES
from .store import STORE_LAYOUTS, slot_record_bytes

__all__ = ["HashTableConfig"]


@dataclass(frozen=True)
class HashTableConfig:
    """Static parameters of a :class:`~repro.core.table.WarpDriveHashTable`.

    Attributes
    ----------
    capacity:
        Number of slots ``c``; fixed for the table's lifetime (paper §II:
        no on-demand resizing in the parallel setting — a full table is
        rebuilt instead).
    group_size:
        Coalesced-group width ``|g| ∈ {1,2,4,8,16,32}``.
    p_max:
        Maximum chaotic (outer) probing attempts before
        :class:`~repro.errors.InsertionError`.
    family:
        The (h, g) hash pair driving the window sequence.
    rebuild_on_failure:
        When True the table transparently invalidates and reinserts with a
        translated hash family after an insertion failure (§II).
    max_rebuilds:
        Upper bound on transparent rebuild attempts.
    probing:
        Window-walk policy: ``"window"`` (the paper's hybrid, default),
        ``"double"``, or ``"linear"`` (:mod:`repro.core.probing`).
    layout:
        Slot storage policy: ``"aos"`` (packed, default), ``"soa"``, or
        ``"compact"`` (quotienting sub-8-byte records;
        :mod:`repro.core.store`).
    growth:
        Optional :class:`~repro.core.growth.GrowthPolicy`; when set the
        table resizes instead of failing (``None`` keeps the paper's
        fixed-capacity semantics).
    """

    capacity: int
    group_size: int = 4
    p_max: int = DEFAULT_P_MAX
    family: DoubleHashFamily = field(default_factory=make_double_family)
    rebuild_on_failure: bool = True
    max_rebuilds: int = 4
    probing: str = "window"
    layout: str = "aos"
    growth: GrowthPolicy | None = None

    def __post_init__(self):
        check_integral("capacity", self.capacity)
        check_positive("capacity", self.capacity)
        check_group_size(self.group_size)
        check_positive("p_max", self.p_max)
        if self.max_rebuilds < 0:
            raise ConfigurationError(
                f"max_rebuilds must be >= 0, got {self.max_rebuilds}"
            )
        if self.probing not in WINDOW_SEQUENCES:
            raise ConfigurationError(
                f"unknown probing scheme {self.probing!r}; "
                f"choose from {sorted(WINDOW_SEQUENCES)}"
            )
        if self.layout not in STORE_LAYOUTS:
            raise ConfigurationError(
                f"unknown slot layout {self.layout!r}; "
                f"choose from {STORE_LAYOUTS}"
            )
        if self.growth is not None and not isinstance(self.growth, GrowthPolicy):
            raise ConfigurationError(
                f"growth must be a GrowthPolicy or None, got {self.growth!r}"
            )

    @classmethod
    def for_load_factor(
        cls, num_pairs: int, load_factor: float, **kwargs
    ) -> "HashTableConfig":
        """Size the table so inserting ``num_pairs`` reaches ``load_factor``.

        This mirrors the experiments' "target load factor": the capacity is
        ``ceil(n / α)`` — for unique keys the target coincides with the
        true occupancy (§V-A).
        """
        check_positive("num_pairs", num_pairs)
        check_load_factor(load_factor)
        capacity = max(int(math.ceil(num_pairs / load_factor)), 1)
        return cls(capacity=capacity, **kwargs)

    @property
    def table_bytes(self) -> int:
        """Modelled VRAM footprint of the slot array, layout-derived.

        ``capacity * slot_record_bytes(layout, capacity)`` — the same
        figure :attr:`repro.core.store.SlotStore.nbytes` reports; the
        perf model prices CAS degradation and shard footprints off this,
        never off a hard-coded 8 bytes per slot.
        """
        return self.capacity * slot_record_bytes(self.layout, self.capacity)

    def rebuilt(self, salt: int) -> "HashTableConfig":
        """Config for the reconstruction attempt after an insert failure."""
        return replace(self, family=self.family.rebuilt(salt))

    def grown(self, new_capacity: int) -> "HashTableConfig":
        """Config after a resize — same hash family, larger table.

        Growth deliberately keeps the family: a grown table is
        *query-equivalent* to a fresh table of the new capacity built
        with the same family (property-tested in
        ``tests/core/test_growth_equivalence.py``).
        """
        check_positive("new_capacity", new_capacity)
        if new_capacity <= self.capacity:
            raise ConfigurationError(
                f"grown capacity {new_capacity} must exceed "
                f"current capacity {self.capacity}"
            )
        return replace(self, capacity=int(new_capacity))
