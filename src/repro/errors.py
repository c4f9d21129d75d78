"""Exception hierarchy for the WarpDrive reproduction.

Every error raised by :mod:`repro` derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still distinguishing the interesting cases (capacity exhaustion, probing
failure, configuration problems).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ConfigurationError(ReproError, ValueError):
    """An object was constructed with invalid or inconsistent parameters."""


class CapacityError(ReproError):
    """An operation would exceed a fixed capacity (table, buffer, VRAM)."""


class InsertionError(CapacityError):
    """The probing scheme exhausted ``p_max`` windows without finding a slot.

    Mirrors the paper's §II behaviour: "In the unlikely case that the
    probing scheme cannot determine an empty slot for n < c the whole data
    structure is invalidated followed by a subsequent reconstruction with a
    distinct hash function."  :meth:`repro.core.table.WarpDriveHashTable
    .insert` raises this; the caller (or the table's ``rebuild_on_failure``
    mode) reacts by rebuilding with a translated hash function.
    """


class CuckooEvictionError(CapacityError):
    """A cuckoo-hashing eviction chain exceeded its iteration budget."""


class AllocationError(CapacityError):
    """A device memory allocation request exceeded available VRAM."""


class TopologyError(ReproError):
    """A communication plan references links absent from the node topology."""


class ScheduleError(ReproError):
    """The pipeline scheduler was given an inconsistent stage graph."""


class DeviceError(ReproError):
    """A kernel or memory operation targeted an invalid device state."""


class ExecutionError(ReproError):
    """The shard-execution engine failed (backend misuse, worker crash)."""

