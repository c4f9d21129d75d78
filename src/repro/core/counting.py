"""Counting hash table: key → occurrence count with add semantics.

The practical answer to the multi-value hot-key cost quantified in bench
A8: counting workloads (k-mer indexing [4,5], bag-of-words [1], patch
deduplication) should *aggregate into the value* instead of storing
duplicates.  On a real GPU this is ``atomicAdd`` on the value half of
the packed pair; here a batch pre-aggregates duplicate keys (the
moral equivalent of warp-aggregated counting [23]) and then performs one
update per distinct key.

Counts saturate at the 32-bit value limit instead of wrapping.
"""

from __future__ import annotations

import numpy as np

from ..constants import MAX_VALUE
from ..errors import ConfigurationError
from ..options import UNSET
from ..simt.device import Device
from ..utils.validation import check_keys
from .report import KernelReport
from .table import WarpDriveHashTable

__all__ = ["CountingHashTable"]


class CountingHashTable:
    """A multiset of keys backed by a WarpDrive table.

    Parameters mirror :class:`WarpDriveHashTable` — including the
    unified option vocabulary (``engine=``, ``probing=``, ``layout=``,
    ``growth=``; :mod:`repro.options`), all forwarded to the backing
    table.  The stored value is the saturating occurrence count.
    """

    def __init__(
        self,
        capacity: int,
        *,
        group_size: int = 4,
        p_max: int | None = None,
        device: Device | None = None,
        engine: object = None,
        probing: str = UNSET,
        layout: str = UNSET,
        growth=UNSET,
    ):
        kwargs = {"group_size": group_size, "engine": engine}
        if p_max is not None:
            kwargs["p_max"] = p_max
        for opt, val in (("probing", probing), ("layout", layout),
                         ("growth", growth)):
            if val is not UNSET:
                kwargs[opt] = val
        self.table = WarpDriveHashTable(capacity, device=device, **kwargs)
        self.last_report: KernelReport | None = None

    @classmethod
    def for_load_factor(cls, num_keys: int, load_factor: float, **kwargs):
        if not 0 < load_factor <= 1:
            raise ConfigurationError(f"load factor must be in (0, 1], got {load_factor}")
        capacity = max(int(np.ceil(num_keys / load_factor)), 1)
        return cls(capacity, **kwargs)

    def __len__(self) -> int:
        """Number of distinct keys."""
        return len(self.table)

    @property
    def capacity(self) -> int:
        return self.table.capacity

    def total(self) -> int:
        """Sum of all counts (total observations, absent saturation)."""
        _, values = self.table.export()
        return int(values.astype(np.uint64).sum())

    def add(
        self,
        keys: np.ndarray,
        amounts: np.ndarray | int = 1,
        *,
        kernels: str = "fast",
    ) -> KernelReport:
        """Count occurrences: ``table[key] += amount`` per observation.

        Duplicate keys inside one batch pre-aggregate before touching the
        table — one update per distinct key, like a warp-aggregated
        ``atomicAdd`` — so hot keys cost O(1) table traffic instead of
        the multi-value table's O(M²/|g|) walk.  ``kernels=`` picks the
        backing table's kernel implementation (``"fast"``/``"ref"``).
        """
        k = check_keys(keys)
        if np.isscalar(amounts):
            weights = np.full(k.shape[0], int(amounts), dtype=np.int64)
        else:
            weights = np.asarray(amounts, dtype=np.int64)
            if weights.shape != k.shape:
                raise ConfigurationError("amounts must match keys in length")
        if np.any(weights < 0):
            raise ConfigurationError("amounts must be non-negative")

        uniq, inverse = np.unique(k, return_inverse=True)
        sums = np.bincount(inverse, weights=weights.astype(np.float64))
        sums = sums.astype(np.uint64)

        current, _ = self.table.query(uniq, default=0, kernels=kernels)
        new = np.minimum(
            current.astype(np.uint64) + sums, np.uint64(MAX_VALUE)
        ).astype(np.uint32)
        report = self.table.insert(uniq, new, kernels=kernels)
        self.last_report = report
        return report

    def count(
        self, keys: np.ndarray, *, kernels: str = "fast"
    ) -> np.ndarray:
        """Occurrence count per key (0 for unseen keys)."""
        values, found = self.table.query(
            check_keys(keys), default=0, kernels=kernels
        )
        values = values.copy()
        values[~found] = 0
        return values.astype(np.int64)

    def most_common(self, n: int = 10) -> list[tuple[int, int]]:
        """The ``n`` hottest (key, count) pairs, Counter-style."""
        if n < 0:
            raise ConfigurationError(f"n must be >= 0, got {n}")
        keys, values = self.table.export()
        order = np.argsort(values)[::-1][:n]
        return [(int(keys[i]), int(values[i])) for i in order]

    def remove(self, keys: np.ndarray) -> np.ndarray:
        """Drop keys entirely (all their counts); returns removed-mask."""
        return self.table.erase(check_keys(keys))
