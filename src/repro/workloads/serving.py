"""Zipfian serving traffic for the KV front-end (ROADMAP item 1).

The paper's Zipf sampler (:func:`~repro.workloads.distributions
.zipf_keys`) models the *ingest* experiment: ``s > 1`` over an
effectively unbounded rank space.  Serving traffic is the other regime —
"millions of users" hitting a **finite working set**, where the
classical exponent is ``s = 1.0`` (and anything down to ``s = 0``,
i.e. uniform, is a legal skew knob).  Over a finite universe every
``s >= 0`` normalizes, so this module provides the generalized sampler
plus a mixed-op workload builder for the soak/bench harnesses.

The key *values* stay hash-uniform exactly as in the paper: ranks are
mapped through a shuffled :func:`~repro.workloads.distributions
.unique_keys` table, so skew lives in multiplicities only and the
table's partition stays balanced — skewed traffic repeats keys within
a batch, never piles a whole batch onto one shard.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..constants import MAX_KEY
from ..errors import ConfigurationError
from .distributions import random_values, unique_keys

__all__ = [
    "ServingOp",
    "ServingWorkload",
    "serving_zipf_keys",
    "serving_workload",
    "universe_key_map",
]


def serving_zipf_keys(
    n: int,
    s: float = 1.0,
    *,
    universe: int = 4096,
    seed: int = 0,
    map_seed: int | None = None,
) -> np.ndarray:
    """``n`` keys, rank-``k`` drawn ``∝ k^(-s)`` from a finite universe.

    Unlike :func:`~repro.workloads.distributions.zipf_keys` this allows
    the full serving-skew range ``s >= 0`` (``0`` = uniform, ``1.0`` =
    classical Zipf, larger = hotter head) — a finite universe keeps the
    weights normalizable.  ``seed`` varies the draw; ``map_seed``
    (defaulting to ``seed``) pins the rank → key-value map, so a trace
    of many differently-seeded batches still targets one universe.
    """
    if n <= 0:
        raise ConfigurationError(f"n must be > 0, got {n}")
    if s < 0:
        raise ConfigurationError(f"serving skew must be >= 0, got {s}")
    if universe <= 0 or universe > MAX_KEY + 1:
        raise ConfigurationError(f"universe must be in [1, {MAX_KEY + 1}]")
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, universe + 1, dtype=np.float64)
    weights = ranks ** (-s)
    weights /= weights.sum()
    drawn = rng.choice(universe, size=n, p=weights)
    key_map_seed = seed if map_seed is None else map_seed
    return universe_key_map(universe, seed=key_map_seed)[drawn]


def universe_key_map(universe: int, *, seed: int = 0) -> np.ndarray:
    """The rank → key-value table ``serving_zipf_keys`` samples through.

    Exposed so harnesses can prefill a table with exactly the keys the
    traffic will touch.  Note the map depends only on ``(universe,
    seed)`` — per-batch seeds must vary only the *draw*, not the map.
    """
    return unique_keys(universe, seed=seed ^ 0x5EED)


@dataclass(frozen=True)
class ServingOp:
    """One client-sized request: an op plus its key (and value) batch."""

    op: str  #: "insert" | "query" | "erase"
    keys: np.ndarray
    values: np.ndarray | None = None


@dataclass
class ServingWorkload:
    """A prefilled universe plus a mixed-op request stream."""

    universe: int
    s: float
    prefill_keys: np.ndarray
    prefill_values: np.ndarray
    ops: list[ServingOp] = field(default_factory=list)

    @property
    def num_ops(self) -> int:
        return sum(int(op.keys.size) for op in self.ops)


def serving_workload(
    num_batches: int,
    batch_size: int,
    *,
    s: float = 1.0,
    universe: int = 4096,
    mix: tuple[float, float, float] = (0.05, 0.90, 0.05),
    seed: int = 0,
) -> ServingWorkload:
    """Build a Zipf(s) serving trace: prefill + ``num_batches`` requests.

    ``mix`` is the (insert, query, erase) batch-type split.  Inserts
    re-write universe keys with fresh values and erases tombstone them —
    both invalidate cache residents, so a coherence bug shows up as a
    wrong query answer, not just a stale counter.  Every batch draws
    with its own sub-seed; the rank → key map stays fixed.
    """
    if num_batches <= 0:
        raise ConfigurationError(
            f"num_batches must be > 0, got {num_batches}"
        )
    if batch_size <= 0:
        raise ConfigurationError(f"batch_size must be > 0, got {batch_size}")
    if len(mix) != 3 or any(m < 0 for m in mix) or sum(mix) <= 0:
        raise ConfigurationError(
            f"mix must be three non-negative weights, got {mix!r}"
        )
    rng = np.random.default_rng(seed)
    prefill_keys = universe_key_map(universe, seed=seed)
    prefill_values = random_values(universe, seed=seed ^ 0xBEEF)
    weights = np.asarray(mix, dtype=np.float64)
    weights /= weights.sum()
    kinds = rng.choice(3, size=num_batches, p=weights)
    ops: list[ServingOp] = []
    for i, kind in enumerate(kinds):
        batch_seed = seed + 7919 * (i + 1)
        keys = serving_zipf_keys(
            batch_size, s, universe=universe, seed=batch_seed, map_seed=seed
        )
        if kind == 0:
            ops.append(
                ServingOp(
                    "insert",
                    keys,
                    random_values(batch_size, seed=batch_seed ^ 0xF00D),
                )
            )
        elif kind == 1:
            ops.append(ServingOp("query", keys))
        else:
            ops.append(ServingOp("erase", keys))
    return ServingWorkload(
        universe=universe,
        s=s,
        prefill_keys=prefill_keys,
        prefill_values=prefill_values,
        ops=ops,
    )
