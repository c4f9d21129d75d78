"""Zipfian serving traffic for the KV front-end (ROADMAP item 1).

The paper's Zipf sampler (:func:`~repro.workloads.distributions
.zipf_keys`) models the *ingest* experiment: ``s > 1`` over an
effectively unbounded rank space.  Serving traffic is the other regime —
"millions of users" hitting a **finite working set**, where the
classical exponent is ``s = 1.0`` (and anything down to ``s = 0``,
i.e. uniform, is a legal skew knob).  Over a finite universe every
``s >= 0`` normalizes, so this module provides the generalized sampler
and the rank → key map a harness prefills with.

The key *values* stay hash-uniform exactly as in the paper: ranks are
mapped through a shuffled :func:`~repro.workloads.distributions
.unique_keys` table, so skew lives in multiplicities only and the
table's partition stays balanced — skewed traffic repeats keys within
a batch, never piles a whole batch onto one shard.
"""

from __future__ import annotations

import numpy as np

from ..constants import MAX_KEY
from ..errors import ConfigurationError
from .distributions import unique_keys

__all__ = [
    "serving_zipf_keys",
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
