"""Unified construction options across the public surface.

Each option has exactly one spelling:

``engine=``
    Shard-execution backend: ``"serial"`` | ``"thread"`` | ``"process"``
    or a ready-made :class:`~repro.exec.engine.ExecutionEngine`.
    Accepted by ``WarpDriveHashTable`` (decides shared-memory slot
    backing), ``DistributedHashTable``, and
    ``PartitionedWarpDriveTable``.
``workers=``
    Pool size for the thread/process engines.
``distribution=``
    Host distribution path: ``"fused"`` | ``"reference"``
    (``DistributedHashTable``).
``kernels=``
    Kernel implementation: ``"fast"`` (vectorized) | ``"ref"``
    (faithful generator kernels) | ``"compiled"`` (JIT inner loops,
    bit-identical to ``"fast"``, auto-falling back when no provider is
    available — :mod:`repro.core.kernels_jit`) on the bulk methods of
    ``WarpDriveHashTable``, ``CountingHashTable``, and
    ``MultiValueHashTable`` (the latter two are fast-only); as a
    constructor option (``"fast"`` | ``"compiled"``) on
    ``DistributedHashTable`` and ``PartitionedWarpDriveTable``, where
    it selects the shard-kernel backend that execution engines resolve
    per worker process.
``measure=``
    Attach measured wall-clock timelines (``AsyncCascadeDriver``).
``depth=``
    In-flight batch depth of the streaming pipeline
    (``AsyncCascadeDriver``): ``1`` runs cascades to completion one at
    a time; ``>= 2`` stages the next wave on a stager thread into a
    ying/yang staging arena while the current wave commits
    (:mod:`repro.pipeline.staging`), bit-identical at any depth.
``staging_budget=``
    Byte ceiling for staged-but-uncommitted pipeline cascades — the
    backpressure bound of the ``depth >= 2`` path
    (``AsyncCascadeDriver``; ``None`` budgets half the free modelled
    VRAM at stream start).
``pace=``
    Device-occupancy pacing for overlap experiments
    (``AsyncCascadeDriver``): ``"none"`` | ``"modelled"``, where
    modelled pacing sleeps out each committed cascade's modelled kernel
    seconds at every depth so measured makespans isolate the overlap
    win (``docs/streaming_pipeline.md``).
``probing=``
    Window-walk policy: ``"window"`` (the paper's hybrid) |
    ``"double"`` | ``"linear"`` (:mod:`repro.core.probing`).
``layout=``
    Slot storage policy: ``"aos"`` (packed) | ``"soa"`` (split
    key/value planes) | ``"compact"`` (quotiented sub-8-byte records,
    bit-identical results at a narrower modelled footprint;
    :mod:`repro.core.store`, ``docs/compact_layout.md``).
``growth=``
    A :class:`~repro.core.growth.GrowthPolicy`: resize-and-rehash
    instead of failing when an ingest would exceed the load ceiling
    (accepted wherever ``probing=``/``layout=`` are).
``topology=``
    Interconnect model the cascade prices traffic against: a
    :class:`~repro.multigpu.topology.Topology` instance, a
    :class:`~repro.multigpu.topology.TopologySpec`, or a spec string
    (``"p100"``, ``"pcie:8"``, ``"dgx1v"``, ``"cluster:2x4"`` — see
    ``docs/topology.md``).  Accepted by ``DistributedHashTable``,
    ``AsyncCascadeDriver``, ``KVServer.create``, the bench suites, and
    the CLI's ``--topology``; resolved by the
    :func:`~repro.multigpu.topology.topology` factory.
"""

from __future__ import annotations

from typing import Any

__all__ = ["UNSET"]


class _Unset:
    """Sentinel distinguishing 'not passed' from any real value."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<unset>"


UNSET: Any = _Unset()
