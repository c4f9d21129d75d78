"""The ``Reportable`` protocol: one serialization contract for reports.

Every report type the library produces — :class:`~repro.core.report.KernelReport`,
:class:`~repro.multigpu.distributed_table.CascadeReport`,
:class:`~repro.pipeline.driver.StreamResult`,
:class:`~repro.exec.metrics.ShardSpan`,
:class:`~repro.memory.transfer.TransferRecord`,
:class:`~repro.bench.distribution.DistributionRecord`,
:class:`~repro.sanitize.racecheck.RacecheckReport`, and the
:mod:`repro.obs` span/metric records themselves — implements this
protocol: a ``to_dict()`` returning a JSON-serializable dict with stable
snake_case keys and a ``schema_version`` field, so benchmark writers,
the fuzz corpus, and the trace exporters all serialize through one path
instead of hand-rolled ``asdict`` calls.
"""

from __future__ import annotations

import enum
import math
from typing import Any, Protocol, runtime_checkable

import numpy as np

__all__ = ["SCHEMA_VERSION", "Reportable", "to_jsonable", "reportable_dict"]

#: version stamped into every ``to_dict()`` payload; bump on any
#: backwards-incompatible field rename or semantic change
SCHEMA_VERSION = 1


@runtime_checkable
class Reportable(Protocol):
    """Anything that can serialize itself into the common report schema.

    ``to_dict()`` must return plain-JSON data (no NumPy scalars, no NaN
    or infinities — use ``None``), keyed by stable snake_case names, and
    include a ``schema_version`` entry equal to the class attribute.
    """

    schema_version: int

    def to_dict(self) -> dict[str, Any]: ...


def to_jsonable(value: Any) -> Any:
    """Recursively coerce ``value`` into plain-JSON data.

    NumPy scalars become Python numbers, arrays become lists, enums
    collapse to their values, nested :class:`Reportable` objects recurse
    through their own ``to_dict()``, and non-finite floats become
    ``None`` (JSON has no NaN; a NaN in a report is a missing value).
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return to_jsonable(float(value))
    if isinstance(value, np.ndarray):
        return [to_jsonable(v) for v in value.tolist()]
    if isinstance(value, enum.Enum):
        return to_jsonable(value.value)
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [to_jsonable(v) for v in value]
    if isinstance(value, Reportable):
        return value.to_dict()
    raise TypeError(f"cannot serialize {type(value).__name__!r} into a report")


def reportable_dict(obj: Any, fields: dict[str, Any]) -> dict[str, Any]:
    """Assemble a ``to_dict()`` payload: schema stamp + coerced fields."""
    out: dict[str, Any] = {
        "schema_version": int(getattr(obj, "schema_version", SCHEMA_VERSION))
    }
    for key, value in fields.items():
        out[key] = to_jsonable(value)
    return out
