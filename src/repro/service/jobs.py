"""The service's single-RHS job object — the coalescable unit of work.

A :class:`VectorJob` is what a tenant actually sends when they have *one*
right-hand side for a suite matrix: far lighter than a full
:class:`~repro.api.specs.RunRequest` (no platform grid, no timing model —
just "solve ``A x = b`` on this platform and give me ``x``").  Concurrent
jobs agreeing on :meth:`VectorJob.batch_key` — ``(sid, scale, solver,
platform, criterion)`` — are what the coalescer merges into one
:func:`~repro.solvers.lockstep.solve_lockstep` batch: one ``matmat`` per
round over the jobs' solver step generators.

Like the other job objects it is a frozen dataclass of primitives with a
lossless JSON round-trip (JSON serialises float64 via ``repr``, which
round-trips bit-exactly), so the RHS a client sends is the RHS the solver
sees.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from typing import Any, Dict, Optional, Tuple

from repro.api.config import (
    check_criterion as _check_criterion,
    parse_payload,
    tag_payload,
)
from repro.api.specs import _check_scale
from repro.solvers.base import ConvergenceCriterion

__all__ = ["VectorJob"]

_JSON_TYPE = "VectorJob"
_JSON_VERSION = 1


@dataclass(frozen=True)
class VectorJob:
    """One right-hand side against one platform of one suite matrix.

    ``rhs`` of ``None`` means the suite's paper RHS (``A @ 1``) — useful
    for smoke traffic; real tenants send their own vector.  ``criterion``
    of ``None`` defers to the daemon's active config, and the *resolved*
    criterion is part of the batch key, so jobs only coalesce when they
    genuinely stop under the same rule.
    """

    sid: int
    scale: str
    solver: str = "cg"
    platform: str = "refloat"
    criterion: Optional[ConvergenceCriterion] = None
    rhs: Optional[Tuple[float, ...]] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "sid", int(self.sid))
        _check_scale(self.scale, required=True)
        if not self.solver:
            raise ValueError("solver must be non-empty")
        if not self.platform:
            raise ValueError("platform must be non-empty")
        object.__setattr__(self, "criterion",
                           _check_criterion(self.criterion))
        if self.rhs is not None:
            object.__setattr__(self, "rhs",
                               tuple(float(v) for v in self.rhs))
            if not self.rhs:
                raise ValueError("rhs must be non-empty (or None for the "
                                 "suite RHS)")

    def replace(self, **changes: Any) -> "VectorJob":
        return replace(self, **changes)

    def batch_key(self, criterion: ConvergenceCriterion) -> str:
        """The coalescing identity: jobs with equal keys share one batch.

        ``criterion`` is the job's criterion *resolved* against the
        daemon's config — two jobs deferring to the default and one
        spelling it out all land in the same batch.
        """
        return json.dumps({"sid": self.sid, "scale": self.scale,
                           "solver": self.solver, "platform": self.platform,
                           "criterion": asdict(criterion)},
                          sort_keys=True)

    def to_dict(self) -> Dict[str, Any]:
        return tag_payload(asdict(self), _JSON_TYPE, _JSON_VERSION)

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "VectorJob":
        return cls(**parse_payload(data, _JSON_TYPE, _JSON_VERSION))

    @classmethod
    def from_json(cls, text: str) -> "VectorJob":
        return cls.from_dict(json.loads(text))
