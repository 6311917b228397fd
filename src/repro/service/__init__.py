"""Solve-as-a-service: a zero-dependency daemon over the run engine.

The subsystem turns the existing declarative job objects into a wire
surface (stdlib ``http.server``/``http.client`` only — no new deps):

- :class:`~repro.service.daemon.SolveService` — the long-lived daemon.
  ``POST /v1/solve`` accepts a :class:`~repro.api.specs.RunRequest` payload
  (scheduled onto the persistent process pool through the graph scheduler,
  inheriting retries/timeouts/pool recovery/dependency-skip) or a
  :class:`~repro.service.jobs.VectorJob` (a single right-hand side, the
  many-users fast path).  ``GET /v1/stats`` surfaces the service counters;
  ``GET``/``PUT /v1/store/<sid>/<scale>`` is the remote asset-store
  protocol.
- :class:`~repro.service.coalesce.Coalescer` — groups concurrent same-key
  vector jobs into one :func:`~repro.solvers.lockstep.solve_lockstep`
  call (one solver step generator per job, one ``matmat`` per round),
  bounded by the batch window and max batch size, with per-request demux
  and results bit-identical to the per-request serial path.
- :mod:`~repro.service.wire` — CRC-checked framing of v2 store entries for
  hosts that don't share a filesystem.
- :class:`~repro.service.client.ServiceClient` — the client half, reusing
  the ``RunConfig`` retry/backoff/timeout knobs.

Start a daemon with ``python -m repro.experiments serve``; point clients at
it with ``solve --remote host:port`` or ``REPRO_SERVICE_STORE``.
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.coalesce import Coalescer, ServiceCounters
from repro.service.daemon import SolveService
from repro.service.jobs import VectorJob
from repro.service.wire import WireError, pack_entry, unpack_entry

__all__ = [
    "Coalescer",
    "ServiceClient",
    "ServiceCounters",
    "ServiceError",
    "SolveService",
    "VectorJob",
    "WireError",
    "pack_entry",
    "unpack_entry",
]
