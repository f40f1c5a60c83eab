"""``repro-serve`` — a resilient, long-lived analysis query server.

The batch pipeline answers one report invocation; this package answers
a *stream* of experiment/query requests against one hot dataset, with
resilience as the design axis:

- :mod:`repro.serve.protocol` — the JSON request/response wire format
  and its typed outcomes (``ok`` / ``shed`` / ``deadline_exceeded`` /
  ``breaker_open`` / ...);
- :mod:`repro.serve.admission` — the bounded two-lane admission queue
  (interactive before batch) whose only overload behavior is an
  immediate typed rejection with a retry-after hint;
- :mod:`repro.serve.breaker` — per-experiment circuit breakers
  (consecutive failures trip them, half-open probes close them);
- :mod:`repro.serve.workers` — the jobs a query worker runs, with
  per-request deadlines (:mod:`repro.util.deadline`), on the supervised
  worker slots of :mod:`repro.util.workers` (crash isolation and
  automatic replacement);
- :mod:`repro.serve.resultcache` — the content-addressed result cache
  (memory LRU + optional disk tier) that turns repeated deterministic
  queries into lookups;
- :mod:`repro.serve.server` — the HTTP daemon tying those together,
  with ``/healthz``, ``/readyz``, ``/admin/cache``, single-flight
  request coalescing, batch folding, graceful SIGTERM drain, journaled
  lifecycle events, and per-request obs spans;
- :mod:`repro.serve.replay` — the ``repro-replay`` load client: fires
  timestamped request CSVs at the server, arms chaos plans against it,
  and writes the ``BENCH_serve.json`` latency/saturation record.
"""

from .admission import AdmissionQueue, Ticket
from .breaker import BreakerBoard, CircuitBreaker
from .protocol import (
    CACHE_STATES,
    OUTCOMES,
    PROTOCOL_SCHEMA,
    ProtocolError,
    ServeRequest,
    ServeResponse,
)
from .resultcache import ResultCache, result_key
from .server import ReproServer, ServeConfig

__all__ = [
    "AdmissionQueue",
    "BreakerBoard",
    "CACHE_STATES",
    "CircuitBreaker",
    "OUTCOMES",
    "PROTOCOL_SCHEMA",
    "ProtocolError",
    "ReproServer",
    "ResultCache",
    "ServeConfig",
    "ServeRequest",
    "ServeResponse",
    "Ticket",
    "result_key",
]
