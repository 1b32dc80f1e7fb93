"""``repro.service`` — the async batch simulation service.

Everything the reproduction can do from the CLI — timing simulation
(``run``), differential fault-injection campaigns (``inject``), static
resilience verification (``lint``) — is a pure function of the job spec
and the simulator source tree. This package turns those one-shot
invocations into a long-lived, multi-tenant batch service on one host:

* :mod:`repro.service.jobs` — typed job specs with canonical argv and
  content-addressed dedup keys (source digest + frozen spec, the same
  identity discipline as the artifact cache);
* :mod:`repro.service.scheduler` — bounded priority queue with
  per-client round-robin fairness and explicit backpressure;
* :mod:`repro.service.metrics` — counters and latency histograms
  behind ``/metrics``;
* :mod:`repro.service.journal` — crash-safe JSONL event journal plus a
  content-addressed result store, so a restarted server re-adopts
  interrupted jobs and serves repeat submissions from cache;
* :mod:`repro.service.worker` — the supervised
  ``ProcessPoolExecutor`` pool whose workers execute jobs by invoking
  the real CLI entry point (results are byte-identical to direct
  invocations by construction);
* :mod:`repro.service.server` — the asyncio HTTP/JSON server
  (``repro serve``): dispatch, per-job timeout, bounded retry with
  exponential backoff, graceful drain on SIGTERM;
* :mod:`repro.service.client` — the stdlib HTTP client behind
  ``repro submit`` / ``repro jobs`` / ``repro result``;
* :mod:`repro.service.transport` — the HTTP/JSON wire format, written
  once for the server and the client;
* :mod:`repro.service.backoff` — the jittered-exponential-backoff
  policy shared by the server's worker-death retry and the client's
  connection retry.

The wire protocol is deliberately plain HTTP/1.1 with JSON bodies over
TCP, implemented on stdlib asyncio streams — no third-party
dependencies anywhere in the package.
"""

from repro.service.jobs import JobSpec, JobState, job_key
from repro.service.scheduler import FairScheduler, QueueFull
from repro.service.metrics import ServiceMetrics

__all__ = [
    "FairScheduler",
    "JobSpec",
    "JobState",
    "QueueFull",
    "ServiceMetrics",
    "job_key",
]
