"""Bounded priority queue with per-client round-robin fairness.

Scheduling discipline, in order:

1. **priority** — lower number runs first (default 10); a client may
   mark interactive work urgent without starving the batch tier, which
   simply waits until the urgent bucket is empty;
2. **per-client fairness** — within one priority bucket, clients are
   served round-robin: a tenant that enqueues 500 jobs cannot starve a
   tenant that enqueues 2, who will be interleaved 1:1 while both have
   work;
3. **FIFO** — within one (priority, client) lane, submission order.

Capacity is bounded: :meth:`FairScheduler.push` raises
:class:`QueueFull` once ``limit`` jobs are queued, which the server
surfaces as HTTP 429 — explicit backpressure instead of unbounded
memory growth.

The scheduler is synchronous and lock-free by design; the asyncio
server is single-threaded, so all mutation happens on the event loop.
Cancellation is lazy: cancelled jobs stay in their lane and are
discarded at :meth:`pop` time (their state is no longer ``QUEUED``).
"""

from __future__ import annotations

from collections import deque

from repro.service.jobs import JobRecord, JobState


class QueueFull(RuntimeError):
    """The bounded queue rejected a submission (backpressure)."""


class FairScheduler:
    def __init__(self, limit: int = 256) -> None:
        if limit < 1:
            raise ValueError("queue limit must be >= 1")
        self.limit = limit
        # priority -> client -> FIFO lane of queued jobs
        self._lanes: dict[int, dict[str, deque[JobRecord]]] = {}
        # priority -> round-robin order over clients with pending work
        self._rr: dict[int, deque[str]] = {}
        self._depth = 0

    @property
    def depth(self) -> int:
        """Number of genuinely queued (non-cancelled) jobs."""
        return self._depth

    def push(self, job: JobRecord) -> None:
        if self._depth >= self.limit:
            raise QueueFull(
                f"queue limit reached ({self.limit} jobs); retry later"
            )
        lanes = self._lanes.setdefault(job.priority, {})
        lane = lanes.get(job.client)
        if lane is None:
            lane = lanes[job.client] = deque()
            self._rr.setdefault(job.priority, deque()).append(job.client)
        lane.append(job)
        self._depth += 1

    def pop(self) -> JobRecord | None:
        """Next runnable job, or None when the queue is empty."""
        for priority in sorted(self._lanes):
            job = self._pop_bucket(priority)
            if job is not None:
                return job
        return None

    def _pop_bucket(self, priority: int) -> JobRecord | None:
        lanes = self._lanes.get(priority)
        rr = self._rr.get(priority)
        if not lanes or not rr:
            return None
        # Each iteration either returns a job or removes a drained
        # client from the bucket, so the loop terminates.
        while rr:
            client = rr[0]
            lane = lanes.get(client)
            job = None
            while lane:
                candidate = lane.popleft()
                if candidate.state is JobState.QUEUED:
                    job = candidate
                    break
                # Jobs cancelled while queued are discarded lazily here;
                # discard() already adjusted the depth.
            if job is not None:
                if lane:
                    rr.rotate(-1)
                else:
                    rr.popleft()
                    lanes.pop(client, None)
                if not lanes:
                    self._lanes.pop(priority, None)
                    self._rr.pop(priority, None)
                self._depth -= 1
                return job
            rr.popleft()
            lanes.pop(client, None)
        self._lanes.pop(priority, None)
        self._rr.pop(priority, None)
        return None

    def discard(self, job: JobRecord) -> None:
        """Account for a queued job cancelled out-of-band.

        The entry itself is removed lazily by :meth:`pop`; only the
        depth (which backpressure and metrics read) updates eagerly.
        """
        if self._depth > 0:
            self._depth -= 1
