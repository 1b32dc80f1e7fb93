"""The asyncio job server behind ``repro serve``.

One single-threaded event loop owns all bookkeeping (registry,
scheduler, journal, metrics); only job execution leaves the loop, onto
the supervised process pool. The wire protocol is minimal HTTP/1.1
with JSON bodies, implemented directly on asyncio streams:

========  =======================  =====================================
method    path                     semantics
========  =======================  =====================================
GET       /healthz                 liveness + version/digest handshake
GET       /metrics                 :class:`ServiceMetrics` snapshot
POST      /jobs                    submit ``{kind, spec, client, ...}``
GET       /jobs                    list jobs (``?client=`` filter)
GET       /jobs/<id>               one job's lifecycle record
GET       /jobs/<id>/result        stdout/stderr/exit code when done
POST      /jobs/<id>/cancel        cancel a queued job
POST      /shutdown                begin graceful drain
========  =======================  =====================================

Status codes carry the contract: 429 on backpressure (bounded queue
full), 503 while draining, 409 for results not yet available, 400 for
malformed specs.

Dedup: submissions are keyed by :func:`repro.service.jobs.job_key`
(source digest + canonical spec). A key already queued or running is
**attached** to — both clients poll the same job and the work executes
once. A key with a stored result is served from the result store
without executing at all. ``inject`` jobs additionally get a
key-addressed campaign manifest, so a server killed mid-campaign
resumes from the last checkpointed shard after restart instead of
re-running finished shards.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import math
import os
import signal
import sys
import time
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable
from urllib.parse import parse_qs

from repro.service import transport
from repro.service.backoff import BackoffPolicy
from repro.service.jobs import JobRecord, JobSpec, JobState, job_key
from repro.service.journal import Journal, default_root
from repro.service.metrics import ServiceMetrics
from repro.service.scheduler import FairScheduler, QueueFull
from repro.service.worker import WorkerPool

PROTOCOL_VERSION = 1


class Draining(RuntimeError):
    """Submissions are rejected because the server is shutting down."""


@dataclass
class ServiceConfig:
    host: str = "127.0.0.1"
    port: int = 0
    workers: int = 2
    queue_limit: int = 256
    max_retries: int = 2
    retry_base: float = 0.5
    default_timeout: float | None = None
    journal_dir: str | Path | None = None
    #: Test seam: anything with submit/restart/shutdown/restarts works.
    pool_factory: Callable[[int], WorkerPool] = WorkerPool
    install_signal_handlers: bool = True


def _check_timeout(timeout: Any) -> float | None:
    """A submission's per-job timeout: None, or finite seconds > 0.

    Anything else would reach ``asyncio.wait_for`` and either kill the
    job's task (leaving it ``running`` forever, and its dedup key with
    it) or time out at once and restart the whole pool.
    """
    if timeout is None:
        return None
    if (
        isinstance(timeout, bool)
        or not isinstance(timeout, (int, float))
        or not 0 < timeout < math.inf
    ):
        raise ValueError(
            f"timeout must be a positive number of seconds, got {timeout!r}"
        )
    return timeout


def _id_number(jid: str) -> int:
    """The sequence number of a job id such as ``j000042``; 0 for an id
    of any other form."""
    digits = jid.lstrip("j")
    return int(digits) if digits.isdecimal() else 0


class JobService:
    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config or ServiceConfig()
        self.journal = Journal(self.config.journal_dir or default_root())
        self._retry_policy = BackoffPolicy(
            base=self.config.retry_base, factor=2.0, cap=30.0, jitter=0.25
        )
        self.metrics = ServiceMetrics()
        self.scheduler = FairScheduler(self.config.queue_limit)
        self.jobs: dict[str, JobRecord] = {}
        self._active: dict[str, JobRecord] = {}  # key -> queued/running job
        self._done_by_key: dict[str, str] = {}  # key -> job id (DONE only)
        self._seq = 0
        self.in_flight = 0
        self.draining = False
        self.pool: WorkerPool | None = None
        self._server: asyncio.base_events.Server | None = None
        self._wake = asyncio.Event()
        self._stopped = asyncio.Event()
        self._tasks: set[asyncio.Task] = set()
        self._dispatcher: asyncio.Task | None = None

    # -- lifecycle ---------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        assert self._server is not None and self._server.sockets
        sock = self._server.sockets[0].getsockname()
        return sock[0], sock[1]

    async def start(self) -> None:
        self._claim_endpoint()
        self._readopt(self.journal.replay())
        skipped = len(self.journal.skipped)
        if skipped:
            self.metrics.inc("replay_skipped", skipped)
            print(
                f"repro serve: journal replay skipped {skipped} event(s) "
                "this build cannot apply; compaction keeps them",
                file=sys.stderr,
                flush=True,
            )
        self.pool = self.config.pool_factory(self.config.workers)
        self._server = await asyncio.start_server(
            self._handle_conn, self.config.host, self.config.port
        )
        host, port = self.address
        self.journal.write_endpoint(host, port)
        if self.config.install_signal_handlers:
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGTERM, signal.SIGINT):
                with contextlib.suppress(NotImplementedError, ValueError):
                    loop.add_signal_handler(sig, self.begin_drain)
        self._dispatcher = asyncio.create_task(self._dispatch_loop())
        self._wake.set()

    async def serve_forever(self) -> None:
        await self.start()
        await self._stopped.wait()
        await self._shutdown()

    def _claim_endpoint(self) -> None:
        """Take over the journal's discovery file — unless it's live.

        A server that crashed (kill -9) leaves ``endpoint`` behind; a
        successor detects the recorded PID is dead and replaces the
        stale file instead of refusing to start. Only a *provably live*
        foreign server blocks the claim.
        """
        status = self.journal.endpoint_status()
        if status == "absent":
            return
        pid = self.journal.read_endpoint_pid()
        if status == "live" and pid is not None and pid != os.getpid():
            endpoint = self.journal.read_endpoint()
            raise RuntimeError(
                f"journal {self.journal.root} is already served by "
                f"pid {pid} at {endpoint[0]}:{endpoint[1]}"  # type: ignore[index]
            )
        # stale (dead pid), unknown (pre-PID generation file), or our
        # own pid (in-process restart): replace it.
        self.journal.clear_endpoint()
        self.metrics.inc("stale_endpoint_replaced")

    def _readopt(self, replayed: dict[str, JobRecord]) -> None:
        """Re-adopt journaled jobs after a restart (or a crash).

        Terminal jobs are kept for listing and dedup; interrupted jobs
        (queued or running at crash time) are re-queued with a freshly
        computed key — if the source tree changed in between, the new
        key points at a new manifest/result slot, so stale partial work
        can never leak into the rerun.
        """
        # Ids named only by skipped events stay taken: compaction writes
        # those events back after the jobs' submits, so a new job reusing
        # one would take on the old job's state and key at the next replay.
        for jid in self.journal.skipped_ids:
            self._seq = max(self._seq, _id_number(jid))
        for jid in sorted(replayed):
            job = replayed[jid]
            self.jobs[jid] = job
            self._seq = max(self._seq, _id_number(jid))
            if job.state.terminal:
                if (
                    job.state is JobState.DONE
                    and self.journal.load_result(job.key) is not None
                ):
                    self._done_by_key.setdefault(job.key, jid)
                continue
            job.key = job_key(job.spec)
            job.state = JobState.QUEUED
            job.started_at = None
            job.finished_at = None
            if job.key not in self._active:
                try:
                    self.scheduler.push(job)
                except QueueFull:
                    job.state = JobState.FAILED
                    job.error = "queue full during re-adoption"
                    self.journal.record_state(job)
                    continue
                self._active[job.key] = job
                self.metrics.inc("readopted")
                self.journal.record_state(job)
            else:
                # Two interrupted jobs with one key: the second becomes
                # an alias of the first (normal in-flight dedup).
                alias = self._active[job.key]
                for client in job.clients:
                    if client not in alias.clients:
                        alias.clients.append(client)
                job.state = JobState.CANCELLED
                job.error = f"duplicate of {alias.id} after re-adoption"
                self.journal.record_state(job)

    def begin_drain(self) -> None:
        """Stop accepting work; finish queued + running jobs; then exit."""
        if not self.draining:
            self.draining = True
            self._wake.set()

    async def _shutdown(self) -> None:
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._dispatcher
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self.pool is not None:
            self.pool.shutdown(wait=False)
        self.journal.compact(self.jobs)
        self.journal.clear_endpoint()
        self.journal.close()

    # -- submission / registry --------------------------------------------

    def submit(
        self,
        kind: str,
        params: dict[str, Any] | None,
        client: str = "anonymous",
        priority: int = 10,
        timeout: float | None = None,
    ) -> tuple[JobRecord, bool]:
        """Register one job; returns ``(job, deduped)``.

        Raises ValueError (bad spec or timeout), QueueFull
        (backpressure), or Draining (shutdown in progress).
        """
        if self.draining:
            raise Draining("server is draining; not accepting jobs")
        timeout = _check_timeout(timeout)
        spec = JobSpec.create(kind, params)
        key = job_key(spec)
        self.metrics.inc("submitted")

        active = self._active.get(key)
        if active is not None:
            if client not in active.clients:
                active.clients.append(client)
            self.metrics.inc("deduped_in_flight")
            return active, True

        done_id = self._done_by_key.get(key)
        if done_id is not None:
            self.metrics.inc("deduped_cached")
            return self.jobs[done_id], True

        cached = self.journal.load_result(key)
        if cached is not None:
            job = self._new_job(spec, key, client, priority, timeout)
            job.state = JobState.DONE
            job.exit_code = cached.get("exit_code")
            job.finished_at = job.submitted_at
            self.jobs[job.id] = job
            self._done_by_key[key] = job.id
            self.journal.record_submit(job)
            self.metrics.inc("deduped_cached")
            return job, True

        job = self._new_job(spec, key, client, priority, timeout)
        self.scheduler.push(job)  # QueueFull propagates before any record
        self.jobs[job.id] = job
        self._active[key] = job
        self.journal.record_submit(job)
        self.metrics.inc("accepted")
        self._wake.set()
        return job, False

    def _new_job(
        self,
        spec: JobSpec,
        key: str,
        client: str,
        priority: int,
        timeout: float | None,
    ) -> JobRecord:
        self._seq += 1
        return JobRecord(
            id=f"j{self._seq:06d}",
            spec=spec,
            key=key,
            client=client,
            priority=priority,
            timeout=timeout if timeout is not None else self.config.default_timeout,
        )

    def cancel(self, job: JobRecord) -> bool:
        """Cancel a queued job. Running/terminal jobs are not touched."""
        if job.state is not JobState.QUEUED:
            return False
        job.state = JobState.CANCELLED
        job.finished_at = time.time()
        self.scheduler.discard(job)
        if self._active.get(job.key) is job:
            del self._active[job.key]
        self.metrics.inc("cancelled")
        self.journal.record_state(job)
        self._wake.set()
        return True

    # -- dispatch / execution ---------------------------------------------

    async def _dispatch_loop(self) -> None:
        while True:
            await self._wake.wait()
            self._wake.clear()
            while self.in_flight < self.config.workers:
                job = self.scheduler.pop()
                if job is None:
                    break
                # Count the slot *now*: the task body runs only on a
                # later event-loop tick, and this loop must not hand out
                # more slots than the pool has workers in the meantime.
                self.in_flight += 1
                task = asyncio.create_task(self._run_job(job))
                self._tasks.add(task)
                task.add_done_callback(self._tasks.discard)
            if (
                self.draining
                and self.scheduler.depth == 0
                and self.in_flight == 0
            ):
                self._stopped.set()
                return

    def _ensure_pool(self) -> WorkerPool:
        """Restart the pool if a worker death left it broken."""
        assert self.pool is not None
        inner = getattr(self.pool, "_pool", None)
        if inner is not None and getattr(inner, "_broken", False):
            self.pool.restart()
            self.metrics.inc("worker_restarts")
        return self.pool

    def _service_argv(self, job: JobRecord) -> list[str]:
        """The job's canonical argv plus service-side plumbing.

        ``inject`` jobs get a key-addressed manifest (always with
        ``--resume``, a no-op on first execution) and a key-addressed
        aggregate export. Neither flag changes stdout, so parity with
        the bare CLI invocation is preserved.
        """
        argv = job.spec.to_argv()
        if job.spec.kind == "inject":
            argv += [
                "--manifest", str(self.journal.manifest_path(job.key)),
                "--resume",
                "--export", str(self.journal.export_path(job.key)),
            ]
        return argv

    async def _run_job(self, job: JobRecord) -> None:
        # in_flight was incremented by the dispatcher when this slot
        # was claimed; this task only releases it.
        try:
            await self._run_job_attempts(job)
        finally:
            self.in_flight -= 1
            if self._active.get(job.key) is job and job.state.terminal:
                del self._active[job.key]
            self._wake.set()

    async def _run_job_attempts(self, job: JobRecord) -> None:
        argv = self._service_argv(job)
        while True:
            job.state = JobState.RUNNING
            job.started_at = time.time()
            job.attempts += 1
            self.journal.record_state(job)
            self.metrics.queue_wait.observe(job.started_at - job.submitted_at)
            pool = self._ensure_pool()
            start = time.monotonic()
            try:
                result = await asyncio.wait_for(
                    asyncio.wrap_future(pool.submit(argv)),
                    timeout=job.timeout,
                )
            except asyncio.TimeoutError:
                # The worker is mid-execution and cannot be cancelled
                # cooperatively; reclaim it the hard way. Deterministic
                # work would only time out again, so no retry.
                assert self.pool is not None
                self.pool.restart()
                self.metrics.inc("worker_restarts")
                job.state = JobState.TIMEOUT
                job.finished_at = time.time()
                job.error = f"exceeded {job.timeout:.1f}s timeout"
                self.metrics.inc("timeout")
                self.journal.record_state(job)
                return
            except (BrokenExecutor, OSError, EOFError) as exc:
                # Transient worker death (OOM kill, segfault, or a
                # sibling timeout restart): bounded retry with
                # exponential backoff.
                if job.attempts <= self.config.max_retries:
                    self.metrics.inc("retries")
                    await asyncio.sleep(self._retry_policy.delay(job.attempts))
                    continue
                job.state = JobState.FAILED
                job.finished_at = time.time()
                job.error = (
                    f"worker died {job.attempts} time(s); giving up: {exc}"
                )
                self.metrics.inc("failed")
                self.journal.record_state(job)
                return
            duration = time.monotonic() - start
            job.exit_code = result["exit_code"]
            job.state = JobState.DONE
            job.finished_at = time.time()
            # Result first, then the state event: a crash in between
            # re-adopts the job, whose rerun is a pure cache hit.
            self.journal.store_result(
                job.key,
                {
                    "key": job.key,
                    "job_id": job.id,
                    "kind": job.spec.kind,
                    "spec": job.spec.as_dict(),
                    "exit_code": result["exit_code"],
                    "stdout": result["stdout"],
                    "stderr": result["stderr"],
                    "duration_s": round(duration, 6),
                },
            )
            self._done_by_key[job.key] = job.id
            self.journal.record_state(job)
            self.metrics.inc("completed")
            self.metrics.observe_exec(job.spec.kind, duration)
            return

    # -- HTTP --------------------------------------------------------------

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                method, path, body = await asyncio.wait_for(
                    transport.read_request(reader), timeout=30.0
                )
            except (asyncio.TimeoutError, ValueError, asyncio.IncompleteReadError):
                await transport.respond(
                    writer, 400, {"error": "malformed request"}
                )
                return
            status, payload = self._route(method, path, body)
            await transport.respond(writer, status, payload)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            with contextlib.suppress(Exception):
                writer.close()

    def _route(self, method: str, path: str, body: bytes) -> tuple[int, dict]:
        path, _, query = path.partition("?")
        parts = [p for p in path.split("/") if p]
        if method == "GET" and path == "/healthz":
            return 200, self._healthz()
        if method == "GET" and path == "/metrics":
            self.metrics.counters["worker_restarts"] = (
                self.pool.restarts if self.pool is not None else 0
            )
            return 200, self.metrics.snapshot(
                queue_depth=self.scheduler.depth,
                in_flight=self.in_flight,
                workers=self.config.workers,
            )
        if method == "POST" and path == "/shutdown":
            self.begin_drain()
            return 200, {"status": "draining"}
        if parts[:1] == ["jobs"]:
            return self._route_jobs(method, parts, query, body)
        return 404, {"error": f"no such endpoint {method} {path}"}

    def _healthz(self) -> dict:
        from repro import __version__
        from repro.harness.artifacts import code_digest

        return {
            "status": "draining" if self.draining else "ok",
            "version": __version__,
            "protocol": PROTOCOL_VERSION,
            "code_digest": code_digest()[:16],
            "jobs": len(self.jobs),
            "queue_depth": self.scheduler.depth,
            "in_flight": self.in_flight,
        }

    def _route_jobs(
        self, method: str, parts: list[str], query: str, body: bytes
    ) -> tuple[int, dict]:
        if method == "POST" and len(parts) == 1:
            return self._http_submit(body)
        if method == "GET" and len(parts) == 1:
            client = parse_qs(query).get("client", [None])[-1]
            jobs = [
                self.jobs[jid].to_dict()
                for jid in sorted(self.jobs)
                if client is None or client in self.jobs[jid].clients
            ]
            return 200, {"jobs": jobs}
        job = self.jobs.get(parts[1]) if len(parts) >= 2 else None
        if job is None:
            return 404, {"error": f"unknown job {parts[1] if len(parts) > 1 else ''!r}"}
        if method == "GET" and len(parts) == 2:
            return 200, {"job": job.to_dict()}
        if method == "GET" and len(parts) == 3 and parts[2] == "result":
            return self._http_result(job)
        if method == "POST" and len(parts) == 3 and parts[2] == "cancel":
            if self.cancel(job):
                return 200, {"job": job.to_dict()}
            return 409, {
                "error": f"job is {job.state.value}; only queued jobs cancel",
                "job": job.to_dict(),
            }
        return 404, {"error": "no such endpoint"}

    def _http_submit(self, body: bytes) -> tuple[int, dict]:
        try:
            payload = json.loads(body.decode() or "{}")
            if not isinstance(payload, dict):
                raise ValueError("body must be a JSON object")
        except (ValueError, UnicodeDecodeError) as exc:
            return 400, {"error": f"bad JSON body: {exc}"}
        try:
            job, deduped = self.submit(
                kind=payload.get("kind", ""),
                params=payload.get("spec") or {},
                client=str(payload.get("client", "anonymous")),
                priority=int(payload.get("priority", 10)),
                timeout=payload.get("timeout"),
            )
        except Draining as exc:
            return 503, {"error": str(exc)}
        except QueueFull as exc:
            self.metrics.inc("rejected_backpressure")
            return 429, {"error": str(exc)}
        except (ValueError, TypeError) as exc:
            return 400, {"error": str(exc)}
        return (200 if deduped else 201), {
            "job": job.to_dict(),
            "deduped": deduped,
        }

    def _http_result(self, job: JobRecord) -> tuple[int, dict]:
        if job.state is JobState.DONE:
            result = self.journal.load_result(job.key)
            if result is None:
                return 500, {
                    "error": "result record missing from store",
                    "job": job.to_dict(),
                }
            return 200, {"job": job.to_dict(), "result": result}
        if job.state.terminal:
            return 200, {
                "job": job.to_dict(),
                "result": {
                    "exit_code": job.exit_code,
                    "stdout": "",
                    "stderr": job.error or "",
                    "state": job.state.value,
                },
            }
        return 409, {
            "error": f"job {job.id} is {job.state.value}",
            "job": job.to_dict(),
        }


def serve(args: Any) -> int:
    """Handler for ``repro serve``: run the service until drained."""
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        workers=max(1, args.workers),
        queue_limit=args.queue_limit,
        max_retries=args.max_retries,
        default_timeout=args.job_timeout,
        journal_dir=args.journal,
    )
    service = JobService(config)

    async def _main() -> None:
        await service.start()
        host, port = service.address
        print(
            f"repro service listening on http://{host}:{port} "
            f"(journal: {service.journal.root}, workers: {config.workers})",
            file=sys.stderr,
            flush=True,
        )
        await service._stopped.wait()
        await service._shutdown()
        print(
            f"repro service drained: {service.metrics.counters['completed']} "
            f"job(s) completed this run",
            file=sys.stderr,
            flush=True,
        )

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass
    except RuntimeError as exc:
        print(f"repro serve: error: {exc}", file=sys.stderr)
        return 1
    return 0
