"""Stdlib HTTP client for the job service, plus the client-side CLI.

Endpoint resolution, in order: ``--endpoint host:port`` flag,
``REPRO_SERVICE`` environment variable, then the ``endpoint`` discovery
file a running server writes into its journal directory (so on one
machine ``repro submit`` finds ``repro serve`` with zero
configuration).

Every client call starts with a ``/healthz`` handshake that compares
the client's ``repro.__version__`` and source digest against the
server's; mismatches warn on stderr (the dedup keys already embed the
digest, so a digest mismatch means cache misses, not wrong results).
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Any
from urllib.parse import urlencode

from repro.service import transport
from repro.service.backoff import BackoffPolicy
from repro.service.jobs import params_from_args
from repro.service.journal import Journal, default_root

ENV_ENDPOINT = "REPRO_SERVICE"

#: Client-side retry: a couple of quick attempts against transient
#: connection resets (server mid-restart, listen backlog hiccup), then
#: give up with a diagnosable error.
RETRY_POLICY = BackoffPolicy(
    base=0.1, factor=2.0, cap=1.0, jitter=0.25, max_attempts=3, deadline=5.0
)


class ServiceError(RuntimeError):
    """An HTTP call to the service failed (includes the status code)."""

    def __init__(self, status: int, payload: dict[str, Any]) -> None:
        self.status = status
        self.payload = payload
        super().__init__(payload.get("error", f"HTTP {status}"))


class StaleEndpointError(ConnectionError):
    """The discovery file points at a server that is provably dead."""


def resolve_endpoint(
    endpoint: str | None = None, journal_dir: str | None = None
) -> tuple[str, int]:
    spec = endpoint or os.environ.get(ENV_ENDPOINT)
    if spec:
        return transport.parse_endpoint(spec)
    journal = Journal(journal_dir) if journal_dir else Journal(default_root())
    found = journal.read_endpoint()
    if found is None:
        raise ValueError(
            "no service endpoint: pass --endpoint host:port, set "
            f"{ENV_ENDPOINT}, or start `repro serve` (no endpoint file in "
            f"{journal.root})"
        )
    if journal.endpoint_status() == "stale":
        raise StaleEndpointError(
            f"stale endpoint: {journal.endpoint_path} points at "
            f"{found[0]}:{found[1]} but the recorded server "
            f"(pid {journal.read_endpoint_pid()}) is dead; restart "
            "`repro serve` or remove the file"
        )
    return found


class ServiceClient:
    def __init__(
        self,
        endpoint: str | None = None,
        journal_dir: str | None = None,
        client_name: str | None = None,
        timeout: float = 30.0,
    ) -> None:
        # Remember whether the address came from the discovery file: if
        # so, a dead connection can be *re-resolved* (the server may
        # have restarted on a fresh port) or diagnosed as stale.
        self._discovered = not (endpoint or os.environ.get(ENV_ENDPOINT))
        self._journal_dir = journal_dir
        self.host, self.port = resolve_endpoint(endpoint, journal_dir)
        self.client_name = client_name or f"{os.uname().nodename}:{os.getpid()}"
        self.timeout = timeout

    # -- transport ---------------------------------------------------------

    def request(
        self, method: str, path: str, payload: dict[str, Any] | None = None
    ) -> dict[str, Any]:
        try:
            status, decoded = transport.call(
                self.host, self.port, method, path, payload,
                timeout=self.timeout, policy=RETRY_POLICY,
            )
        except transport.Unreachable as exc:
            if self._discovered:
                self._rediscover(exc)  # raises unless the address moved
                status, decoded = transport.call(
                    self.host, self.port, method, path, payload,
                    timeout=self.timeout, policy=RETRY_POLICY,
                )
            else:
                raise
        if status >= 400:
            raise ServiceError(status, decoded)
        return decoded

    def _rediscover(self, cause: transport.Unreachable) -> None:
        """After a dead discovered endpoint: follow a restart or diagnose.

        Re-reads the discovery file; if the server restarted on a new
        address, adopt it. Otherwise raise :class:`StaleEndpointError`
        (provably dead PID) or re-raise the transport failure.
        """
        journal = Journal(self._journal_dir or default_root())
        found = journal.read_endpoint()
        if found is not None and found != (self.host, self.port):
            self.host, self.port = found
            return
        if journal.endpoint_status() == "stale":
            raise StaleEndpointError(
                f"stale endpoint: {journal.endpoint_path} points at "
                f"{self.host}:{self.port} but the recorded server "
                f"(pid {journal.read_endpoint_pid()}) is dead; restart "
                "`repro serve` or remove the file"
            ) from cause
        raise cause

    # -- API ---------------------------------------------------------------

    def healthz(self) -> dict[str, Any]:
        return self.request("GET", "/healthz")

    def metrics(self) -> dict[str, Any]:
        return self.request("GET", "/metrics")

    def handshake(self, warn: bool = True) -> dict[str, Any]:
        """Version/digest handshake; warns on stderr on mismatch."""
        from repro import __version__
        from repro.harness.artifacts import code_digest

        health = self.healthz()
        if warn and health.get("version") != __version__:
            print(
                f"warning: server runs repro {health.get('version')}, "
                f"client is {__version__}",
                file=sys.stderr,
            )
        if warn and health.get("code_digest") != code_digest()[:16]:
            print(
                "warning: server was started from a different source tree "
                "(digest mismatch); its caches will not match this checkout",
                file=sys.stderr,
            )
        return health

    def submit(
        self,
        kind: str,
        spec: dict[str, Any] | None = None,
        priority: int = 10,
        timeout: float | None = None,
    ) -> tuple[dict[str, Any], bool]:
        payload = self.request(
            "POST",
            "/jobs",
            {
                "kind": kind,
                "spec": spec or {},
                "client": self.client_name,
                "priority": priority,
                "timeout": timeout,
            },
        )
        return payload["job"], bool(payload.get("deduped"))

    def jobs(self, client: str | None = None) -> list[dict[str, Any]]:
        path = "/jobs" + (f"?{urlencode({'client': client})}" if client else "")
        return self.request("GET", path)["jobs"]

    def job(self, job_id: str) -> dict[str, Any]:
        return self.request("GET", f"/jobs/{job_id}")["job"]

    def result(self, job_id: str) -> dict[str, Any]:
        return self.request("GET", f"/jobs/{job_id}/result")

    def cancel(self, job_id: str) -> dict[str, Any]:
        return self.request("POST", f"/jobs/{job_id}/cancel")["job"]

    def shutdown(self) -> dict[str, Any]:
        return self.request("POST", "/shutdown")

    def wait(
        self, job_id: str, poll: float = 0.2, timeout: float | None = None
    ) -> dict[str, Any]:
        """Poll until the job reaches a terminal state; returns the job."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            job = self.job(job_id)
            if job["state"] in ("done", "failed", "cancelled", "timeout"):
                return job
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(
                    f"job {job_id} still {job['state']} after {timeout}s"
                )
            time.sleep(poll)


# -- CLI handlers ------------------------------------------------------------


def _client_from_args(args: Any) -> ServiceClient:
    client = ServiceClient(
        endpoint=args.endpoint,
        journal_dir=args.journal,
        client_name=args.client,
    )
    client.handshake(warn=not args.no_handshake)
    return client


def cmd_submit(args: Any) -> int:
    try:
        client = _client_from_args(args)
        job, deduped = client.submit(
            args.kind,
            params_from_args(args.kind, args),
            priority=args.priority,
            timeout=args.job_timeout,
        )
    except (ServiceError, ValueError, ConnectionError, OSError) as exc:
        print(f"submit failed: {exc}", file=sys.stderr)
        return 2
    tag = " (deduplicated)" if deduped else ""
    print(f"{job['id']}  {job['kind']}  {job['state']}{tag}", file=sys.stderr)
    if not args.wait:
        print(job["id"])
        return 0
    return _wait_and_print(client, job["id"], args.wait_timeout)


def _wait_and_print(
    client: ServiceClient, job_id: str, timeout: float | None
) -> int:
    try:
        job = client.wait(job_id, timeout=timeout)
    except (TimeoutError, ServiceError, ConnectionError, OSError) as exc:
        print(f"wait failed: {exc}", file=sys.stderr)
        return 2
    return _print_result(client, job)


def _print_result(client: ServiceClient, job: dict[str, Any]) -> int:
    if job["state"] != "done":
        print(
            f"job {job['id']} {job['state']}: {job.get('error') or ''}",
            file=sys.stderr,
        )
        return 3
    payload = client.result(job["id"])
    result = payload["result"]
    sys.stdout.write(result.get("stdout", ""))
    sys.stdout.flush()
    return int(result.get("exit_code") or 0)


def cmd_jobs(args: Any) -> int:
    try:
        client = _client_from_args(args)
        jobs = client.jobs(client=args.mine and client.client_name or None)
    except (ServiceError, ValueError, ConnectionError, OSError) as exc:
        print(f"jobs failed: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps({"jobs": jobs}, indent=2, sort_keys=True))
        return 0
    if not jobs:
        print("no jobs", file=sys.stderr)
        return 0
    print(f"{'id':<9} {'kind':<7} {'state':<10} {'att':>3} {'client':<20} spec")
    for job in jobs:
        spec = job["spec"]
        brief = spec.get("uid") or ("--all" if spec.get("all") else "")
        print(
            f"{job['id']:<9} {job['kind']:<7} {job['state']:<10} "
            f"{job['attempts']:>3} {job['client'][:20]:<20} {brief}"
        )
    return 0


def cmd_result(args: Any) -> int:
    try:
        client = _client_from_args(args)
        if args.wait:
            return _wait_and_print(client, args.job_id, args.wait_timeout)
        job = client.job(args.job_id)
        if job["state"] in ("queued", "running"):
            print(f"job {args.job_id} is {job['state']}", file=sys.stderr)
            return 4
        return _print_result(client, job)
    except (ServiceError, ValueError, ConnectionError, OSError) as exc:
        print(f"result failed: {exc}", file=sys.stderr)
        return 2
