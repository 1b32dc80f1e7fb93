"""Crash-safe job journal and content-addressed result store.

One directory (``--journal``, ``REPRO_SERVICE_DIR``, or
``~/.cache/repro-turnpike/service``) holds everything a server needs to
survive a crash:

* ``journal.jsonl`` — append-only event log (one JSON object per line:
  ``submit`` and ``state`` events), flushed after every write. A
  ``kill -9`` can at worst truncate the final line; replay tolerates
  that and every other form of partial write by skipping undecodable
  lines.
* ``results/<key>.json`` — finished job results, atomically written and
  keyed by the job dedup key (which embeds the source digest), so they
  double as the cross-restart dedup cache: resubmitting a finished spec
  is a cache hit, and editing the simulator invalidates everything.
* ``manifests/<key>.json`` — campaign manifests for ``inject`` jobs.
  The key-addressing is what makes kill-during-campaign cheap to
  recover: the re-adopted job resumes from the shards already
  checkpointed instead of starting over.
* ``exports/<key>.json`` — aggregate JSON exports of ``inject`` jobs.
* ``endpoint`` — ``host:port`` of the live server, written after bind
  (and removed on clean exit) so local clients can discover the
  service without configuration. A sibling ``server.pid`` records the
  serving PID, so a discovery file left behind by a kill -9'd server
  is detectably *stale*: a successor server replaces it instead of
  refusing to start, and clients report "stale endpoint" instead of a
  raw connection error.

On startup the server replays the journal and re-adopts interrupted jobs
(queued/running but without a stored result). At shutdown it compacts
the log to one ``submit`` event per surviving job, followed verbatim by
every well-formed event replay could not apply (a newer generation's
event, or a job this build rejects), so no restart erases a job. The
job ids those events name stay taken: no new job gets one.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import IO, Any

from repro.service.jobs import JobRecord, JobState

ENV_SERVICE_DIR = "REPRO_SERVICE_DIR"

#: Journal event schema generation. Replay skips events stamped with a
#: *newer* generation instead of guessing at their meaning: a journal
#: shared with (or left behind by) a newer server build degrades to
#: "those events are invisible", never to a crash or a misparse.
SCHEMA_VERSION = 1


def pid_alive(pid: int) -> bool:
    """Best-effort liveness probe for a local PID."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    except OSError:
        return False
    return True


def default_root() -> Path:
    env = os.environ.get(ENV_SERVICE_DIR)
    if env:
        return Path(env).expanduser()
    return Path("~/.cache/repro-turnpike/service").expanduser()


def _write_atomic(path: Path, data: bytes) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class Journal:
    def __init__(self, root: str | Path) -> None:
        self.root = Path(root).expanduser()
        self.root.mkdir(parents=True, exist_ok=True)
        for sub in ("results", "manifests", "exports"):
            (self.root / sub).mkdir(exist_ok=True)
        self.log_path = self.root / "journal.jsonl"
        self._log: IO[str] | None = None
        # Well-formed event lines the last replay could not apply, in log
        # order; compact() writes them back unchanged. ``skipped_ids``
        # holds the job ids those lines name: a new job must not take
        # one, or the next replay applies the old job's state to it.
        self.skipped: list[str] = []
        self.skipped_ids: set[str] = set()

    # -- event log ---------------------------------------------------------

    def _handle(self) -> IO[str]:
        if self._log is None or self._log.closed:
            self._log = open(self.log_path, "a", encoding="utf-8")
        return self._log

    def append(self, event: dict[str, Any]) -> None:
        event.setdefault("v", SCHEMA_VERSION)
        handle = self._handle()
        handle.write(json.dumps(event, sort_keys=True) + "\n")
        handle.flush()

    def record_submit(self, job: JobRecord) -> None:
        self.append({"ev": "submit", "job": job.to_dict()})

    def record_state(self, job: JobRecord) -> None:
        self.append(
            {
                "ev": "state",
                "id": job.id,
                "key": job.key,
                "state": job.state.value,
                "attempts": job.attempts,
                "started_at": job.started_at,
                "finished_at": job.finished_at,
                "exit_code": job.exit_code,
                "error": job.error,
            }
        )

    def replay(self) -> dict[str, JobRecord]:
        """Rebuild job records from the log, tolerating torn writes.

        Torn and undecodable lines are dropped. A well-formed event that
        cannot be applied (stamped by a newer generation, of an unknown
        kind, rejected by ``JobRecord.from_dict``, or about a job no
        applied submit created) is collected in :attr:`skipped` instead,
        and the job id it names in :attr:`skipped_ids`.
        """
        jobs: dict[str, JobRecord] = {}
        self.skipped = []
        self.skipped_ids = set()
        try:
            lines = self.log_path.read_text(encoding="utf-8").splitlines()
        except OSError:
            return jobs
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except ValueError:
                continue  # torn final line from a crash
            if not isinstance(event, dict):
                continue
            if not self._apply(event, jobs):
                self.skipped.append(line)
                job = event.get("job")
                jid = job.get("id") if isinstance(job, dict) else event.get("id")
                if isinstance(jid, str):
                    self.skipped_ids.add(jid)
        return jobs

    @staticmethod
    def _apply(event: dict[str, Any], jobs: dict[str, JobRecord]) -> bool:
        """Apply one event to ``jobs``; False if this build cannot."""
        version = event.get("v", 1)
        if isinstance(version, int) and version > SCHEMA_VERSION:
            return False  # written by a newer generation: skip, don't guess
        try:
            if event.get("ev") == "submit":
                job = JobRecord.from_dict(event["job"])
                jobs[job.id] = job
                return True
            if event.get("ev") == "state":
                job = jobs.get(event.get("id", ""))
                if job is None:
                    return False
                job.state = JobState(event["state"])
                job.key = event.get("key", job.key)
                job.attempts = event.get("attempts", job.attempts)
                job.started_at = event.get("started_at")
                job.finished_at = event.get("finished_at")
                job.exit_code = event.get("exit_code")
                job.error = event.get("error")
                return True
        except (KeyError, ValueError, TypeError):
            pass  # event written by an incompatible generation
        return False

    def compact(self, jobs: dict[str, JobRecord]) -> None:
        """Atomically rewrite the log to one submit event per job, then
        the events the last replay skipped, verbatim and in log order."""
        lines = [
            json.dumps(
                {"ev": "submit", "job": jobs[jid].to_dict(),
                 "v": SCHEMA_VERSION},
                sort_keys=True,
            )
            for jid in sorted(jobs)
        ]
        lines.extend(self.skipped)
        if self._log is not None and not self._log.closed:
            self._log.close()
            self._log = None
        _write_atomic(
            self.log_path, ("\n".join(lines) + "\n" if lines else "").encode()
        )

    def close(self) -> None:
        if self._log is not None and not self._log.closed:
            self._log.close()
        self._log = None

    # -- result store ------------------------------------------------------

    def result_path(self, key: str) -> Path:
        return self.root / "results" / f"{key}.json"

    def store_result(self, key: str, payload: dict[str, Any]) -> None:
        data = json.dumps(payload, sort_keys=True, indent=2).encode()
        _write_atomic(self.result_path(key), data)

    def load_result(self, key: str) -> dict[str, Any] | None:
        try:
            with open(self.result_path(key), encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError):
            return None
        return data if isinstance(data, dict) else None

    def manifest_path(self, key: str) -> Path:
        return self.root / "manifests" / f"{key}.json"

    def export_path(self, key: str) -> Path:
        return self.root / "exports" / f"{key}.json"

    # -- endpoint discovery ------------------------------------------------

    @property
    def endpoint_path(self) -> Path:
        return self.root / "endpoint"

    @property
    def server_pid_path(self) -> Path:
        return self.root / "server.pid"

    def write_endpoint(
        self, host: str, port: int, pid: int | None = None
    ) -> None:
        """Publish the live server's address (and its PID alongside).

        The ``endpoint`` file stays exactly ``host:port`` — scripts
        ``$(cat)`` it — while the PID lives in a sibling ``server.pid``
        file so clients and successor servers can tell a *live*
        endpoint from one a kill -9'd server left behind.
        """
        _write_atomic(self.endpoint_path, f"{host}:{port}\n".encode())
        _write_atomic(
            self.server_pid_path,
            f"{pid if pid is not None else os.getpid()}\n".encode(),
        )

    def read_endpoint(self) -> tuple[str, int] | None:
        try:
            text = self.endpoint_path.read_text().strip()
            host, _, port = text.rpartition(":")
            return host, int(port)
        except (OSError, ValueError):
            return None

    def read_endpoint_pid(self) -> int | None:
        try:
            return int(self.server_pid_path.read_text().strip())
        except (OSError, ValueError):
            return None

    def endpoint_status(self) -> str:
        """One of ``absent`` / ``live`` / ``stale`` / ``unknown``.

        ``stale`` means the discovery file survives but the recorded
        server PID is provably dead (the kill -9 signature);
        ``unknown`` means there is an endpoint but no PID record to
        judge it by (a pre-PID generation wrote it).
        """
        if self.read_endpoint() is None:
            return "absent"
        pid = self.read_endpoint_pid()
        if pid is None:
            return "unknown"
        return "live" if pid_alive(pid) else "stale"

    def clear_endpoint(self) -> None:
        for path in (self.endpoint_path, self.server_pid_path):
            try:
                path.unlink()
            except OSError:
                pass
