"""The supervised worker pool and the in-worker job entry point.

Workers execute jobs by calling the **real CLI entry point**
(:func:`repro.__main__.main`) with the job's canonical argv and
captured stdio. That is the whole parity story: a service result is
byte-identical to ``python -m repro <argv>`` because it *is* that
invocation, sharing every cache layer underneath — no reimplemented
command logic to drift.

:class:`WorkerPool` wraps ``concurrent.futures.ProcessPoolExecutor``
with the supervision the server needs:

* :meth:`restart` tears the pool down hard (terminating live worker
  processes) and builds a fresh one — used when a job exceeds its
  timeout, since a running future cannot be cancelled cooperatively;
* a broken pool (worker killed by the OOM killer, segfault, or a
  sibling job's timeout restart) surfaces to the server as
  ``BrokenExecutor``, which retries the job with exponential backoff;
* ``restarts`` counts every rebuild for ``/metrics``;
* workers reset their inherited signal handling
  (:func:`_detach_signals`), so a restart stops the workers, not the
  server.
"""

from __future__ import annotations

import contextlib
import io
import signal
import traceback
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from typing import Any, Callable


def execute_job_argv(argv: list[str]) -> dict[str, Any]:
    """Run one CLI invocation in this worker process, capturing stdio.

    Returns ``{"exit_code", "stdout", "stderr"}``. Never raises for
    job-level problems: an unexpected exception becomes exit code 70
    (EX_SOFTWARE) with the traceback on stderr, so the server can
    distinguish a job that *ran and failed* from a worker that died.
    """
    from repro.__main__ import main

    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:  # argparse errors and explicit exits
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 2)
    except BaseException:
        err.write(traceback.format_exc())
        code = 70
    return {
        "exit_code": int(code or 0),
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
    }


def _detach_signals() -> None:
    """Pool initializer: give a forked worker default signal handling.

    A worker forked from ``repro serve`` inherits the asyncio loop's
    signal wakeup fd and its no-op SIGTERM/SIGINT handlers, so a signal
    sent to the worker would wake the server's loop instead and run its
    drain handler, while the worker kept running.
    """
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_DFL)


class WorkerPool:
    """A restartable ProcessPoolExecutor with restart accounting."""

    def __init__(
        self,
        workers: int,
        entry: Callable[[list[str]], dict[str, Any]] = execute_job_argv,
    ) -> None:
        self.workers = max(1, workers)
        self.entry = entry
        self.restarts = 0
        self._pool: ProcessPoolExecutor | None = None
        self._make()

    def _make(self) -> None:
        self._pool = ProcessPoolExecutor(
            max_workers=self.workers, initializer=_detach_signals
        )

    def submit(self, argv: list[str]) -> Future:
        if self._pool is None:
            # Racing a shutdown: surface as the same error class a dead
            # pool raises, so the server's retry path handles both.
            raise BrokenExecutor("pool is shut down")
        return self._pool.submit(self.entry, argv)

    def restart(self) -> None:
        """Hard-restart the pool, terminating any live workers.

        Needed for per-job timeouts: a future already executing cannot
        be cancelled, so the only way to reclaim the worker is to kill
        it. Sibling jobs in flight will observe a broken pool and go
        through the server's retry path.
        """
        pool = self._pool
        self._pool = None
        if pool is not None:
            processes = list(getattr(pool, "_processes", {}).values())
            pool.shutdown(wait=False, cancel_futures=True)
            for proc in processes:
                try:
                    proc.terminate()
                except (OSError, ValueError, AttributeError):
                    pass
        self._make()
        self.restarts += 1

    def shutdown(self, wait: bool = True) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=wait)
            self._pool = None
