"""Shared infrastructure for the figure-regeneration benchmarks.

Every module under benchmarks/ regenerates one table or figure of the
paper on the full 36-benchmark suite (set ``REPRO_BENCH_SUBSET=quick``
for a fast 6-benchmark smoke sweep) and prints the same rows/series the
paper reports. Compiled programs, timing stats and program facts are
shared through one session-scoped cache so the whole directory runs in
a few minutes. Committed streams are not: each lane batch computes its
stream and drops it, so a stream that several modules time is
recomputed by each.

The session cache is backed by the persistent on-disk artifact cache
(``REPRO_CACHE_DIR``; set it to ``0`` to force cold recomputation), so a
second figure sweep starts warm. Set ``REPRO_BENCH_WORKERS=N`` (0 = one
per CPU) to pre-warm the common benchmark x scheme matrix across N
processes before the figure modules run.

The rendered tables are buffered and written to ``figures_output.txt``
only by a session that ran every module here on the full suite, with
nothing deselected, and passed every test it collected. Any partial
session (one module, ``-k``, ``REPRO_BENCH_SUBSET=quick``, a failure)
leaves the committed file untouched.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.harness.runner import RunCache, default_benchmarks, warm_suite
from repro.workloads.suites import quick_subset

HERE = Path(__file__).resolve().parent
FIGURES_PATH = HERE / "figures_output.txt"
_SECTIONS: list[str] = []
_SESSION = {"deselected": False, "modules": set(), "collected": 0, "passed": 0}


@pytest.fixture(scope="session")
def bench_cache(bench_set) -> RunCache:
    workers_env = os.environ.get("REPRO_BENCH_WORKERS")
    if workers_env is not None:
        try:
            workers = int(workers_env)
        except ValueError:
            workers = 1
        if workers <= 0:
            workers = os.cpu_count() or 1
        if workers > 1:
            # Shard the (benchmark, scheme) matrix across processes; the
            # results land in the persistent cache, which the session
            # cache reads through on first access.
            warm_suite(bench_set, workers=workers)
    return RunCache()


@pytest.fixture(scope="session")
def bench_set() -> list[str]:
    if os.environ.get("REPRO_BENCH_SUBSET") == "quick":
        return [p.uid for p in quick_subset()]
    return default_benchmarks()


def pytest_deselected(items):
    _SESSION["deselected"] = True


def pytest_collection_finish(session):
    _SESSION["collected"] = len(session.items)
    _SESSION["modules"] = {item.path for item in session.items}


def pytest_runtest_logreport(report):
    if report.when == "call" and report.passed:
        _SESSION["passed"] += 1


def pytest_sessionfinish(session, exitstatus):
    """Write the buffered figures only after a complete full-suite run."""
    complete = (
        exitstatus == 0
        and "REPRO_BENCH_SUBSET" not in os.environ
        and not _SESSION["deselected"]
        and set(HERE.glob("test_*.py")) <= _SESSION["modules"]
        and _SESSION["passed"] == _SESSION["collected"]
    )
    if complete:
        FIGURES_PATH.write_text("".join(_SECTIONS))


def emit(title: str, text: str) -> None:
    """Print a figure's table (visible with -s) and buffer it for
    ``benchmarks/figures_output.txt``, so the regenerated figures survive
    pytest's output capture."""
    rendered = f"\n### {title}\n{text}\n"
    print(rendered, end="")
    _SECTIONS.append(rendered)
