"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import shutil
import sys
import tempfile

import pytest

sys.path.insert(0, os.path.dirname(__file__))

# The suite writes its artifacts into a directory of its own, never the
# user's cache. ``GLOBAL_CACHE`` binds its persistent layer when
# ``repro`` is first imported, so the directory is chosen here, before
# the first import below. A value the session was started with (``off``
# in CI's parity jobs) is kept.
SESSION_CACHE_DIR: str | None = None
if "REPRO_CACHE_DIR" not in os.environ:
    SESSION_CACHE_DIR = tempfile.mkdtemp(prefix="repro-tests-cache-")
    os.environ["REPRO_CACHE_DIR"] = SESSION_CACHE_DIR
SESSION_CACHE_ENV = os.environ["REPRO_CACHE_DIR"]

from repro.compiler.config import turnpike_config, turnstile_config
from repro.compiler.pipeline import compile_baseline, compile_program
from repro.runtime.memory import Memory
from repro.workloads.generator import build_workload
from repro.workloads.suites import profile

from helpers import build_diamond, build_sum_loop


def pytest_addoption(parser):
    parser.addoption(
        "--update-goldens",
        action="store_true",
        default=False,
        help="rewrite the golden trace fixtures instead of diffing "
        "against them (then commit the changed JSON)",
    )


def pytest_sessionfinish(session, exitstatus):
    if SESSION_CACHE_DIR is not None:
        shutil.rmtree(SESSION_CACHE_DIR, ignore_errors=True)


@pytest.fixture(scope="session")
def update_goldens(request) -> bool:
    return request.config.getoption("--update-goldens")


@pytest.fixture(scope="session")
def session_cache_env() -> str:
    """``REPRO_CACHE_DIR`` as this session runs with it: the directory
    chosen above, or the value the session was started with."""
    return SESSION_CACHE_ENV


@pytest.fixture(scope="session")
def cold_quick_suite(tmp_path_factory):
    """One cold quick-subset ``figure_suite`` pass into a fresh artifact
    directory, as ``(disk, cache, result)``.

    The figure oracle and the artifact tests both read it, so tier-1
    pays for one cold pass.
    """
    from repro.harness.artifacts import ArtifactCache
    from repro.harness.experiments import figure_suite
    from repro.harness.runner import RunCache
    from repro.workloads.suites import quick_subset

    disk = ArtifactCache(tmp_path_factory.mktemp("figure-oracle"))
    cache = RunCache(persistent=disk)
    return disk, cache, figure_suite([p.uid for p in quick_subset()], cache=cache)


@pytest.fixture
def sum_loop():
    return build_sum_loop()


@pytest.fixture
def diamond():
    return build_diamond()


@pytest.fixture(scope="session")
def quick_workloads():
    """A small, behaviour-diverse set of full workloads (session-cached)."""
    uids = ["CPU2006.gcc", "CPU2017.exchange2", "SPLASH3.radix"]
    return [build_workload(profile(uid)) for uid in uids]


@pytest.fixture(scope="session")
def gcc_workload():
    return build_workload(profile("CPU2006.gcc"))


@pytest.fixture(scope="session")
def gcc_turnpike(gcc_workload):
    return compile_program(gcc_workload.program, turnpike_config())


@pytest.fixture(scope="session")
def gcc_turnstile(gcc_workload):
    return compile_program(gcc_workload.program, turnstile_config())


@pytest.fixture(scope="session")
def gcc_baseline(gcc_workload):
    return compile_baseline(gcc_workload.program)


@pytest.fixture
def empty_memory():
    return Memory()
