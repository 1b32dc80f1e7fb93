"""Whole-suite figure oracle over the quick subset.

A cold ``figure_suite`` over the six quick-subset benchmarks must render
exactly the result the benchmark pinned, and every one of its 168 design
points must carry the pinned ``SimStats``. A second pass from a fresh
``RunCache`` over the same artifact directory must render the same
result from persisted artifacts alone: it may not build a workload,
compile, run the functional simulator, load a trace, tally a stream or
digest a program. The cold result, rendered as ``repro sweep`` prints
it, must also match ``tests/fixtures/oracle/sweep-quick.txt`` byte for
byte (``--update-goldens`` regenerates it).

The digests, their definitions and the point labels all come from the
benchmark (``benchmarks/perf/workloads.py`` and its ``expected.json``),
so the repository keeps one oracle and one way of computing it.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

import repro.harness.runner as runner_mod
import repro.runtime.codegen as codegen_mod
from repro.harness.artifacts import ArtifactCache
from repro.harness.experiments import figure_suite, suite_pairs
from repro.harness.reporting import format_figure_suite
from repro.harness.runner import RunCache
from repro.workloads.suites import quick_subset

from test_lint_ecc_oracle import ORACLE_DIR, _check

PERF = Path(__file__).resolve().parents[1] / "benchmarks" / "perf"


def _bench_workloads():
    """Import ``benchmarks/perf/workloads.py`` (it imports its siblings
    by bare name, so its directory goes on the path while it loads)."""
    sys.path.insert(0, str(PERF))
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERF))


BENCH = _bench_workloads()
EXPECTED = BENCH.load_expected()
UIDS = [p.uid for p in quick_subset()]


@pytest.fixture(scope="module")
def cold(tmp_path_factory):
    """One cold quick-subset pass into a fresh artifact directory."""
    disk = ArtifactCache(tmp_path_factory.mktemp("figure-oracle"))
    cache = RunCache(persistent=disk)
    return disk, cache, figure_suite(UIDS, cache=cache)


class TestQuickFigureOracle:
    def test_cold_suite_matches_pinned_digest(self, cold):
        _disk, _cache, result = cold
        assert BENCH.result_digest(result) == EXPECTED["quick_suite"]

    def test_cold_points_match_pinned_stats(self, cold):
        _disk, cache, _result = cold
        pairs = suite_pairs()
        labels = []
        for uid in UIDS:
            for compiler, hardware in pairs:
                label = BENCH.point_label(uid, compiler, hardware)
                stats = cache.peek_stats(uid, compiler, hardware)
                if stats is None or (
                    BENCH.stats_digest(stats) != EXPECTED["figure_points"][label]
                ):
                    labels.append(label)
        assert len(UIDS) * len(pairs) == 168
        assert labels == []

    def test_cold_text_matches_fixture(self, cold, update_goldens):
        _disk, _cache, result = cold
        _check(ORACLE_DIR / "sweep-quick.txt", format_figure_suite(result),
               update_goldens)

    def test_warm_pass_reads_persisted_records_only(self, cold, monkeypatch):
        disk, _cache, _result = cold

        def boom(*args, **kwargs):
            raise AssertionError("a warm figure pass recomputed something")

        for name in ("build_workload", "compile_program", "compile_baseline",
                     "execute_fast", "TraceSummary"):
            monkeypatch.setattr(runner_mod, name, boom)
        monkeypatch.setattr(ArtifactCache, "load_trace", boom)
        monkeypatch.setattr(codegen_mod, "program_digest", boom)
        warm = figure_suite(UIDS, cache=RunCache(persistent=disk))
        assert BENCH.result_digest(warm) == EXPECTED["quick_suite"]
