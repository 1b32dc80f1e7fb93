"""Harness tests: caching, normalized-time plumbing, the ``repro run``
report, reporting."""

import hashlib
import json
from pathlib import Path

import pytest

import repro.harness.runner as runner
from repro.__main__ import main as cli_main
from repro.arch.config import ResilienceHardwareConfig
from repro.compiler.config import turnpike_config, turnstile_config
from repro.harness.experiments import Series
from repro.harness.reporting import (
    format_breakdown_table,
    format_mapping_table,
    format_series_table,
    format_table1,
)
from repro.harness.runner import (
    RunCache,
    default_benchmarks,
    geomean,
    normalized_time,
    run_report_text,
    simulate,
    turnpike_scheme,
    turnstile_scheme,
)

UID = "CPU2006.gcc"
#: The benchmark's pinned service-batch stdout digests: an oracle for
#: the report text that lives outside the code it checks.
SERVICE_DIGESTS = (
    Path(__file__).resolve().parents[1] / "benchmarks" / "perf" / "expected.json"
)
REPORT_UIDS = ("CPU2017.bwaves", "CPU2017.exchange2", "SPLASH3.radix")


@pytest.fixture(scope="module")
def cache():
    return RunCache()


class TestRunCache:
    def test_workload_cached(self, cache):
        assert cache.workload(UID) is cache.workload(UID)

    def test_compiled_program_cached_by_config(self, cache):
        a = cache.compiled_program(UID, turnpike_config())
        b = cache.compiled_program(UID, turnpike_config())
        assert a is b
        c = cache.compiled_program(UID, turnstile_config())
        assert c is not a

    def test_facts_distinct_by_sb_size(self, cache):
        # Larger SB -> larger regions -> fewer checkpoints.
        small = cache.program_facts(UID, turnstile_config(sb_size=4))
        large = cache.program_facts(UID, turnstile_config(sb_size=40))
        assert large.checkpoints < small.checkpoints

    def test_baseline_cycles_positive(self, cache):
        assert cache.baseline_cycles(UID) > 0

    def test_clear(self):
        c = RunCache()
        c.workload(UID)
        c.clear()
        assert not c._workloads


class TestSimulate:
    def test_normalized_time_above_one(self, cache):
        compiler, hw = turnstile_scheme(wcdl=10)
        value = normalized_time(UID, compiler, hw, cache=cache)
        assert value > 1.0

    def test_turnpike_cheaper(self, cache):
        ts_c, ts_h = turnstile_scheme(wcdl=10)
        tp_c, tp_h = turnpike_scheme(wcdl=10)
        ts = normalized_time(UID, ts_c, ts_h, cache=cache)
        tp = normalized_time(UID, tp_c, tp_h, cache=cache)
        assert tp < ts

    def test_simulate_returns_stats(self, cache):
        compiler, hw = turnpike_scheme(wcdl=10)
        stats = simulate(UID, compiler, hw, cache=cache)
        assert stats.instructions > 0
        assert stats.regions > 0

    def test_geomean(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)
        assert geomean([2.0]) == 2.0
        with pytest.raises(ValueError):
            geomean([])

    def test_default_benchmarks_are_36(self):
        assert len(default_benchmarks()) == 36


def _counted(monkeypatch, name: str, module=runner) -> list[int]:
    """Count the calls of ``module.name`` (a runner executor by default)."""
    calls: list[int] = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestRunReport:
    """``repro run`` formats two ``RunCache.stats`` lookups: the
    scheme's design point and the benchmark's baseline."""

    def test_text_matches_the_pinned_service_digests(
        self, monkeypatch, tmp_path
    ):
        pinned = json.loads(SERVICE_DIGESTS.read_text())["service_stdout"]
        labels = [
            (uid, scheme, wcdl)
            for uid in REPORT_UIDS
            for scheme in ("turnstile", "turnpike")
            for wcdl in (10, 30, 50)
        ]
        # Into an empty cache directory, again warm, and with no
        # artifact layer at all.
        for phase, cache_dir in (
            ("cold", str(tmp_path)), ("warm", str(tmp_path)), ("off", "0"),
        ):
            monkeypatch.setenv("REPRO_CACHE_DIR", cache_dir)
            for uid, scheme, wcdl in labels:
                text = run_report_text(uid, scheme=scheme, wcdl=wcdl) + "\n"
                digest = hashlib.sha256(text.encode()).hexdigest()[:16]
                label = f"{uid}|{scheme}|{wcdl}"
                assert digest == pinned[label], (phase, label)
            if phase == "cold":
                # One record per scheme point, one baseline per uid.
                stats = list(tmp_path.glob("stats-*.json"))
                assert len(stats) == len(REPORT_UIDS) * 7

    def test_each_point_executes_once(self, monkeypatch, tmp_path):
        calls = _counted(monkeypatch, "execute_fast")

        def executions(scheme: str, wcdl: int) -> int:
            before = len(calls)
            run_report_text(UID, scheme=scheme, wcdl=wcdl)
            return len(calls) - before

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "shared"))
        assert executions("turnpike", 10) == 2  # the point and the baseline
        assert executions("turnstile", 30) == 1  # the baseline is read back
        assert executions("turnpike", 10) == 0
        assert executions("turnstile", 30) == 0
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "fresh"))
        assert executions("baseline", 10) == 1  # the point is the baseline

    def test_a_cold_run_digests_no_program(
        self, monkeypatch, tmp_path, capsys
    ):
        """Only program facts read a program digest; ``repro run`` asks
        for none."""
        import repro.runtime.codegen as codegen

        digests = _counted(monkeypatch, "program_digest", codegen)
        runs = _counted(monkeypatch, "execute_fast")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert cli_main(["run", UID, "--wcdl", "30"]) == 0
        assert "normalized time" in capsys.readouterr().out
        assert (len(runs), len(digests)) == (2, 0)

    def test_facts_after_a_solo_miss_run_no_stream(self, monkeypatch):
        cache = RunCache(persistent=None)
        config, hardware = turnpike_scheme()
        cache.stats(UID, config, hardware)
        runs = _counted(monkeypatch, "execute_fast")
        facts = cache.program_facts(UID, config)
        assert runs == []
        assert facts.committed == cache.stats(UID, config, hardware).instructions


class TestReporting:
    def _series(self):
        s1 = Series(name="A", per_benchmark={"x": 1.0, "y": 2.0})
        s2 = Series(name="B", per_benchmark={"x": 3.0, "y": 4.0})
        return [s1, s2]

    def test_series_table_contains_rows(self):
        text = format_series_table(self._series(), title="T")
        assert "T" in text and "x" in text and "geomean" in text
        assert "1.00" in text and "4.00" in text

    def test_series_geomean(self):
        s = Series(name="A", per_benchmark={"x": 1.0, "y": 4.0})
        assert s.geomean == pytest.approx(2.0)
        assert s.mean == pytest.approx(2.5)

    def test_mapping_table(self):
        text = format_mapping_table(
            {"bench": (1.5, 2.5)}, headers=("a", "b")
        )
        assert "bench" in text and "1.50" in text

    def test_breakdown_table(self):
        data = {
            "bench": {
                "pruned": 0.2,
                "licm_eliminated": 0.01,
                "colored": 0.3,
                "warfree": 0.1,
                "ra_eliminated": 0.02,
                "indvar_eliminated": 0.05,
                "others": 0.32,
            }
        }
        text = format_breakdown_table(data)
        assert "20.0%" in text

    def test_table1_rendering(self):
        from repro.hwcost.cacti import build_table1

        text = format_table1(build_table1())
        assert "621.28" in text
        assert "Turnpike in total" in text
        assert "%" in text

    def test_empty_series_list(self):
        assert format_series_table([]) == "(no data)"
