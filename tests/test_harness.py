"""Harness tests: caching, normalized-time plumbing, reporting."""

import pytest

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
    simulate,
    turnpike_scheme,
    turnstile_scheme,
)

UID = "CPU2006.gcc"


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
