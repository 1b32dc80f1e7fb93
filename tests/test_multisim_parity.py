"""Differential parity wall for the timing model.

:mod:`repro.runtime.multisim` executes the shared committed stream once
(fetch/decode/functional work, branch outcomes and memory latencies
baked into a flat feed) and advances K independent timing lanes over it;
every solo timing call is a one-lane run of the same kernel. Every lane
is required to be *byte-identical* — full
:class:`~repro.arch.stats.SimStats` dataclass equality, which covers the
cache counters, spill/app store split, forced closures, and
misprediction counts that ``as_dict`` omits — to the object-model
reference in ``timing_reference.py``, which composes ``repro.arch``'s
cache, predictor, store buffer, RBB, CLQ and colour-map objects.

The wall has four layers:

1. every benchmark of the 36-entry suite, Turnpike scheme, one lane;
2. the quick subset under a wide hardware-variant fan (ideal/compact
   CLQ, CLQ sizes, WCDLs, Turnstile, disabled resilience) in a single
   ``run_lanes`` call, so the shared-decode grouping itself is
   exercised;
3. random well-formed traces under the same fan plus a 2-entry store
   buffer, reaching forced region closures and CLQ/colour corners the
   benchmark traces rarely do;
4. the engine end-to-end: ``run_sweep`` against solo ``simulate``,
   including digest-level dedup, warm-cache resolution and the
   process pool.
"""

from __future__ import annotations

import multiprocessing
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.arch import CoreConfig, ResilienceHardwareConfig
from repro.compiler.config import turnpike_config
from repro.harness.runner import (
    RunCache,
    _baseline_config,
    simulate,
    turnpike_scheme,
    turnstile_scheme,
)
from repro.harness.sweep import DesignPoint, lattice, plan_sweep, run_sweep
from repro.runtime import trace as tr
from repro.runtime.multisim import decode_feed, run_lanes
from repro.workloads.suites import all_profiles, quick_subset

from helpers import committed_stream
from timing_reference import ReferenceCore

SRC = str(Path(__file__).resolve().parents[1] / "src")
ALL_UIDS = [p.uid for p in all_profiles()]
QUICK_UIDS = [p.uid for p in quick_subset()]

# One in-memory cache for the whole module: programs compile once, and
# each test computes the streams it needs and drops them.
_CACHE = RunCache(persistent=None)


def _trace(uid: str, compiler):
    return committed_stream(_CACHE, uid, compiler)


def _solo(trace, hw: ResilienceHardwareConfig, core: CoreConfig | None = None):
    return ReferenceCore(core or CoreConfig(), hw).run(trace)


class TestLaneParityFullSuite:
    """Every benchmark, Turnpike scheme: lane == solo, all fields."""

    @pytest.mark.parametrize("uid", ALL_UIDS)
    def test_turnpike_lane_matches_solo(self, uid):
        hw = ResilienceHardwareConfig.turnpike(wcdl=10)
        trace = _trace(uid, turnpike_config())
        ref = _solo(trace, hw)
        (lane,) = run_lanes(trace, [(CoreConfig(), hw)])
        assert lane == ref  # dataclass eq: every field, cache dict included


# The hardware fan deliberately crosses every flat-kernel specialisation:
# ideal vs compact CLQ, CLQ capacity, coloring on/off, WCDL spread, tiny
# SB, and resilience fully disabled (the baseline decode group).
_VARIANTS = [
    ResilienceHardwareConfig.turnpike(wcdl=10),
    ResilienceHardwareConfig.turnpike(wcdl=50),
    ResilienceHardwareConfig.turnpike(wcdl=10, clq_kind="ideal"),
    ResilienceHardwareConfig.turnpike(wcdl=10, clq_size=4),
    ResilienceHardwareConfig.turnstile(wcdl=10),
    ResilienceHardwareConfig.turnstile(wcdl=30),
    ResilienceHardwareConfig.baseline(),
]


class TestSharedDecodeLaneFan:
    """One run_lanes call, many configs: grouping must not leak state."""

    @pytest.mark.parametrize("uid", QUICK_UIDS)
    def test_variant_fan_matches_solo(self, uid):
        trace = _trace(uid, turnpike_config())
        lanes = [(CoreConfig(), hw) for hw in _VARIANTS]
        feeds = {}
        stats = run_lanes(trace, lanes, feeds)
        assert len(stats) == len(_VARIANTS)
        for hw, lane in zip(_VARIANTS, stats):
            assert lane == _solo(trace, hw), hw
        # Exactly two decode groups: resilient and baseline. The feed
        # dict is the witness that decode ran once per group, not once
        # per lane.
        assert {enabled for _, enabled in feeds} == {True, False}
        assert len(feeds) == 2

    def test_feed_reuse_across_calls_is_identical(self):
        trace = _trace(QUICK_UIDS[0], turnpike_config())
        hw = ResilienceHardwareConfig.turnpike(wcdl=20)
        feeds = {}
        (first,) = run_lanes(trace, [(CoreConfig(), hw)], feeds)
        # Second call with the carried feeds dict must not re-decode and
        # must produce the same bytes.
        (second,) = run_lanes(trace, [(CoreConfig(), hw)], feeds)
        assert first == second

    def test_decode_feed_cache_stats_match_solo(self):
        uid = QUICK_UIDS[0]
        trace = _trace(uid, turnpike_config())
        hw = ResilienceHardwareConfig.turnpike(wcdl=10)
        _, cache_stats, _ = decode_feed(trace, CoreConfig(), resilient=True)
        assert cache_stats == _solo(trace, hw).cache


# Random well-formed traces: registers and addresses come from small
# pools so operands chain and stores hit loaded addresses (WAR), with a
# few far lines that conflict in the caches. Bursts of stores longer
# than any store buffer in the fan force region closures; runs of short
# regions that each checkpoint one register exhaust its colour pool.
_REG = st.integers(-1, 11)
_CKPT_REG = st.integers(0, 3)
_ADDR = st.one_of(
    st.integers(0, 7).map(lambda i: 0x1000 + 4 * i),
    st.integers(1, 6).map(lambda i: i << 20),
)
_SPILL = st.integers(0, 1)
_CKPT = st.builds(lambda r: (tr.K_CKPT, -1, r, -1, -1, 0, 0), _CKPT_REG)
_STORE = st.builds(
    lambda v, b, a, k: (tr.K_ST, -1, v, b, a, 0, k), _REG, _REG, _ADDR, _SPILL
)
_BOUNDARY = st.builds(
    lambda r: (tr.K_BOUNDARY, -1, -1, -1, -1, r, 0), st.integers(0, 5)
)
_ENTRY = st.one_of(
    st.tuples(st.sampled_from([tr.K_ALU, tr.K_MUL, tr.K_DIV]),
              _REG, _REG, _REG, st.just(-1), st.just(0), st.just(0)),
    st.builds(lambda d, s, a: (tr.K_LD, d, s, -1, a, 0, 0), _REG, _REG, _ADDR),
    _STORE,
    _CKPT,
    # Conditional branches: aux bit0 = taken, bit1 = backward.
    st.builds(lambda a, b, uid, aux: (tr.K_BR, -1, a, b, uid, 0, aux),
              _REG, _REG, st.integers(0, 40), st.integers(0, 3)),
    # Unconditional jumps: taken, optionally backward, bit2 set.
    st.builds(lambda uid, back: (tr.K_BR, -1, -1, -1, uid, 0, 5 | back),
              st.integers(0, 40), st.sampled_from([0, 2])),
    _BOUNDARY,
)
_BURST = st.one_of(
    st.lists(_STORE, min_size=5, max_size=9),
    # Short regions that each checkpoint the same register.
    st.tuples(_BOUNDARY, _CKPT).map(list).flatmap(
        lambda pair: st.integers(5, 8).map(lambda n: pair * n)
    ),
)
_RET = (tr.K_RET, -1, -1, -1, -1, -1, 0)
_TRACES = st.lists(
    st.one_of(_ENTRY.map(lambda e: [e]), _BURST), max_size=40,
).map(lambda chunks: [e for chunk in chunks for e in chunk] + [_RET])

_FAN_AND_SMALL_SB = [
    *_VARIANTS,
    # A 2-entry SB whose CLQ disables itself on overflow (no recycling).
    replace(ResilienceHardwareConfig.turnpike(wcdl=10, sb_size=2),
            clq_recycling=False),
]


class TestRandomTraceParity:
    """Hypothesis: lanes == reference on arbitrary well-formed traces."""

    @given(_TRACES)
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_lanes_match_reference(self, trace):
        lanes = [(CoreConfig(), hw) for hw in _FAN_AND_SMALL_SB]
        for hw, lane in zip(_FAN_AND_SMALL_SB, run_lanes(trace, lanes)):
            assert lane == _solo(trace, hw), hw

    def test_store_burst_forces_region_closure(self):
        region = [(tr.K_BOUNDARY, -1, -1, -1, -1, 1, 0)]
        burst = [(tr.K_ST, -1, 1, 0, 0x1000 + 4 * i, 0, 0) for i in range(6)]
        trace = region + burst + region + burst + [_RET]
        hw = ResilienceHardwareConfig.turnstile(wcdl=10, sb_size=2)
        (lane,) = run_lanes(trace, [(CoreConfig(), hw)])
        assert lane.forced_region_closures > 0
        assert lane == _solo(trace, hw)


class TestEngineEndToEnd:
    """run_sweep == simulate, with dedup and warm-path behaviour."""

    def test_run_sweep_matches_simulate(self):
        uids = QUICK_UIDS[:2]
        pairs = [
            turnpike_scheme(),
            turnstile_scheme(),
            (_baseline_config(), ResilienceHardwareConfig.baseline()),
        ]
        points = lattice(uids, pairs)
        engine_cache = RunCache(persistent=None)
        result = run_sweep(points, cache=engine_cache)
        solo_cache = RunCache(persistent=None)
        for point in points:
            ref = simulate(
                point.uid, point.compiler, point.hardware,
                core=point.core, cache=solo_cache,
            )
            assert result[point] == ref, point

    def test_digest_equal_configs_share_one_lane(self):
        uid = QUICK_UIDS[0]
        hw = ResilienceHardwareConfig.turnpike(wcdl=10)
        a = turnpike_config()
        b = turnpike_config().with_name("renamed-turnpike")
        points = [DesignPoint(uid, a, hw), DesignPoint(uid, b, hw)]
        cache = RunCache(persistent=None)
        plan = plan_sweep(points, cache)
        # Same structural program, same hardware: one batch, one lane,
        # one content-addressed key for both points.
        assert len(plan.batches) == 1
        assert plan.planned_lanes == 1
        assert plan.keys[points[0]] == plan.keys[points[1]]
        result = run_sweep(points, cache=cache)
        assert result[points[0]] == result[points[1]]

    def test_warm_cache_resolves_without_batches(self):
        uid = QUICK_UIDS[0]
        points = lattice([uid], [turnpike_scheme()])
        cache = RunCache(persistent=None)
        first = run_sweep(points, cache=cache)
        plan = plan_sweep(points, cache)
        assert not plan.batches
        second = run_sweep(points, cache=cache)
        assert first == second

    def test_solo_accessors_hit_engine_results(self, monkeypatch):
        """After a sweep, simulate() must be a pure cache hit."""
        import repro.harness.runner as runner_mod

        uid = QUICK_UIDS[0]
        compiler, hw = turnpike_scheme()
        cache = RunCache(persistent=None)
        result = run_sweep(lattice([uid], [(compiler, hw)]), cache=cache)

        def boom(*args, **kwargs):
            raise AssertionError("solo recompute after sweep")

        # The solo path's one-lane call, as RunCache.stats looks it up.
        monkeypatch.setattr(runner_mod, "run_lanes", boom)
        stats = simulate(uid, compiler, hw, cache=cache)
        assert stats == result[DesignPoint(uid, compiler, hw)]

    def test_results_are_defensive_copies(self):
        uid = QUICK_UIDS[0]
        point = DesignPoint(uid, *turnpike_scheme())
        cache = RunCache(persistent=None)
        first = run_sweep([point], cache=cache)[point]
        first.cycles = -1.0
        first.cache["l1d_hits"] = -1
        second = run_sweep([point], cache=cache)[point]
        assert second.cycles != -1.0
        assert second.cache.get("l1d_hits") != -1

    def test_pool_matches_sequential(self):
        pairs = [
            turnpike_scheme(),
            (_baseline_config(), ResilienceHardwareConfig.baseline()),
        ]
        points = lattice(["CPU2006.mcf", "SPLASH3.radix"], pairs)
        sequential = run_sweep(points, cache=RunCache(persistent=None), workers=1)
        pooled = run_sweep(points, cache=RunCache(persistent=None), workers=2)
        assert pooled == sequential

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="only a forked worker inherits the sweep's cache",
    )
    def test_pool_workers_compile_nothing(self, monkeypatch, tmp_path):
        """Forked workers produce streams through the sweep's own cache,
        which holds every program its planner compiled."""
        import repro.harness.runner as runner
        import repro.harness.sweep as sweep

        log = tmp_path / "compiles"

        def logged(compile_fn):
            def wrapper(*args, **kwargs):
                with open(log, "a") as fh:
                    fh.write(f"{os.getpid()}\n")
                return compile_fn(*args, **kwargs)

            return wrapper

        for name in ("compile_program", "compile_baseline"):
            monkeypatch.setattr(runner, name, logged(getattr(runner, name)))
        # A worker that fell back to the global cache would compile.
        monkeypatch.setattr(sweep, "GLOBAL_CACHE", RunCache(persistent=None))
        pairs = [turnpike_scheme(), turnstile_scheme()]
        points = lattice(["CPU2017.exchange2", "SPLASH3.radix"], pairs)
        pooled = run_sweep(points, cache=RunCache(persistent=None), workers=2)
        assert set(log.read_text().split()) == {str(os.getpid())}
        assert pooled == run_sweep(points, cache=RunCache(persistent=None))

    def test_pooled_sweep_without_persistence_touches_no_disk(self, tmp_path):
        """Pool workers return their answers to the parent: a pooled
        sweep over an in-memory cache leaves the default cache directory
        (bound when the package is imported) empty."""
        default = tmp_path / "default-cache"
        script = (
            "from repro.harness.runner import RunCache, _baseline_config, "
            "turnpike_scheme\n"
            "from repro.arch import ResilienceHardwareConfig\n"
            "from repro.harness.sweep import lattice, run_sweep\n"
            "pairs = [turnpike_scheme(), "
            "(_baseline_config(), ResilienceHardwareConfig.baseline())]\n"
            "points = lattice(['CPU2006.mcf', 'SPLASH3.radix'], pairs)\n"
            "result = run_sweep(points, cache=RunCache(persistent=None), "
            "workers=2)\n"
            "assert len(result) == 4\n"
        )
        env = dict(os.environ, REPRO_CACHE_DIR=str(default))
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (SRC, env.get("PYTHONPATH")))
        )
        subprocess.run(
            [sys.executable, "-c", script], env=env, check=True, timeout=300
        )
        assert default.is_dir()
        assert sorted(p.name for p in default.iterdir()) == []

    def test_persistent_layer_round_trip(self, tmp_path):
        from repro.harness.artifacts import ArtifactCache

        uid = QUICK_UIDS[0]
        points = lattice([uid], [turnpike_scheme()])
        disk = ArtifactCache(tmp_path / "sweep-cache")
        warm = run_sweep(points, cache=RunCache(persistent=disk))
        # A fresh process-level cache over the same disk layer resolves
        # the whole plan from artifacts.
        cold = RunCache(persistent=disk)
        plan = plan_sweep(points, cold)
        assert not plan.batches
        again = run_sweep(points, cache=cold)
        assert again == warm
