"""Differential parity wall: reference interpreter vs fastsim.

The fast backend (:mod:`repro.runtime.fastsim`) compiles each basic
block to a closed-over Python step function and replays it. It is
required to be *bit-identical* to the golden interpreter — same dynamic
trace, same memory image, same final registers, same step count — and
therefore to produce identical timing statistics (cycles, store-buffer
stalls, CLQ/coloring counters) when the trace is fed to the in-order
core.

This suite enforces that on every benchmark of the 36-entry suite, on
the full scheme sweep for the quick subset, and on randomized programs
from the hypothesis generator shared with ``test_properties``.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings

from repro.arch import CoreConfig, InOrderCore, ResilienceHardwareConfig
from repro.compiler.config import turnpike_config, turnstile_config
from repro.compiler.pipeline import compile_baseline, compile_program
from repro.runtime.fastsim import FastProgram, compile_fast, execute_fast
from repro.runtime.interpreter import ExecutionLimitExceeded, execute
from repro.runtime.memory import Memory
from repro.workloads.generator import build_workload
from repro.workloads.suites import all_profiles, profile, quick_subset

from test_properties import random_programs

ALL_UIDS = [p.uid for p in all_profiles()]
QUICK_UIDS = [p.uid for p in quick_subset()]


def _assert_matches(res, ref, collect_trace):
    assert res.steps == ref.steps
    assert res.registers == ref.registers
    assert res.memory.data_image() == ref.memory.data_image()
    if collect_trace:
        assert res.trace == ref.trace
    else:
        assert res.trace is None


def assert_parity(program, make_memory, collect_trace=True, max_steps=2_000_000):
    """Differential run on fresh memories; compare everything."""
    ref = execute(
        program, make_memory(), max_steps=max_steps, collect_trace=collect_trace
    )
    fast = execute_fast(
        program, make_memory(), max_steps=max_steps, collect_trace=collect_trace
    )
    _assert_matches(fast, ref, collect_trace)
    return ref, fast


class TestBenchmarkParity:
    """Stat-for-stat equality on the full 36-benchmark suite."""

    @pytest.mark.parametrize("uid", ALL_UIDS)
    def test_turnpike_build_parity(self, uid):
        workload = build_workload(profile(uid))
        compiled = compile_program(workload.program, turnpike_config())
        assert_parity(compiled.program, workload.fresh_memory)

    @pytest.mark.parametrize("uid", QUICK_UIDS)
    @pytest.mark.parametrize("scheme", ["baseline", "turnstile", "turnpike"])
    def test_scheme_sweep_timing_parity(self, uid, scheme):
        workload = build_workload(profile(uid))
        if scheme == "baseline":
            compiled = compile_baseline(workload.program)
            hw = ResilienceHardwareConfig.baseline()
        elif scheme == "turnstile":
            compiled = compile_program(workload.program, turnstile_config())
            hw = ResilienceHardwareConfig.turnstile(wcdl=10)
        else:
            compiled = compile_program(workload.program, turnpike_config())
            hw = ResilienceHardwareConfig.turnpike(wcdl=10)
        ref, fast = assert_parity(compiled.program, workload.fresh_memory)
        ref_stats = InOrderCore(CoreConfig(), hw).run(ref.trace)
        fast_stats = InOrderCore(CoreConfig(), hw).run(fast.trace)
        assert fast_stats == ref_stats
        assert fast_stats.cycles == ref_stats.cycles
        assert fast_stats.sb_stall_cycles == ref_stats.sb_stall_cycles
        assert fast_stats.clq_occupancy_avg == ref_stats.clq_occupancy_avg
        assert fast_stats.colored_released == ref_stats.colored_released

    @pytest.mark.parametrize("uid", QUICK_UIDS)
    def test_untraced_parity(self, uid):
        workload = build_workload(profile(uid))
        compiled = compile_program(workload.program, turnpike_config())
        assert_parity(compiled.program, workload.fresh_memory, collect_trace=False)


_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class TestRandomProgramParity:
    """Hypothesis: parity holds for arbitrary generated programs too."""

    @given(random_programs())
    @_SETTINGS
    def test_source_program_parity(self, prog):
        assert_parity(prog, Memory)

    @given(random_programs())
    @_SETTINGS
    def test_compiled_program_parity(self, prog):
        for compiled in (
            compile_baseline(prog),
            compile_program(prog, turnstile_config()),
            compile_program(prog, turnpike_config()),
        ):
            assert_parity(compiled.program, Memory)


class TestFastProgramBehaviour:
    def test_compiled_object_is_reusable(self, sum_loop):
        fast = compile_fast(sum_loop)
        assert isinstance(fast, FastProgram)
        first = fast.execute(Memory(), collect_trace=True)
        second = fast.execute(Memory(), collect_trace=True)
        assert first.trace == second.trace
        assert first.registers == second.registers
        assert first.memory.data_image() == second.memory.data_image()

    def test_limit_exceeded_message_parity(self, sum_loop):
        with pytest.raises(ExecutionLimitExceeded) as ref_exc:
            execute(sum_loop, Memory(), max_steps=10)
        with pytest.raises(ExecutionLimitExceeded) as fast_exc:
            execute_fast(sum_loop, Memory(), max_steps=10)
        assert str(fast_exc.value) == str(ref_exc.value)

    def test_limit_not_raised_at_exact_budget(self, sum_loop):
        ref = execute(sum_loop, Memory())
        fast = execute_fast(sum_loop, Memory(), max_steps=ref.steps)
        assert fast.steps == ref.steps

    def test_partial_register_initialisation(self, diamond):
        reg = sorted(diamond.all_registers(), key=lambda r: r.index)[0]
        init = {reg: 7}
        ref = execute(diamond, Memory(), initial_registers=init)
        fast = execute_fast(diamond, Memory(), initial_registers=init)
        assert fast.registers == ref.registers
        assert fast.memory.data_image() == ref.memory.data_image()
