"""Runtime tests: memory model, interpreter semantics, trace format."""

import pytest

from repro.isa.builder import ProgramBuilder
from repro.isa.registers import Reg
from repro.runtime import trace as tr
from repro.runtime.interpreter import (
    ExecutionLimitExceeded,
    execute,
)
from repro.runtime.memory import (
    DATA_BASE,
    DATA_LIMIT,
    Memory,
    STACK_BASE,
    wrap32,
)

from helpers import build_sum_loop


class TestMemory:
    def test_default_zero(self, empty_memory):
        assert empty_memory.load(0x1234) == 0

    def test_store_load_roundtrip(self, empty_memory):
        empty_memory.store(0x100, 42)
        assert empty_memory.load(0x100) == 42

    def test_values_wrap_to_32_bits(self, empty_memory):
        empty_memory.store(0x100, 1 << 40)
        assert empty_memory.load(0x100) == 0

    def test_negative_values(self, empty_memory):
        empty_memory.store(0x100, -5)
        assert empty_memory.load(0x100) == -5

    def test_bulk_helpers(self, empty_memory):
        empty_memory.write_words(0x200, [1, 2, 3])
        assert empty_memory.read_words(0x200, 3) == [1, 2, 3]

    def test_copy_is_independent(self, empty_memory):
        empty_memory.store(0x100, 1)
        clone = empty_memory.copy()
        clone.store(0x100, 2)
        assert empty_memory.load(0x100) == 1

    def test_data_image_excludes_stack(self, empty_memory):
        empty_memory.store(DATA_BASE + 4, 7)
        empty_memory.store(STACK_BASE + 8, 9)
        image = empty_memory.data_image()
        assert DATA_BASE + 4 in image
        assert STACK_BASE + 8 not in image

    def test_data_image_excludes_zeros(self, empty_memory):
        empty_memory.store(0x100, 0)
        assert empty_memory.data_image() == {}

    def test_equality_by_content(self):
        a, b = Memory(), Memory()
        a.store(0x10, 5)
        b.store(0x10, 5)
        b.store(0x20, 0)  # zero cells irrelevant
        assert a == b

    def test_wrap32(self):
        assert wrap32(2**31) == -(2**31)
        assert wrap32(-(2**31) - 1) == 2**31 - 1
        assert wrap32(0) == 0
        assert wrap32(123) == 123


class TestInterpreter:
    def test_sum_loop_result(self):
        prog = build_sum_loop(trip=10, store_base=0x400)
        result = execute(prog, Memory())
        # Final accumulator value: sum 0..9 = 45, stored at base+40.
        assert result.memory.load(0x400 + 40) == 45

    def test_partial_sums_stored(self):
        prog = build_sum_loop(trip=5, store_base=0x400)
        result = execute(prog, Memory())
        # partial sums after adding i: 0,1,3,6,10
        assert result.memory.read_words(0x400, 5) == [0, 1, 3, 6, 10]

    def test_stack_pointer_initialised(self):
        b = ProgramBuilder("sp")
        b.begin_block("entry")
        b.ret()
        prog = b.finish()
        result = execute(prog)
        sp = prog.register_file.stack_pointer
        assert result.registers[sp] == STACK_BASE

    def test_max_steps_enforced(self):
        b = ProgramBuilder("inf")
        b.begin_block("entry")
        b.jmp("entry")
        # unreachable ret to satisfy validation
        b.begin_block("end")
        b.ret()
        prog = b.finish()
        with pytest.raises(ExecutionLimitExceeded):
            execute(prog, max_steps=100)

    def test_division_semantics(self):
        b = ProgramBuilder("div")
        b.begin_block("entry")
        base = b.li(0x100)
        a = b.li(-7)
        two = b.li(2)
        q = b.div(a, two)
        r = b.rem(a, two)
        zero = b.li(0)
        qz = b.div(a, zero)
        b.store(q, base)
        b.store(r, base, offset=4)
        b.store(qz, base, offset=8)
        b.ret()
        result = execute(b.finish(), Memory())
        assert result.memory.load(0x100) == -3  # C-style truncation
        assert result.memory.load(0x104) == -1
        assert result.memory.load(0x108) == 0  # div by zero -> 0

    def test_shift_semantics(self):
        b = ProgramBuilder("sh")
        b.begin_block("entry")
        base = b.li(0x100)
        x = b.li(-8)
        s = b.shri(x, 1)  # logical shift of the 32-bit pattern
        l = b.shli(x, 1)
        b.store(s, base)
        b.store(l, base, offset=4)
        b.ret()
        result = execute(b.finish(), Memory())
        assert result.memory.load(0x100) == (0xFFFFFFF8 >> 1)
        assert result.memory.load(0x104) == -16

    def test_comparison_ops(self):
        b = ProgramBuilder("cmp")
        b.begin_block("entry")
        base = b.li(0x100)
        a = b.li(3)
        c = b.li(5)
        b.store(b.slt(a, c), base)
        b.store(b.slt(c, a), base, offset=4)
        b.store(b.seq(a, a), base, offset=8)
        b.ret()
        result = execute(b.finish(), Memory())
        assert result.memory.read_words(0x100, 3) == [1, 0, 1]

    def test_initial_registers_override(self):
        b = ProgramBuilder("init")
        b.begin_block("entry")
        x = b.live_in()
        base = b.li(0x100)
        b.store(x, base)
        b.ret()
        prog = b.finish()
        result = execute(prog, Memory(), initial_registers={x: 77})
        assert result.memory.load(0x100) == 77


class TestTrace:
    def _trace(self, prog, memory=None):
        result = execute(prog, memory or Memory(), collect_trace=True)
        return result.trace, result

    def test_trace_kinds(self):
        prog = build_sum_loop(trip=3)
        trace, _ = self._trace(prog)
        kinds = {e[0] for e in trace}
        assert tr.K_ST in kinds and tr.K_BR in kinds and tr.K_RET in kinds

    def test_store_addresses_recorded(self):
        prog = build_sum_loop(trip=3, store_base=0x400)
        trace, _ = self._trace(prog)
        store_addrs = [e[4] for e in trace if e[0] == tr.K_ST]
        assert 0x400 in store_addrs

    def test_branch_taken_flags(self):
        prog = build_sum_loop(trip=3)
        trace, _ = self._trace(prog)
        branches = [e for e in trace if e[0] == tr.K_BR and not (e[6] & 4)]
        taken = [e for e in branches if e[6] & 1]
        not_taken = [e for e in branches if not (e[6] & 1)]
        assert len(taken) == 2  # loop back edges
        assert len(not_taken) == 1  # final exit

    def test_branch_static_ids_stable(self):
        prog = build_sum_loop(trip=4)
        trace, _ = self._trace(prog)
        cond = [e for e in trace if e[0] == tr.K_BR and not (e[6] & 4)]
        assert len({e[4] for e in cond}) == 1  # one static branch

    def test_jumps_marked_unconditional(self):
        prog = build_sum_loop(trip=2)
        trace, _ = self._trace(prog)
        jumps = [e for e in trace if e[0] == tr.K_BR and (e[6] & 4)]
        assert jumps  # the entry->loop jump

    def test_summary_counts(self):
        prog = build_sum_loop(trip=5)
        trace, result = self._trace(prog)
        summary = result.summary()
        assert summary.total == len(trace)
        assert summary.regular_stores == 6  # 5 in-loop + 1 final
        assert summary.checkpoints == 0
        assert summary.committed == summary.total  # no boundaries

    def test_boundaries_excluded_from_committed(self, gcc_turnstile, gcc_workload):
        result = execute(
            gcc_turnstile.program, gcc_workload.fresh_memory(), collect_trace=True
        )
        summary = result.summary()
        assert summary.boundaries > 0
        assert summary.committed == summary.total - summary.boundaries
