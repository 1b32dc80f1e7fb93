"""The opcode semantics table, checked against itself and its consumers.

Every executor, recovery evaluation and the bit-level vulnerability
analysis derive from :mod:`repro.isa.semantics`, so the table is checked
here against an oracle written independently of its templates: exact
integer arithmetic, no float division, and bitwise operations computed
digit by digit. Its demand rules are checked the way BEC checks a
bit-level analysis, by flipping every source bit a rule calls
undemanded and watching the demanded result bits.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler.config import turnpike_config
from repro.compiler.pipeline import CompiledProgram
from repro.compiler.recovery import build_recovery_map
from repro.compiler.recovery_codegen import (
    RecoveryBlock,
    RecoveryStep,
    evaluate_recovery_block,
)
from repro.isa import instructions as ins
from repro.isa.builder import ProgramBuilder
from repro.isa.instructions import (
    ALU_RI_OPS,
    ALU_RR_OPS,
    BRANCH_OPS,
    Instruction,
    Opcode,
)
from repro.isa.registers import Reg
from repro.isa.semantics import EVALUATORS, SEMANTICS
from repro.runtime import trace as tr
from repro.runtime.fastsim import FastProgram
from repro.runtime.interpreter import execute
from repro.runtime.machine import ResilientMachine, turnpike_machine_config
from repro.runtime.memory import Memory, wrap32

ALU_OPS = ALU_RR_OPS | ALU_RI_OPS | {Opcode.LI, Opcode.MOV, Opcode.NOP}
VALUE_OPS = sorted(ALU_OPS | BRANCH_OPS, key=lambda op: op.value)

# Bitwise ops do not wrap and SHR reaches 2**32 - 1, so a register can
# hold any value in [-2**32, 2**32).
OPERANDS = st.integers(-(2**32), 2**32 - 1)
FULL = 2**32 - 1


def _arity(op: Opcode) -> int:
    if op in ALU_RR_OPS or op in BRANCH_OPS:
        return 2
    if op in ALU_RI_OPS or op is Opcode.MOV:
        return 1
    return 0


# -- the independent oracle --------------------------------------------------


def _signed32(x: int) -> int:
    """The representative of ``x`` modulo 2**32 in [-2**31, 2**31)."""
    r = x % 2**32
    return r - 2**32 if r >= 2**31 else r


def _quotient(a: int, b: int) -> int:
    """The exact quotient of ``a / b`` rounded toward zero."""
    q = abs(a) // abs(b)
    return q if (a < 0) == (b < 0) else -q


def _digitwise(f, x: int, y: int) -> int:
    """``f`` applied to each two's-complement binary digit of ``x``/``y``."""
    width = max(x.bit_length(), y.bit_length()) + 1
    xs, ys = x % 2**width, y % 2**width
    r = sum(
        f(xs // 2**i % 2, ys // 2**i % 2) * 2**i for i in range(width)
    )
    return r - 2**width if r >= 2 ** (width - 1) else r


def _and(p: int, q: int) -> int:
    return p * q


def _or(p: int, q: int) -> int:
    return max(p, q)


def _xor(p: int, q: int) -> int:
    return (p + q) % 2


ORACLE = {
    Opcode.ADD: lambda a, b, imm: _signed32(a + b),
    Opcode.SUB: lambda a, b, imm: _signed32(a - b),
    Opcode.MUL: lambda a, b, imm: _signed32(a * b),
    Opcode.DIV: lambda a, b, imm: 0 if b == 0 else _signed32(_quotient(a, b)),
    Opcode.REM: lambda a, b, imm: (
        0 if b == 0 else _signed32(a - _quotient(a, b) * b)
    ),
    Opcode.AND: lambda a, b, imm: _digitwise(_and, a, b),
    Opcode.OR: lambda a, b, imm: _digitwise(_or, a, b),
    Opcode.XOR: lambda a, b, imm: _digitwise(_xor, a, b),
    Opcode.SHL: lambda a, b, imm: _signed32(a * 2 ** (b % 32)),
    Opcode.SHR: lambda a, b, imm: a % 2**32 // 2 ** (b % 32),
    Opcode.SLT: lambda a, b, imm: int(b - a > 0),
    Opcode.SEQ: lambda a, b, imm: int(a - b == 0),
    Opcode.ADDI: lambda a, b, imm: _signed32(a + imm),
    Opcode.MULI: lambda a, b, imm: _signed32(a * imm),
    Opcode.ANDI: lambda a, b, imm: _digitwise(_and, a, imm),
    Opcode.SHLI: lambda a, b, imm: _signed32(a * 2 ** (imm % 32)),
    Opcode.SHRI: lambda a, b, imm: a % 2**32 // 2 ** (imm % 32),
    Opcode.LI: lambda a, b, imm: _signed32(imm),
    Opcode.MOV: lambda a, b, imm: a,
    Opcode.NOP: lambda a, b, imm: 0,
    Opcode.BEQ: lambda a, b, imm: a - b == 0,
    Opcode.BNE: lambda a, b, imm: a - b != 0,
    Opcode.BLT: lambda a, b, imm: a - b < 0,
    Opcode.BGE: lambda a, b, imm: a - b >= 0,
}


class TestTotality:
    def test_every_opcode_has_one_known_kind(self):
        assert set(SEMANTICS) == set(Opcode)
        for op in Opcode:
            assert SEMANTICS[op].kind in tr.KIND_NAMES.values()
            assert tr.kind_of_opcode(op) in range(9)

    def test_alu_and_branch_opcodes_have_values_and_no_other_does(self):
        assert set(EVALUATORS) == ALU_OPS | BRANCH_OPS
        for op in Opcode:
            assert (SEMANTICS[op].value is not None) == (op in EVALUATORS)

    def test_oracle_covers_every_value_row(self):
        assert set(ORACLE) == set(EVALUATORS)


@pytest.mark.parametrize("op", VALUE_OPS, ids=lambda op: op.name)
@settings(max_examples=200, deadline=None)
@given(a=OPERANDS, b=OPERANDS, imm=st.integers())
def test_value_matches_exact_integer_oracle(op, a, b, imm):
    assert EVALUATORS[op](a, b, imm) == ORACLE[op](a, b, imm)


# -- demand soundness ---------------------------------------------------------

# The rows whose rule leaves some source bit undemanded (the others
# demand every bit, which is trivially sound).
DEMAND_OPS = [
    op
    for op in VALUE_OPS
    if SEMANTICS[op].demand is not None
    and _arity(op)
    and SEMANTICS[op].demand(1, 0) != FULL
]


@pytest.mark.parametrize("op", DEMAND_OPS, ids=lambda op: op.name)
@settings(max_examples=200, deadline=None)
@given(a=OPERANDS, b=OPERANDS, imm=st.integers(), data=st.data())
def test_undemanded_source_bits_never_reach_demanded_result_bits(
    op, a, b, imm, data
):
    """Flip a source bit outside the mask the row's rule gives that
    source, as the machine flips a register: the demanded bits of the
    result's low 32 must not move."""
    row = SEMANTICS[op]
    dmask = data.draw(
        st.integers(0, 31).flatmap(lambda top: st.integers(1, 2 ** (top + 1) - 1)),
        label="dmask",
    )
    source = data.draw(st.integers(0, _arity(op) - 1), label="source")
    demanded = row.demand(dmask, imm)
    free = [k for k in range(32) if demanded // 2**k % 2 == 0]
    if not free:
        return  # every bit demanded here: nothing to flip
    k = data.draw(st.sampled_from(free), label="bit")
    flipped = [a, b]
    flipped[source] = wrap32(flipped[source] ^ (1 << k))
    before = EVALUATORS[op](a, b, imm) & FULL & dmask
    after = EVALUATORS[op](*flipped, imm) & FULL & dmask
    assert before == after


# -- one value across consumers -----------------------------------------------

R_A, R_B, R_D = Reg.phys(1), Reg.phys(2), Reg.phys(3)


def _alu_instruction(op: Opcode, imm: int) -> Instruction:
    if op in ALU_RR_OPS:
        return ins.alu_rr(op, R_D, R_A, R_B)
    if op in ALU_RI_OPS:
        return ins.alu_ri(op, R_D, R_A, imm)
    if op is Opcode.LI:
        return ins.li(R_D, imm)
    if op is Opcode.MOV:
        return ins.mov(R_D, R_A)
    return Instruction(Opcode.NOP, dest=R_D)


def _package(op: Opcode, imm: int) -> CompiledProgram:
    """``r3 = op(r1, r2, imm)``, or for a branch ``r3 = 1`` when taken
    and 2 when not, as one resilient region over physical registers."""
    b = ProgramBuilder(f"semantics_{op.value}")
    b.begin_block("entry")
    b.emit(ins.boundary())
    if op in BRANCH_OPS:
        b.emit(ins.branch(op, R_A, R_B, "taken", "fallthrough"))
        for label, value in (("taken", 1), ("fallthrough", 2)):
            b.begin_block(label)
            b.emit(ins.li(R_D, value))
            b.ret()
    else:
        b.emit(_alu_instruction(op, imm))
        b.ret()
    program = b.finish()
    for instr in program.instructions():
        instr.region_id = 0
    return CompiledProgram(
        program=program,
        config=turnpike_config(),
        partition=None,
        recovery=build_recovery_map(program),
    )


def _machine_value(compiled: CompiledProgram, a: int, b: int) -> int:
    machine = ResilientMachine(compiled, turnpike_machine_config(), Memory())
    machine.set_initial_register(R_A, a)
    machine.set_initial_register(R_B, b)
    machine.run()
    return machine.regs[R_D]


def _recovery_value(op: Opcode, a: int, b: int, imm: int) -> int:
    operands = (R_A, R_B)[: _arity(op)]
    block = RecoveryBlock(region_id=0, resume_block="entry", resume_index=0)
    block.steps.extend(
        RecoveryStep(kind="load", target=reg, source_reg=reg) for reg in operands
    )
    block.steps.append(
        RecoveryStep(kind="op", target=R_D, opcode=op, operands=operands, imm=imm)
    )
    bindings = {R_A.index: ("value", a), R_B.index: ("value", b)}
    return evaluate_recovery_block(block, bindings)[R_D]


@pytest.mark.parametrize("op", VALUE_OPS, ids=lambda op: op.name)
@settings(max_examples=30, deadline=None)
@given(a=OPERANDS, b=OPERANDS, imm=st.integers(-(2**40), 2**40))
def test_every_consumer_computes_the_same_value(op, a, b, imm):
    compiled = _package(op, imm)
    initial = {R_A: a, R_B: b}
    values = {
        "interpreter": execute(
            compiled.program, Memory(), initial_registers=initial
        ).registers[R_D],
        "fastsim": FastProgram(compiled.program)
        .execute(Memory(), initial_registers=initial)
        .registers[R_D],
        "machine": _machine_value(compiled, a, b),
    }
    if op in BRANCH_OPS:
        expected = 1 if ORACLE[op](a, b, imm) else 2
    else:
        values["recovery"] = _recovery_value(op, a, b, imm)
        expected = ORACLE[op](a, b, imm)
    assert values == dict.fromkeys(values, expected)
