"""Functional interpreter for TK programs (the golden model).

Executes a program over a :class:`Memory`, optionally emitting the
dynamic trace consumed by the timing core. Checkpoints and boundaries are
functional no-ops here (checkpoint values are recorded for observability
only); the full resilience protocol lives in
:mod:`repro.runtime.machine`.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.isa.instructions import BRANCH_OPS, Instruction, Opcode
from repro.isa.program import Program
from repro.isa.registers import Reg
from repro.isa.semantics import EVALUATORS
from repro.runtime.memory import Memory, STACK_BASE
from repro.runtime import trace as tr


class ExecutionLimitExceeded(RuntimeError):
    """The interpreter hit its dynamic instruction budget."""


class ExecutionResult:
    """Outcome of a functional run."""

    def __init__(
        self,
        memory: Memory,
        registers: dict[Reg, int],
        steps: int,
        trace: list[tuple] | None,
    ):
        self.memory = memory
        self.registers = registers
        self.steps = steps
        self.trace = trace

    def summary(self) -> tr.TraceSummary:
        if self.trace is None:
            raise ValueError("run was executed without trace collection")
        return tr.TraceSummary(self.trace)


def _reg_index(reg: Reg | None) -> int:
    if reg is None:
        return -1
    # Virtual registers are offset so they never collide with physical
    # indices in traces (timing runs always use physical programs).
    return reg.index if not reg.is_virtual else reg.index + 1024


def execute(
    program: Program,
    memory: Memory | None = None,
    initial_registers: dict[Reg, int] | None = None,
    max_steps: int = 2_000_000,
    collect_trace: bool = False,
) -> ExecutionResult:
    """Run ``program`` to its RET; returns final state (and trace).

    The stack pointer is initialised to ``STACK_BASE``; every other
    register starts at 0 unless overridden by ``initial_registers``.
    """
    mem = memory if memory is not None else Memory()
    regs: dict[Reg, int] = {program.register_file.stack_pointer: STACK_BASE}
    if initial_registers:
        regs.update(initial_registers)

    blocks = {b.label: b.instructions for b in program.blocks}
    block_order = {b.label: i for i, b in enumerate(program.blocks)}
    label = program.entry.label
    instrs = blocks[label]
    pc = 0
    steps = 0
    trace: list[tuple] | None = [] if collect_trace else None

    get = regs.get
    while True:
        if pc >= len(instrs):
            raise RuntimeError(f"fell off the end of block {label!r}")
        instr = instrs[pc]
        steps += 1
        if steps > max_steps:
            raise ExecutionLimitExceeded(
                f"{program.name}: exceeded {max_steps} dynamic instructions"
            )
        op = instr.op
        srcs = instr.srcs

        if op is Opcode.BOUNDARY:
            if trace is not None:
                trace.append(
                    (tr.K_BOUNDARY, -1, -1, -1, -1, instr.region_id or 0, 0)
                )
            pc += 1
            continue

        if op is Opcode.LD:
            addr = get(srcs[0], 0) + instr.imm
            value = mem.load(addr)
            regs[instr.dest] = value
            if trace is not None:
                trace.append(
                    (
                        tr.K_LD,
                        _reg_index(instr.dest),
                        _reg_index(srcs[0]),
                        -1,
                        addr,
                        -1 if instr.region_id is None else instr.region_id,
                        0,
                    )
                )
            pc += 1
            continue

        if op is Opcode.ST:
            addr = get(srcs[1], 0) + instr.imm
            mem.store(addr, get(srcs[0], 0))
            if trace is not None:
                kind_ord = tr.STORE_KIND_ORDINAL.get(instr.store_kind, 0)
                trace.append(
                    (
                        tr.K_ST,
                        -1,
                        _reg_index(srcs[0]),
                        _reg_index(srcs[1]),
                        addr,
                        -1 if instr.region_id is None else instr.region_id,
                        kind_ord,
                    )
                )
            pc += 1
            continue

        if op is Opcode.CKPT:
            if trace is not None:
                trace.append(
                    (
                        tr.K_CKPT,
                        -1,
                        _reg_index(srcs[0]),
                        -1,
                        -1,
                        -1 if instr.region_id is None else instr.region_id,
                        0,
                    )
                )
            pc += 1
            continue

        if op in BRANCH_OPS:
            taken = EVALUATORS[op](get(srcs[0], 0), get(srcs[1], 0), 0)
            target = instr.targets[0] if taken else instr.targets[1]
            if trace is not None:
                backward = block_order[instr.targets[0]] <= block_order[label]
                aux = (1 if taken else 0) | (2 if backward else 0)
                trace.append(
                    (
                        tr.K_BR,
                        -1,
                        _reg_index(srcs[0]),
                        _reg_index(srcs[1]),
                        instr.uid,  # static branch id for the predictor
                        -1 if instr.region_id is None else instr.region_id,
                        aux,
                    )
                )
            label = target
            instrs = blocks[label]
            pc = 0
            continue

        if op is Opcode.JMP:
            if trace is not None:
                backward = block_order[instr.targets[0]] <= block_order[label]
                trace.append(
                    (
                        tr.K_BR,
                        -1,
                        -1,
                        -1,
                        instr.uid,
                        -1 if instr.region_id is None else instr.region_id,
                        1 | (2 if backward else 0) | 4,  # bit2: unconditional
                    )
                )
            label = instr.targets[0]
            instrs = blocks[label]
            pc = 0
            continue

        if op is Opcode.RET:
            if trace is not None:
                trace.append((tr.K_RET, -1, -1, -1, -1, -1, 0))
            return ExecutionResult(mem, regs, steps, trace)

        # ALU family.
        n = len(srcs)
        value = EVALUATORS[op](
            get(srcs[0], 0) if n else 0,
            get(srcs[1], 0) if n > 1 else 0,
            instr.imm,
        )
        if instr.dest is not None:
            regs[instr.dest] = value
        if trace is not None:
            src1 = _reg_index(srcs[0]) if n else -1
            src2 = _reg_index(srcs[1]) if n > 1 else -1
            trace.append(
                (
                    tr.kind_of_opcode(op),
                    _reg_index(instr.dest),
                    src1,
                    src2,
                    -1,
                    -1 if instr.region_id is None else instr.region_id,
                    0,
                )
            )
        pc += 1


def replay(
    program: Program, trace: list[tuple]
) -> Iterator[tuple[Instruction, tuple]]:
    """Pair each entry of an :func:`execute` trace with its instruction.

    ``execute`` appends exactly one entry per instruction it runs, and a
    branch entry's ``aux & 1`` says which target it took, so walking the
    blocks along the trace recovers the dynamic instruction stream.
    """
    blocks = {b.label: b.instructions for b in program.blocks}
    instrs = blocks[program.entry.label]
    pc = 0
    for entry in trace:
        instr = instrs[pc]
        yield instr, entry
        if instr.targets:
            instrs = blocks[instr.targets[0] if entry[6] & 1 else instr.targets[1]]
            pc = 0
        else:
            pc += 1
