"""Fast-path functional backend: exit-table basic-block compilation.

The reference interpreter (:mod:`repro.runtime.interpreter`) decodes and
dispatches opcode-by-opcode for every *dynamic* instruction. This module
decodes each basic block exactly once: :func:`compile_fast` lowers every
block into a specialised Python step function in which register slots,
immediates, wrap-to-32-bit arithmetic, trace tuples and branch auxiliary
bits are all folded into the generated source at compile time. Executing
the program then replays those closed-over step functions — one call per
dynamic basic block instead of one dispatch per dynamic instruction.

Generation 2 replaces the "return the next block index" convention with
an **exit table**: every step function returns a program-global *exit
id* ``e`` naming the static CFG edge it left through, and the driver
advances with three flat-table lookups::

    e = funcs[idx](R, M, T)
    steps += ESTEPS[e]        # instructions retired on that path
    counts[e] += 1            # which exits ran (final registers)
    idx = ETARGET[e]          # statically known successor (-1 on RET)

Because every exit is one static CFG edge, the per-exit counts also
say which register slots a run wrote, so final registers are rebuilt
from the exits taken rather than from every slot.

The backend is held to a *bit-identical* contract with the reference
interpreter (enforced by ``tests/test_fastsim_parity.py``):

* identical final :class:`~repro.runtime.memory.Memory` image,
* identical final register map and dynamic step count,
* an identical trace, tuple for tuple — so the timing core produces the
  same cycle counts, store-buffer stalls and CLQ/coloring statistics no
  matter which backend generated the trace.

The only tolerated divergence is *where* inside an over-budget run an
:class:`ExecutionLimitExceeded` is raised: the fast backend checks the
dynamic-instruction budget at exit granularity (after the block that
crossed it) rather than per instruction, so the partial memory state at
the point of the raise may differ. Whether a run raises at all — and
the message it raises with — is identical, and successful runs are
unaffected.

Generated code for one block looks like::

    def _b3_t(R, M, T):
        A = T.append
        g5 = R[5]
        g3 = R[3]
        g5 = (((g5 + g3) + 2147483648 & 4294967295) - 2147483648)
        A((0, 5, 5, 3, -1, 2, 0))
        _a = g3 + (8)
        M[_a] = (((g5) + 2147483648 & 4294967295) - 2147483648)
        A((4, -1, 5, 3, _a, 2, 0))
        _tk = g5 < g3
        A((6, -1, 5, 3, 41, 2, 3) if _tk else (6, -1, 5, 3, 41, 2, 2))
        R[5] = g5
        return 7 if _tk else 8

Trace tuples whose fields are all static (every ALU/CKPT/BOUNDARY entry,
and both arms of every branch) become constant tuples, which CPython
folds into code-object constants: appending one is a single
``LOAD_CONST`` + call.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.isa.instructions import Instruction, Opcode
from repro.isa.program import Program
from repro.isa.registers import Reg
from repro.runtime import trace as tr
from repro.runtime.interpreter import (
    ExecutionLimitExceeded,
    ExecutionResult,
    _reg_index,
)
from repro.runtime.memory import Memory, STACK_BASE

__all__ = ["ExitTable", "FastProgram", "compile_fast", "execute_fast"]


# Signed 32-bit wrap as a branch-free expression (identical results to
# memory.wrap32 for every int): ((x + 2^31) & (2^32 - 1)) - 2^31.
def _wrap(expr: str) -> str:
    return f"((({expr}) + 2147483648 & 4294967295) - 2147483648)"


_BRANCH_CMP = {
    Opcode.BEQ: "==",
    Opcode.BNE: "!=",
    Opcode.BLT: "<",
    Opcode.BGE: ">=",
}


def _alu_expr(instr: Instruction, use: Callable[[Reg], str]) -> str:
    """The exact expression :func:`interpreter._eval_alu` computes."""
    op = instr.op
    if op is Opcode.LI:
        from repro.runtime.memory import wrap32

        return repr(wrap32(instr.imm))
    if op is Opcode.MOV:
        return use(instr.srcs[0])
    if op is Opcode.ADDI:
        return _wrap(f"{use(instr.srcs[0])} + ({instr.imm})")
    if op is Opcode.MULI:
        return _wrap(f"{use(instr.srcs[0])} * ({instr.imm})")
    if op is Opcode.ANDI:
        return f"{use(instr.srcs[0])} & ({instr.imm})"
    if op is Opcode.SHLI:
        return _wrap(f"{use(instr.srcs[0])} << {instr.imm & 31}")
    if op is Opcode.SHRI:
        return f"({use(instr.srcs[0])} & 4294967295) >> {instr.imm & 31}"
    if op is Opcode.NOP:
        return "0"
    a = use(instr.srcs[0])
    b = use(instr.srcs[1])
    if op is Opcode.ADD:
        return _wrap(f"{a} + {b}")
    if op is Opcode.SUB:
        return _wrap(f"{a} - {b}")
    if op is Opcode.MUL:
        return _wrap(f"{a} * {b}")
    if op is Opcode.DIV:
        # int(a / b): C-style truncation via float division, exactly as
        # the reference interpreter computes it.
        return f"(0 if {b} == 0 else {_wrap(f'int({a} / {b})')})"
    if op is Opcode.REM:
        return f"(0 if {b} == 0 else {_wrap(f'{a} - int({a} / {b}) * {b}')})"
    if op is Opcode.AND:
        return f"{a} & {b}"
    if op is Opcode.OR:
        return f"{a} | {b}"
    if op is Opcode.XOR:
        return f"{a} ^ {b}"
    if op is Opcode.SHL:
        return _wrap(f"{a} << ({b} & 31)")
    if op is Opcode.SHR:
        return f"({a} & 4294967295) >> ({b} & 31)"
    if op is Opcode.SLT:
        return f"(1 if {a} < {b} else 0)"
    if op is Opcode.SEQ:
        return f"(1 if {a} == {b} else 0)"
    raise ValueError(f"unhandled opcode {op}")


def _region_of(instr: Instruction) -> int:
    return -1 if instr.region_id is None else instr.region_id


class ExitTable:
    """Static metadata for every exit of a compiled program.

    One row per exit, all columns parallel flat lists:

    * ``steps[e]`` — dynamic instructions retired when leaving via ``e``;
    * ``target[e]`` — static successor block index, -1 for RET;
    * ``writes[e]`` — sorted tuple of register slots written on that
      path (drives final-register reconstruction).
    """

    __slots__ = ("steps", "target", "writes")

    def __init__(self) -> None:
        self.steps: list[int] = []
        self.target: list[int] = []
        self.writes: list[tuple[int, ...]] = []

    def add(self, steps: int, target: int, writes: tuple[int, ...]) -> int:
        """Register one exit; returns its id."""
        eid = len(self.steps)
        self.steps.append(steps)
        self.target.append(target)
        self.writes.append(writes)
        return eid

    def __len__(self) -> int:
        return len(self.steps)


class _FnState:
    """Mutable emission state for one generated step function.

    A register defined earlier in the block is read from its local
    (``g<slot>``) rather than re-loaded from ``R``; locals are written
    back once, at the exit.
    """

    __slots__ = ("body", "defined", "loaded", "load_order", "writes", "length")

    def __init__(self) -> None:
        self.body: list[tuple[str, bool]] = []  # (line, trace_only)
        self.defined: set[str] = set()
        self.loaded: set[str] = set()
        self.load_order: list[tuple[str, int]] = []
        self.writes: set[int] = set()
        self.length = 0

    def use(self, reg: Reg) -> str:
        slot = _reg_index(reg)
        name = f"g{slot}"
        if name not in self.defined and name not in self.loaded:
            self.loaded.add(name)
            self.load_order.append((name, slot))
        return name

    def define(self, reg: Reg) -> str:
        slot = _reg_index(reg)
        name = f"g{slot}"
        self.defined.add(name)
        self.writes.add(slot)
        return name

    def emit(self, line: str, trace_only: bool = False) -> None:
        self.body.append((line, trace_only))

    def writes_tuple(self) -> tuple[int, ...]:
        return tuple(sorted(self.writes))

    def writeback_lines(self) -> list[str]:
        return sorted(f"R[{slot}] = g{slot}" for slot in self.writes)

    def prologue_lines(self) -> list[str]:
        return [f"{name} = R[{slot}]" for name, slot in self.load_order]

    def assemble(self, tail: list[str]) -> tuple[list[str], list[str]]:
        """(trace_lines, plain_lines) for the function body + ``tail``.

        The traced variant batches runs of *constant* trace appends
        (every ALU/CKPT/BOUNDARY tuple — no ``_a``, no branch
        conditional) into a single ``T.extend`` of a constant tuple of
        tuples, which CPython folds into one code-object constant: a
        run of N appends costs one ``LOAD_CONST`` + one call instead of
        N. Order, and therefore the trace, is unchanged.
        """
        traced_body = self.prologue_lines() + [
            line for line, _ in self.body
        ]
        traced_body = _batch_const_appends(traced_body)
        plain_body = self.prologue_lines() + [
            line for line, trace_only in self.body if not trace_only
        ]
        prologue = ["A = T.append"]
        if any(line.startswith("E((") for line in traced_body):
            prologue.append("E = T.extend")
        return prologue + traced_body + tail, plain_body + tail


def _is_const_append(line: str) -> bool:
    """True for ``A((<literals>))`` — a constant trace-tuple append."""
    return (
        line.startswith("A((")
        and line.endswith("))")
        and "_a" not in line
        and " if " not in line
    )


def _batch_const_appends(lines: list[str]) -> list[str]:
    """Merge consecutive constant appends into one ``E((t1, t2, ...))``."""
    out: list[str] = []
    run: list[str] = []

    def flush() -> None:
        if len(run) == 1:
            out.append(run[0])
        elif run:
            tuples = ", ".join(line[2:-1] for line in run)
            out.append(f"E(({tuples}))")
        run.clear()

    for line in lines:
        if _is_const_append(line):
            run.append(line)
        else:
            flush()
            out.append(line)
    flush()
    return out


def _lower_block_body(
    block_instrs: list[Instruction],
    st: _FnState,
    here_order: int,
    block_order: dict[str, int],
) -> Instruction | None:
    """Lower one block's instructions into ``st``; return the terminator.

    Straight-line instructions (including a branch's comparison and every
    trace append) are emitted in place; the caller generates the control
    transfer for the returned terminator. Returns None when the block
    falls off its end without a terminator.
    """
    emit = st.emit

    for instr in block_instrs:
        st.length += 1
        op = instr.op
        srcs = instr.srcs

        if op is Opcode.BOUNDARY:
            emit(
                f"A((7, -1, -1, -1, -1, {instr.region_id or 0}, 0))",
                trace_only=True,
            )
            continue

        if op is Opcode.LD:
            base = st.use(srcs[0])
            emit(f"_a = {base} + ({instr.imm})" if instr.imm else f"_a = {base}")
            s1 = _reg_index(srcs[0])
            assert instr.dest is not None
            dest = st.define(instr.dest)
            emit(f"{dest} = M.get(_a, 0)")
            emit(
                f"A((3, {_reg_index(instr.dest)}, {s1}, -1, _a,"
                f" {_region_of(instr)}, 0))",
                trace_only=True,
            )
            continue

        if op is Opcode.ST:
            value = st.use(srcs[0])
            base = st.use(srcs[1])
            emit(f"_a = {base} + ({instr.imm})" if instr.imm else f"_a = {base}")
            emit(f"M[_a] = {_wrap(value)}")
            kind_ord = tr.STORE_KIND_ORDINAL.get(instr.store_kind, 0)
            emit(
                f"A((4, -1, {_reg_index(srcs[0])}, {_reg_index(srcs[1])},"
                f" _a, {_region_of(instr)}, {kind_ord}))",
                trace_only=True,
            )
            continue

        if op is Opcode.CKPT:
            emit(
                f"A((5, -1, {_reg_index(srcs[0])}, -1, -1,"
                f" {_region_of(instr)}, 0))",
                trace_only=True,
            )
            continue

        if op in _BRANCH_CMP:
            lhs = st.use(srcs[0])
            rhs = st.use(srcs[1])
            backward = 2 if block_order[instr.targets[0]] <= here_order else 0
            s1, s2 = _reg_index(srcs[0]), _reg_index(srcs[1])
            taken_tup = (
                f"(6, -1, {s1}, {s2}, {instr.uid}, {_region_of(instr)},"
                f" {1 | backward})"
            )
            fall_tup = (
                f"(6, -1, {s1}, {s2}, {instr.uid}, {_region_of(instr)},"
                f" {backward})"
            )
            emit(f"_tk = {lhs} {_BRANCH_CMP[op]} {rhs}")
            emit(f"A({taken_tup} if _tk else {fall_tup})", trace_only=True)
            return instr

        if op is Opcode.JMP:
            backward = 2 if block_order[instr.targets[0]] <= here_order else 0
            emit(
                f"A((6, -1, -1, -1, {instr.uid}, {_region_of(instr)},"
                f" {1 | backward | 4}))",
                trace_only=True,
            )
            return instr

        if op is Opcode.RET:
            emit("A((8, -1, -1, -1, -1, -1, 0))", trace_only=True)
            return instr

        # ALU family.
        expr = _alu_expr(instr, st.use)
        dest_slot = -1
        if instr.dest is not None:
            dest_slot = _reg_index(instr.dest)
            emit(f"{st.define(instr.dest)} = {expr}")
        src1 = _reg_index(srcs[0]) if len(srcs) > 0 else -1
        src2 = _reg_index(srcs[1]) if len(srcs) > 1 else -1
        emit(
            f"A(({tr.kind_of_opcode(op)}, {dest_slot}, {src1}, {src2}, -1,"
            f" {_region_of(instr)}, 0))",
            trace_only=True,
        )
    return None


class _BlockCode:
    """Codegen result for one block's step function."""

    __slots__ = ("length", "trace_lines", "plain_lines")

    def __init__(self, length: int, trace_lines: list[str], plain_lines: list[str]):
        self.length = length
        self.trace_lines = trace_lines
        self.plain_lines = plain_lines


def _gen_block(
    block_instrs: list[Instruction],
    label: str,
    label_index: dict[str, int],
    block_order: dict[str, int],
    exits: ExitTable,
) -> _BlockCode:
    """Lower one basic block to a step function, registering its exits."""
    st = _FnState()
    term = _lower_block_body(block_instrs, st, block_order[label], block_order)
    writes = st.writes_tuple()
    if term is None:
        # Mirror the interpreter's error for non-terminated blocks.
        ret = f"raise RuntimeError({f'fell off the end of block {label!r}'!r})"
    elif term.op is Opcode.RET:
        ret = f"return {exits.add(st.length, -1, writes)}"
    elif term.op is Opcode.JMP:
        target = label_index[term.targets[0]]
        ret = f"return {exits.add(st.length, target, writes)}"
    else:
        e_taken = exits.add(st.length, label_index[term.targets[0]], writes)
        e_fall = exits.add(st.length, label_index[term.targets[1]], writes)
        ret = f"return {e_taken} if _tk else {e_fall}"
    tail = st.writeback_lines() + [ret]
    trace_lines, plain_lines = st.assemble(tail)
    return _BlockCode(st.length, trace_lines, plain_lines)


StepFn = Callable[..., int]


class FastProgram:
    """A program lowered to per-block step functions.

    The lowering snapshots the program at compile time: mutating the
    source :class:`Program` afterwards is NOT reflected (unlike the
    reference interpreter, which re-reads instructions every step).
    """

    def __init__(self, program: Program) -> None:
        self.name = program.name
        self._sp = program.register_file.stack_pointer
        self._sp_slot = _reg_index(self._sp)
        self.exits = ExitTable()

        label_index = {b.label: i for i, b in enumerate(program.blocks)}
        block_order = {b.label: i for i, b in enumerate(program.blocks)}
        if not program.blocks:
            # Match Program.entry's complaint lazily at execute time.
            self._lens: list[int] = []
            self._tfuncs: list[StepFn] = []
            self._pfuncs: list[StepFn] = []
            self.slot_registers: dict[int, Reg] = {}
            self.num_slots = 32
            return

        codes = [
            _gen_block(
                b.instructions, b.label, label_index, block_order, self.exits
            )
            for b in program.blocks
        ]
        self._lens = [c.length for c in codes]

        src_lines: list[str] = []
        for i, code in enumerate(codes):
            src_lines.append(f"def _b{i}_t(R, M, T):")
            src_lines.extend(f"    {line}" for line in code.trace_lines)
            src_lines.append(f"def _b{i}_p(R, M):")
            src_lines.extend(f"    {line}" for line in code.plain_lines)
        namespace: dict[str, StepFn] = {}
        exec(  # noqa: S102 - the source is generated above, not user input
            compile("\n".join(src_lines), f"<fastsim:{self.name}>", "exec"),
            namespace,
        )
        self._tfuncs = [namespace[f"_b{i}_t"] for i in range(len(codes))]
        self._pfuncs = [namespace[f"_b{i}_p"] for i in range(len(codes))]

        self.slot_registers = {self._sp_slot: self._sp}
        for reg in program.all_registers():
            self.slot_registers[_reg_index(reg)] = reg
        slots = [self._sp_slot, *self.slot_registers]
        self.num_slots = max(32, max(slots) + 1)

    def execute(
        self,
        memory: Memory | None = None,
        initial_registers: dict[Reg, int] | None = None,
        max_steps: int = 2_000_000,
        collect_trace: bool = False,
    ) -> ExecutionResult:
        """Run to RET; same contract as :func:`interpreter.execute`."""
        if not self._lens:
            from repro.isa.program import ProgramError

            raise ProgramError("program has no blocks")
        mem = memory if memory is not None else Memory()
        num_slots = self.num_slots
        init_items = list(initial_registers.items()) if initial_registers else []
        for reg, _ in init_items:
            if _reg_index(reg) >= num_slots:
                num_slots = _reg_index(reg) + 1
        R = [0] * num_slots
        R[self._sp_slot] = STACK_BASE
        for reg, value in init_items:
            R[_reg_index(reg)] = value

        M = mem.cells
        esteps = self.exits.steps
        etarget = self.exits.target
        counts = [0] * len(esteps)
        trace: list[tuple] | None = None
        steps = 0
        idx = 0
        limit_msg = f"{self.name}: exceeded {max_steps} dynamic instructions"
        if collect_trace:
            trace = []
            tfuncs = self._tfuncs
            while idx >= 0:
                e = tfuncs[idx](R, M, trace)
                steps += esteps[e]
                if steps > max_steps:
                    raise ExecutionLimitExceeded(limit_msg)
                counts[e] += 1
                idx = etarget[e]
        else:
            pfuncs = self._pfuncs
            while idx >= 0:
                e = pfuncs[idx](R, M)
                steps += esteps[e]
                if steps > max_steps:
                    raise ExecutionLimitExceeded(limit_msg)
                counts[e] += 1
                idx = etarget[e]

        regs: dict[Reg, int] = {self._sp: R[self._sp_slot]}
        for reg, _ in init_items:
            regs[reg] = R[_reg_index(reg)]
        written: set[int] = set()
        ewrites = self.exits.writes
        for e, c in enumerate(counts):
            if c:
                written.update(ewrites[e])
        slot_registers = self.slot_registers
        for slot in written:
            regs[slot_registers[slot]] = R[slot]
        return ExecutionResult(mem, regs, steps, trace)


def compile_fast(program: Program) -> FastProgram:
    """Lower ``program`` to per-block step functions (decode once)."""
    return FastProgram(program)


def execute_fast(
    program: Program,
    memory: Memory | None = None,
    initial_registers: dict[Reg, int] | None = None,
    max_steps: int = 2_000_000,
    collect_trace: bool = False,
) -> ExecutionResult:
    """Drop-in replacement for :func:`interpreter.execute`.

    Compiles then runs; callers replaying the same program many times
    should hold a :class:`FastProgram` (via :func:`compile_fast`) to pay
    the block-lowering cost once.
    """
    return FastProgram(program).execute(
        memory,
        initial_registers=initial_registers,
        max_steps=max_steps,
        collect_trace=collect_trace,
    )
