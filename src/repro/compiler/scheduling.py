"""Checkpoint-aware local instruction scheduling (Section 4.2).

In-order pipelines stall when a checkpoint store immediately follows the
instruction producing the checkpointed register (a RAW hazard whose cost
is the producer's full latency — painful after loads). The paper fills
that gap with independent instructions.

We implement classic list scheduling over the dependence DAG of each
straight-line segment (between BOUNDARY markers / block ends), with a
priority function that (a) favours long-critical-path instructions and
(b) deprioritises stores and checkpoints so they drift as late as their
dependences allow — equivalently, independent work is hoisted between a
definition and its dependent checkpoint.

Memory ordering is conservative: regular stores and loads keep their
relative order (unknown aliasing), while checkpoint stores only order
against themselves per register — checkpoint storage never aliases
program memory (the paper's footnote 3 makes the same argument for LLVM).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.instructions import Instruction, Opcode
from repro.isa.program import Program
from repro.isa.registers import Reg
from repro.isa.semantics import SEMANTICS

# Static latency estimates by trace kind, used only for scheduling
# priorities and the R6 hazard audit; every other kind takes one cycle.
_LATENCY = {"ld": 3, "mul": 3, "div": 12}


def op_latency(op: Opcode) -> int:
    """Estimated cycles from issuing ``op`` to its result being usable."""
    return _LATENCY.get(SEMANTICS[op].kind, 1)


@dataclass
class SchedulingStats:
    segments: int
    reordered: int  # instructions whose position changed


def _segment_ranges(instrs: list[Instruction]) -> list[tuple[int, int]]:
    """Maximal scheduling segments: no BOUNDARY inside, terminator pinned."""
    ranges: list[tuple[int, int]] = []
    start = 0
    for pos, instr in enumerate(instrs):
        if instr.is_boundary:
            if pos > start:
                ranges.append((start, pos))
            start = pos + 1
        elif instr.is_terminator:
            if pos > start:
                ranges.append((start, pos))
            start = pos + 1
    if start < len(instrs):
        ranges.append((start, len(instrs)))
    return ranges


def _build_dag(segment: list[Instruction]) -> list[list[int]]:
    """Return successor lists; edge i -> j means j must follow i."""
    n = len(segment)
    succs: list[list[int]] = [[] for _ in range(n)]
    last_def: dict[Reg, int] = {}
    uses_since_def: dict[Reg, list[int]] = {}
    last_mem: int | None = None  # last regular store
    last_loads: list[int] = []  # loads since the last regular store
    last_ckpt_of: dict[Reg, int] = {}

    def add_edge(i: int, j: int) -> None:
        if i != j:
            succs[i].append(j)

    for j, instr in enumerate(segment):
        # RAW: every source depends on its last definition.
        for src in instr.srcs:
            if src in last_def:
                add_edge(last_def[src], j)
            uses_since_def.setdefault(src, []).append(j)
        dest = instr.dest
        if dest is not None:
            # WAW and WAR.
            if dest in last_def:
                add_edge(last_def[dest], j)
            for use in uses_since_def.get(dest, ()):  # WAR
                add_edge(use, j)
            last_def[dest] = j
            uses_since_def[dest] = []
        # Memory ordering.
        if instr.op is Opcode.ST:
            if last_mem is not None:
                add_edge(last_mem, j)
            for load in last_loads:
                add_edge(load, j)
            last_mem = j
            last_loads = []
        elif instr.op is Opcode.LD:
            if last_mem is not None:
                add_edge(last_mem, j)
            last_loads.append(j)
        elif instr.is_checkpoint:
            reg = instr.srcs[0]
            if reg in last_ckpt_of:
                add_edge(last_ckpt_of[reg], j)
            last_ckpt_of[reg] = j
    return succs


def _schedule_segment(segment: list[Instruction]) -> list[Instruction]:
    """List-schedule one segment; returns the new order."""
    n = len(segment)
    if n <= 2:
        return list(segment)
    succs = _build_dag(segment)
    indeg = [0] * n
    for i in range(n):
        for j in succs[i]:
            indeg[j] += 1
    # Critical-path height (latency-weighted longest path to any sink).
    height = [0] * n
    for i in range(n - 1, -1, -1):
        lat = op_latency(segment[i].op)
        best = 0
        for j in succs[i]:
            if height[j] > best:
                best = height[j]
        height[i] = lat + best

    def priority(i: int) -> tuple[int, int, int]:
        instr = segment[i]
        # Stores/checkpoints sort after other ready instructions so
        # independent work fills the def-to-checkpoint gap; original
        # position breaks ties to keep the schedule stable.
        late = 1 if instr.is_store else 0
        return (late, -height[i], i)

    ready = sorted((i for i in range(n) if indeg[i] == 0), key=priority)
    order: list[int] = []
    while ready:
        i = ready.pop(0)
        order.append(i)
        changed = False
        for j in succs[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                ready.append(j)
                changed = True
        if changed:
            ready.sort(key=priority)
    if len(order) != n:
        raise AssertionError("scheduling DAG had a cycle")
    return [segment[i] for i in order]


def schedule_program(program: Program) -> SchedulingStats:
    """Reschedule every segment of every block, in place."""
    segments = 0
    reordered = 0
    for block in program.blocks:
        instrs = block.instructions
        for start, end in _segment_ranges(instrs):
            segment = instrs[start:end]
            new_order = _schedule_segment(segment)
            if new_order != segment:
                for instr in new_order:
                    instr.annotations["scheduled"] = True
                reordered += sum(
                    1 for a, b in zip(segment, new_order) if a is not b
                )
                instrs[start:end] = new_order
            segments += 1
    return SchedulingStats(segments=segments, reordered=reordered)
