"""Recovery-block code generation (Section 2.2 / Figure 9).

The resilient machine restores live-in registers through its binding
map; real Turnpike hardware instead jumps to a compiler-generated
*recovery block* that loads checkpointed registers from their storage
and recomputes pruned ones, then jumps back to the recovery PC. This
module generates those blocks as explicit TK instruction sequences —
the code the paper's compiler would emit — and provides an evaluator so
tests can prove the generated code equivalent to the machine's binding
semantics.

Checkpoint storage is addressed as ``CKPT_STORAGE_BASE + reg * slots *
WORD + slot * WORD``: one word per (register, color) pair, with the
quarantine slot last. The recovery block for a region loads each
checkpointed live-in from the slot named by the VC map at recovery time
(the hardware substitutes the verified color; the generated code uses a
symbolic slot operand resolved by the evaluator), and emits the
backward-slice recomputation for pruned live-ins in dependency order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compiler.pipeline import CompiledProgram
from repro.compiler.pruning import PRUNED_ANNOTATION, RecoveryExpr
from repro.isa.instructions import Opcode
from repro.isa.registers import Reg
from repro.runtime.memory import wrap32

# Base of the dedicated checkpoint storage space (disjoint from data and
# stack segments; the machines model it as a separate map, the generated
# code addresses it symbolically through this base).
CKPT_STORAGE_BASE = 0x0100_0000


@dataclass(frozen=True)
class RecoveryStep:
    """One step of a recovery block.

    ``kind``:
      * ``"load"``  — ``target = ckpt_storage[source_reg]`` (the hardware
        indexes the slot through the VC map);
      * ``"const"`` — ``target = imm``;
      * ``"op"``    — ``target = opcode(operands..., imm)`` where operands
        were materialised by earlier steps (or are loads emitted here).
    """

    kind: str
    target: Reg
    source_reg: Reg | None = None
    opcode: Opcode | None = None
    operands: tuple[Reg, ...] = ()
    imm: int = 0

    def render(self) -> str:
        if self.kind == "load":
            return f"{self.target.name} = ldckpt [{self.source_reg.name}]"
        if self.kind == "const":
            return f"{self.target.name} = li {self.imm}"
        ops = ", ".join(r.name for r in self.operands)
        return f"{self.target.name} = {self.opcode.value} {ops}, {self.imm}"


@dataclass
class RecoveryBlock:
    """The generated recovery code for one region."""

    region_id: int
    resume_block: str
    resume_index: int
    steps: list[RecoveryStep] = field(default_factory=list)

    @property
    def num_instructions(self) -> int:
        return len(self.steps)

    def render(self) -> str:
        lines = [f"; recovery block for region R{self.region_id}"]
        lines.extend("  " + step.render() for step in self.steps)
        lines.append(f"  jmp -> {self.resume_block}[{self.resume_index}]")
        return "\n".join(lines)


class RecoveryCodegenError(Exception):
    """A live-in register had no generatable restore sequence."""


def _expr_steps(
    target: Reg,
    expr: RecoveryExpr,
    exprs: dict[Reg, RecoveryExpr],
    emitted: set[Reg],
    steps: list[RecoveryStep],
    visiting: set[Reg],
) -> None:
    """Emit steps materialising ``expr`` into ``target`` (post-order)."""
    if expr.kind == "const":
        steps.append(RecoveryStep(kind="const", target=target, imm=expr.imm))
        return
    # Resolve operand registers first: each is either itself pruned
    # (recurse into its expression) or checkpointed (load).
    for reg in expr.referenced_registers():
        if reg in emitted:
            continue
        if reg in visiting:
            raise RecoveryCodegenError(
                f"cyclic recovery dependency through {reg.name}"
            )
        visiting.add(reg)
        operand_expr = exprs.get(reg)
        if operand_expr is not None:
            _expr_steps(reg, operand_expr, exprs, emitted, steps, visiting)
        else:
            steps.append(
                RecoveryStep(kind="load", target=reg, source_reg=reg)
            )
        visiting.discard(reg)
        emitted.add(reg)
    if expr.kind == "ckpt":
        src = expr.regs[0]
        steps.append(
            RecoveryStep(
                kind="op",
                target=target,
                opcode=Opcode.MOV,
                operands=(src,),
            )
        )
    else:
        steps.append(
            RecoveryStep(
                kind="op",
                target=target,
                opcode=expr.opcode,
                operands=expr.regs,
                imm=expr.imm,
            )
        )


def generate_recovery_blocks(compiled: CompiledProgram) -> dict[int, RecoveryBlock]:
    """Generate one recovery block per region of a compiled program.

    For every region live-in register the block emits either a
    checkpoint load or (for pruned checkpoints) the recomputation slice
    of Figure 9. A register is treated as pruned when *any* of its
    definitions carries a binding expression — the hardware's VC map
    decides at run time which variant is current; the generated code
    covers the reconstruction variant, and the evaluator (used in tests)
    resolves against the live VC state exactly as hardware would.
    """
    if compiled.recovery is None:
        raise ValueError("program compiled without resilience support")
    program = compiled.program

    exprs: dict[Reg, RecoveryExpr] = {}
    for instr in program.instructions():
        expr = instr.annotations.get(PRUNED_ANNOTATION)
        if expr is not None and instr.dest is not None:
            # Latest annotation wins; matches the machine's binding order
            # only per-execution, so the evaluator re-checks against the
            # VC map (see resolve_with_bindings).
            exprs[instr.dest] = expr

    blocks: dict[int, RecoveryBlock] = {}
    for region_id, entry in compiled.recovery.entries.items():
        block = RecoveryBlock(
            region_id=region_id,
            resume_block=entry.block,
            resume_index=entry.index + 1,
        )
        emitted: set[Reg] = set()
        for reg in sorted(entry.live_in):
            if reg in emitted:
                continue
            expr = exprs.get(reg)
            if expr is not None:
                _expr_steps(reg, expr, exprs, emitted, block.steps, {reg})
            else:
                block.steps.append(
                    RecoveryStep(kind="load", target=reg, source_reg=reg)
                )
            emitted.add(reg)
        blocks[region_id] = block
    return blocks


def evaluate_recovery_block(
    block: RecoveryBlock,
    vc_bindings: dict[int, tuple],
) -> dict[Reg, int]:
    """Execute a recovery block literally against verified bindings.

    ``ldckpt`` steps read the register's verified checkpoint — exactly
    the RBB's VC-indexed storage access — resolving expression bindings
    recursively (the machine's own recovery semantics); ``const``/``op``
    steps recompute values locally, as the generated instructions would.

    Returns the register environment after the block. Tests compare this
    environment against the registers the resilient machine restores —
    when the live bindings match the statically anticipated variant, the
    two must agree exactly.
    """
    from repro.runtime.machine import recompute

    env: dict[Reg, int] = {}

    def read_binding(reg: Reg) -> int:
        binding = vc_bindings.get(reg.index)
        if binding is None:
            raise RecoveryCodegenError(f"no binding for {reg.name}")
        kind, payload = binding
        if kind == "value":
            return payload
        return _eval(payload)

    def _eval(expr: RecoveryExpr) -> int:
        if expr.kind == "const":
            return wrap32(expr.imm)
        if expr.kind == "ckpt":
            return read_binding(expr.regs[0])
        values = [read_binding(r) for r in expr.regs]
        return recompute(expr.opcode, values, expr.imm)

    for step in block.steps:
        if step.kind == "load":
            env[step.target] = read_binding(step.source_reg)
        elif step.kind == "const":
            env[step.target] = wrap32(step.imm)
        else:
            values = [env[r] for r in step.operands]
            env[step.target] = recompute(step.opcode, values, step.imm)
    return env


def storage_address(reg: Reg, slot: int, num_slots: int = 5) -> int:
    """Checkpoint storage address for a (register, slot) pair."""
    from repro.runtime.memory import WORD

    return CKPT_STORAGE_BASE + (reg.index * num_slots + slot) * WORD
