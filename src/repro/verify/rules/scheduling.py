"""R6 — checkpoint scheduling-hazard audit.

A ``CKPT r`` reads ``r`` the cycle it issues; if the producing
instruction is still in the pipeline (its latency has not elapsed), the
in-order core stalls. Turnpike's checkpoint-aware scheduler is supposed
to hoist independent work between a long-latency definition and its
checkpoint — this rule audits the result: every checkpoint scheduled
fewer than ``latency - 1`` instructions after its same-block definition
gets a WARNING carrying the estimated stall cost, and the per-program
total is summarised as INFO.

Only same-block def->checkpoint pairs are audited: across blocks the
distance is at least the block-prefix length plus a taken branch, which
already covers every latency in the model when it is observable at all.
Single-cycle producers can never stall their checkpoint and are skipped.
"""

from __future__ import annotations

from repro.compiler.scheduling import op_latency
from repro.isa.registers import Reg
from repro.verify.diagnostics import Diagnostic, Location, Severity
from repro.verify.manager import VerifierContext, VerifierRule


class SchedulingHazardRule(VerifierRule):
    rule_id = "R6"
    title = "scheduling-hazard"
    description = (
        "checkpoint stores should issue at least producer-latency "
        "instructions after their definition"
    )

    def run(self, ctx: VerifierContext) -> list[Diagnostic]:
        diags: list[Diagnostic] = []
        name = ctx.program.name
        cfg = ctx.cfg()
        total_stall = 0
        hazards = 0
        for label in cfg.reverse_postorder():
            # Position and latency of the last definition of each register,
            # counted in issue slots (BOUNDARY markers occupy no slot).
            last_def: dict[Reg, tuple[int, int]] = {}
            slot = 0
            for index, instr in enumerate(cfg.block(label).instructions):
                if instr.is_boundary:
                    continue
                if instr.is_checkpoint:
                    found = last_def.get(instr.srcs[0])
                    if found is not None:
                        def_slot, latency = found
                        gap = slot - def_slot - 1
                        stall = latency - 1 - gap
                        if stall > 0:
                            hazards += 1
                            total_stall += stall
                            diags.append(
                                Diagnostic(
                                    rule=self.rule_id,
                                    severity=Severity.WARNING,
                                    location=Location(
                                        name, label, index, instr.uid
                                    ),
                                    message=(
                                        f"checkpoint of "
                                        f"{instr.srcs[0].name} issues "
                                        f"{gap} instruction(s) after its "
                                        f"{latency}-cycle producer: "
                                        f"~{stall} stall cycle(s) per "
                                        "execution"
                                    ),
                                    hint=(
                                        "let the scheduler hoist "
                                        "independent work between the "
                                        "definition and its checkpoint"
                                    ),
                                )
                            )
                elif instr.dest is not None:
                    latency = op_latency(instr.op)
                    if latency > 1:
                        last_def[instr.dest] = (slot, latency)
                    else:
                        last_def.pop(instr.dest, None)
                slot += 1
        if hazards:
            diags.append(
                Diagnostic(
                    rule=self.rule_id,
                    severity=Severity.INFO,
                    location=Location(name),
                    message=(
                        f"{hazards} checkpoint scheduling hazard(s), "
                        f"~{total_stall} static stall cycles total"
                    ),
                )
            )
        return diags
