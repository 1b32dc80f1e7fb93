"""R3 — WAR-freedom of fast-released stores.

The CLQ releases a regular store to the cache *before* verification when
no earlier load of the same region instance read the store's address:
re-executing the region after an error then never observes the
possibly-corrupt value. This rule reproduces that safety argument
statically, without trusting the CLQ hardware model, and classifies
every regular store:

* ``warfree``  — provably no earlier same-region load aliases the store:
  the CLQ may fast-release it on every execution;
* ``must``     — an earlier same-region load provably reads the same
  address: the store is quarantined on every execution (a WARNING,
  since it is a guaranteed performance cost the compiler could avoid by
  splitting the region between the load and the store);
* ``may``      — aliasing cannot be decided statically (the CLQ decides
  dynamically; reported in aggregate as INFO).

The alias domain is affine value numbering per block: every address is a
``(root, offset)`` pair where ``LI`` produces a constant root, ``ADDI``
offsets a root, and ``MOV`` copies one; any other definition mints a
fresh root. Two addresses are equal iff their pairs are equal, provably
distinct iff they share a root (or are both constants) with different
offsets, and unknown otherwise. Loads inherited from predecessor blocks
within the same region are folded to an unknown-address token, so the
classification is sound across block boundaries and loop back edges.

**Differential mode** additionally executes the program (an ideal-CLQ
shadow interpreter) and cross-checks every executed store: a store the
static analysis calls ``warfree`` that dynamically conflicts — or a
``must`` store that executes without conflicting — is a soundness
disagreement and an ERROR.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.instructions import Opcode
from repro.isa.program import Program
from repro.isa.registers import Reg
from repro.runtime.interpreter import execute, replay
from repro.runtime.memory import Memory
from repro.verify.diagnostics import Diagnostic, Location, Severity
from repro.verify.manager import VerifierContext, VerifierRule

_MASK = (1 << 32) - 1
_CONST_ROOT = -1

WARFREE = "warfree"
MUST = "must"
MAY = "may"


@dataclass(frozen=True)
class StoreClass:
    """Static classification of one regular store."""

    uid: int
    kind: str  # warfree | must | may
    location: Location


def classify_stores(ctx: VerifierContext) -> dict[int, StoreClass]:
    """Statically classify every reachable regular store."""
    cfg = ctx.cfg()
    rpo = cfg.reverse_postorder()
    reachable = set(rpo)

    # Fixpoint: does any load of the still-open region precede the top
    # of each block? (meet = OR over predecessors; a leading BOUNDARY
    # resets inside the transfer.)
    loads_in: dict[str, bool] = {label: False for label in rpo}

    def flag_out(label: str, flag: bool) -> bool:
        for instr in cfg.block(label).instructions:
            if instr.is_boundary:
                flag = False
            elif instr.is_load:
                flag = True
        return flag

    changed = True
    while changed:
        changed = False
        for label in rpo:
            # The program-start path contributes False, which is the OR
            # identity, so the entry block merges like any other (a back
            # edge into the entry still carries its loads).
            merged = any(
                flag_out(p, loads_in[p])
                for p in cfg.preds(label)
                if p in reachable
            )
            if merged != loads_in[label]:
                loads_in[label] = merged
                changed = True

    out: dict[int, StoreClass] = {}
    name = ctx.program.name
    for label in rpo:
        vals: dict[Reg, tuple[int, int]] = {}
        counter = [0]

        def val(reg: Reg) -> tuple[int, int]:
            got = vals.get(reg)
            if got is None:
                counter[0] += 1
                got = vals[reg] = (counter[0], 0)
            return got

        loads: set[tuple[int, int]] = set()
        unknown_loads = loads_in[label]
        for index, instr in enumerate(cfg.block(label).instructions):
            if instr.is_boundary:
                loads.clear()
                unknown_loads = False
                continue
            if instr.is_load:
                root, off = val(instr.srcs[0])
                loads.add((root, (off + instr.imm) & _MASK))
            if instr.is_regular_store:
                root, off = val(instr.srcs[1])
                key = (root, (off + instr.imm) & _MASK)
                kind = _classify(key, loads, unknown_loads)
                out[instr.uid] = StoreClass(
                    uid=instr.uid,
                    kind=kind,
                    location=Location(name, label, index, instr.uid),
                )
            dest = instr.dest
            if dest is None:
                continue
            op = instr.op
            if op is Opcode.LI:
                vals[dest] = (_CONST_ROOT, instr.imm & _MASK)
            elif op is Opcode.MOV:
                vals[dest] = val(instr.srcs[0])
            elif op is Opcode.ADDI:
                root, off = val(instr.srcs[0])
                vals[dest] = (root, (off + instr.imm) & _MASK)
            else:
                counter[0] += 1
                vals[dest] = (counter[0], 0)
    return out


def _classify(
    store_key: tuple[int, int],
    loads: set[tuple[int, int]],
    unknown_loads: bool,
) -> str:
    if store_key in loads:
        return MUST  # equality is decidable even among unknown loads
    if unknown_loads:
        return MAY
    for load_key in loads:
        if load_key[0] == store_key[0]:
            continue  # same root, different offset: provably distinct
        if load_key[0] == _CONST_ROOT and store_key[0] == _CONST_ROOT:
            continue  # distinct constant addresses
        return MAY
    return WARFREE


@dataclass
class DynamicStoreStats:
    executions: int = 0
    conflicts: int = 0


def simulate_war(
    program: Program,
    memory: Memory,
    max_steps: int = 2_000_000,
) -> dict[int, DynamicStoreStats]:
    """Ideal-CLQ shadow execution: per-store dynamic WAR outcomes.

    Mirrors the resilient machine's ground truth — a store conflicts
    when an earlier load *of the same region instance* read its address
    — with exact (ideal CLQ) address matching.
    """
    trace = execute(program, memory, max_steps=max_steps, collect_trace=True).trace
    assert trace is not None
    instance_loads: set[int] = set()
    out: dict[int, DynamicStoreStats] = {}
    for instr, entry in replay(program, trace):
        op = instr.op
        if op is Opcode.BOUNDARY:
            instance_loads.clear()
        elif op is Opcode.LD:
            instance_loads.add(entry[4])
        elif op is Opcode.ST:
            stats = out.get(instr.uid)
            if stats is None:
                stats = out[instr.uid] = DynamicStoreStats()
            stats.executions += 1
            if entry[4] in instance_loads:
                stats.conflicts += 1
    return out


class WarFreedomRule(VerifierRule):
    rule_id = "R3"
    title = "war-freedom"
    description = (
        "stores the CLQ may fast-release must be provably WAR-free; "
        "differential mode cross-checks against an ideal-CLQ execution"
    )

    def run(self, ctx: VerifierContext) -> list[Diagnostic]:
        classes = classify_stores(ctx)
        diags: list[Diagnostic] = []
        name = ctx.program.name
        counts = {WARFREE: 0, MUST: 0, MAY: 0}
        for sc in classes.values():
            counts[sc.kind] += 1
            if sc.kind == MUST:
                diags.append(
                    Diagnostic(
                        rule=self.rule_id,
                        severity=Severity.WARNING,
                        location=sc.location,
                        message=(
                            "store always conflicts with an earlier load "
                            "of the same region (guaranteed quarantine "
                            "until verification)"
                        ),
                        hint=(
                            "split the region between the load and this "
                            "store so the CLQ can fast-release it"
                        ),
                    )
                )
        if classes:
            diags.append(
                Diagnostic(
                    rule=self.rule_id,
                    severity=Severity.INFO,
                    location=Location(name),
                    message=(
                        f"{len(classes)} regular stores: "
                        f"{counts[WARFREE]} provably WAR-free, "
                        f"{counts[MUST]} always-WAR, "
                        f"{counts[MAY]} undecided (CLQ decides at run time)"
                    ),
                )
            )
        if not ctx.differential or ctx.memory_factory is None:
            return diags

        dynamic = simulate_war(
            ctx.program, ctx.memory_factory(), ctx.max_steps
        )
        imprecise = 0
        for uid, stats in dynamic.items():
            sc = classes.get(uid)
            if sc is None:
                continue  # store in a block static analysis skipped (dead)
            if sc.kind == WARFREE and stats.conflicts > 0:
                diags.append(
                    Diagnostic(
                        rule=self.rule_id,
                        severity=Severity.ERROR,
                        location=sc.location,
                        message=(
                            "differential disagreement: statically "
                            "classified WAR-free but conflicted in "
                            f"{stats.conflicts}/{stats.executions} dynamic "
                            "executions — fast release would be unsafe"
                        ),
                        hint=(
                            "the static may-alias domain is unsound for "
                            "this addressing pattern; fix classify_stores"
                        ),
                    )
                )
            elif (
                sc.kind == MUST
                and stats.executions > 0
                and stats.conflicts == 0
            ):
                diags.append(
                    Diagnostic(
                        rule=self.rule_id,
                        severity=Severity.ERROR,
                        location=sc.location,
                        message=(
                            "differential disagreement: statically "
                            "classified always-WAR but executed "
                            f"{stats.executions} times with no conflict"
                        ),
                        hint="must-alias reasoning in classify_stores is wrong",
                    )
                )
            elif sc.kind == MAY and stats.conflicts == 0:
                imprecise += 1
        executed = sum(1 for s in dynamic.values() if s.executions)
        diags.append(
            Diagnostic(
                rule=self.rule_id,
                severity=Severity.INFO,
                location=Location(name),
                message=(
                    f"differential: {executed} stores executed, "
                    f"{imprecise} undecided stores never conflicted "
                    "(static imprecision, safely quarantined)"
                ),
            )
        )
        return diags
