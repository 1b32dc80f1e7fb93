"""The resilient machine: a value-accurate model of the Turnpike protocol.

This is the normative implementation of the paper's error-containment and
recovery semantics, used for fault-injection campaigns. Time is measured
in committed instructions (WCDL in those ticks approximates cycles at
IPC~1, which is all the *semantics* need — the timing core owns cycles).

It models, end to end:

* the gated store buffer with store-to-load forwarding and quarantine;
* region instances and WCDL-delayed verification (RBB);
* checkpoint bindings — verified-checkpoint state per register, updated
  in region order, including pruned-checkpoint recovery expressions;
* the CLQ fast release of WAR-free regular stores (with the in-order
  release gate: prior regions must be verified);
* hardware coloring fast release of checkpoint stores — plus a
  deliberately *unsafe* mode that releases checkpoints without coloring,
  reproducing the paper's Figure 16 failure;
* single-event-upset injection into registers, SB entries, CLQ entries,
  the color maps, checkpoint storage slots, the PC, and raw data-memory
  words — including multi-bit events; acoustic detection within WCDL,
  per-register parity on fast-released store addresses, parity over the
  CLQ/color-map SRAM (conservative fallback on a failed check), ECC over
  checkpoint storage and the memory hierarchy (single-bit correct,
  multi-bit detect-and-halt), and region-level recovery (restore
  live-ins, restart at the recovery PC).

A fault-free resilient run must produce memory identical to the plain
interpreter; an injected run must too, unless the unsafe mode is enabled.
"""

from __future__ import annotations

import enum
import time
import weakref
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field, replace

from repro.arch.clq import BaseCLQ, make_clq
from repro.arch.coloring import QUARANTINE, ColorMaps
from repro.arch.rbb import RegionBoundaryBuffer, RegionInstance
from repro.arch.store_buffer import FunctionalStoreBuffer, SBEntry
from repro.compiler.pipeline import CompiledProgram
from repro.compiler.pruning import PRUNED_ANNOTATION, RecoveryExpr
from repro.isa.instructions import BRANCH_OPS, Instruction, Opcode
from repro.isa.program import Program
from repro.isa.registers import Reg
from repro.isa.semantics import EVALUATORS, SEMANTICS
from repro.runtime.memory import DATA_BASE, DATA_LIMIT, Memory, STACK_BASE, wrap32


class ProtocolError(Exception):
    """The resilience protocol reached an impossible/uncovered state."""


class WatchdogTimeout(ProtocolError):
    """A run exceeded its step or wall-clock budget (possible livelock)."""


class RecoveryFailure(Exception):
    """Recovery could not restore a required register binding."""


class DetectedHalt(Exception):
    """Hardware detected an uncorrectable error and failed-stop.

    Raised when ECC over checkpoint storage or the memory hierarchy sees
    a multi-bit error it can detect but not correct: the machine halts
    instead of silently consuming the corrupt word.
    """


class SnapshotError(ProtocolError):
    """snapshot()/restore() found machine state it has no rule for.

    Raised loudly instead of silently dropping state: a restored machine
    missing any field would diverge from a from-scratch run and corrupt
    the byte-identical parity guarantee of accelerated campaigns.
    """


_MASK64 = (1 << 64) - 1


def _cell_hash(addr: int, value: int) -> int:
    """64-bit mix of one memory cell for the incremental XOR fingerprint.

    Zero cells hash to 0 so a written-then-zeroed cell fingerprints the
    same as an absent one (``Memory.load`` treats both as 0).
    """
    if value == 0:
        return 0
    x = ((addr << 32) ^ value) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def memory_fingerprint(cells: dict[int, int]) -> int:
    """XOR-fold of every cell; maintained incrementally by the machine."""
    fp = 0
    for addr, value in cells.items():
        fp ^= _cell_hash(addr, value)
    return fp


@dataclass
class MachineSnapshot:
    """Picklable, plain-data image of a :class:`ResilientMachine` mid-run.

    Captured at the bottom of the run loop (after the commit at tick
    ``t``); restoring and calling :meth:`ResilientMachine.run` continues
    with state bit-identical to a from-scratch run at the same point.
    ``mem_delta`` holds either the full cell dict (``mem_full``) or only
    the cells written since the previous snapshot of a golden recording,
    at their values here (a written cell may hold its old value).
    """

    label: str
    pc: int
    t: int
    steps: int
    now: int
    mem_delta: dict[int, int]
    mem_full: bool
    mem_fp: int | None
    regs: dict[int, int]
    sb: list[tuple]
    rbb: dict
    clq: dict | None
    coloring: dict
    ckpt_storage: dict[tuple[int, int], int]
    vc_bindings: dict[int, "Binding"]
    pending_bindings: dict[int, dict[int, "Binding"]]
    stats: "MachineStats"
    injection: "Injection | None"
    detection_due: int | None
    tainted_regs: tuple[int, ...]
    tainted_cells: tuple[int, ...]
    slot_flips: dict[tuple[int, int], frozenset[int]]
    mem_flips: dict[int, frozenset[int]]


class InjectionTarget(enum.Enum):
    REGISTER = "register"
    STORE_BUFFER = "store_buffer"
    CLQ = "clq"
    COLORING = "coloring"
    CHECKPOINT = "checkpoint"
    PC = "pc"
    MEMORY = "memory"


@dataclass(frozen=True)
class Injection:
    """A single-event upset to apply during a run.

    ``bits`` generalises ``bit`` to multi-bit events (double flips from a
    single energetic particle); when empty, the single ``bit`` applies.
    ``addr`` optionally pins a MEMORY injection to a specific word.
    """

    time: int  # commit tick after which the flip happens
    target: InjectionTarget
    reg: Reg | None = None  # for REGISTER flips
    bit: int = 0
    detection_delay: int = 0  # sensor latency, must be <= WCDL
    bits: tuple[int, ...] = ()  # multi-bit events; empty -> (bit,)
    addr: int | None = None  # MEMORY flips: explicit word address

    @property
    def bit_positions(self) -> tuple[int, ...]:
        return self.bits if self.bits else (self.bit,)

    def validate(self, wcdl: int) -> None:
        """Check the documented invariants; raise ``ValueError`` if broken."""
        if self.time < 1:
            raise ValueError("injection time must be >= 1")
        if self.detection_delay < 0:
            raise ValueError("sensor detection delay must be non-negative")
        if self.detection_delay > wcdl:
            raise ValueError("sensor detection delay cannot exceed WCDL")
        positions = self.bit_positions
        if len(set(positions)) != len(positions):
            raise ValueError("duplicate bit positions in multi-bit injection")
        for b in positions:
            if not 0 <= b < 32:
                raise ValueError(f"bit position {b} outside [0, 32)")
        if self.target is InjectionTarget.REGISTER and self.reg is None:
            raise ValueError("register injection needs a target register")
        if self.addr is not None:
            if self.target is not InjectionTarget.MEMORY:
                raise ValueError("addr is only meaningful for MEMORY injections")
            if self.addr < 0:
                raise ValueError("memory injection address must be non-negative")


@dataclass
class ResilienceConfig:
    """Hardware-side knobs of the protocol."""

    wcdl: int = 10
    clq_enabled: bool = True
    clq_kind: str = "compact"
    clq_size: int = 2
    coloring_enabled: bool = True
    num_colors: int = 4
    # Figure 16 negative-control: release checkpoints to their single
    # storage slot without verification or coloring. UNSAFE by design.
    unsafe_checkpoint_release: bool = False
    # Real ECC decode (repro.ecc code name) for checkpoint storage and
    # memory words instead of the abstract single-correct/double-halt
    # model. None keeps the abstract fail-safe byte-identical.
    ecc_code: str | None = None


def turnstile_machine_config(wcdl: int = 10) -> ResilienceConfig:
    return ResilienceConfig(wcdl=wcdl, clq_enabled=False, coloring_enabled=False)


def warfree_machine_config(wcdl: int = 10) -> ResilienceConfig:
    return ResilienceConfig(wcdl=wcdl, clq_enabled=True, coloring_enabled=False)


def turnpike_machine_config(wcdl: int = 10) -> ResilienceConfig:
    return ResilienceConfig(wcdl=wcdl, clq_enabled=True, coloring_enabled=True)


def unsafe_machine_config(wcdl: int = 10) -> ResilienceConfig:
    """Figure 16: fast-release checkpoints with NO coloring. Must fail."""
    return ResilienceConfig(
        wcdl=wcdl,
        clq_enabled=True,
        coloring_enabled=False,
        unsafe_checkpoint_release=True,
    )


#: The four protocol variants a differential campaign compares.
VARIANT_CONFIGS: dict[str, Callable[[int], ResilienceConfig]] = {
    "turnstile": turnstile_machine_config,
    "warfree": warfree_machine_config,
    "turnpike": turnpike_machine_config,
    "unsafe": unsafe_machine_config,
}


def variant_config(variant: str, wcdl: int = 10) -> ResilienceConfig:
    """The machine config of one protocol variant."""
    make = VARIANT_CONFIGS.get(variant)
    if make is None:
        raise ValueError(f"unknown protocol variant {variant!r}")
    return make(wcdl)


@dataclass(slots=True)
class MachineStats:
    committed: int = 0
    regions: int = 0
    recoveries: int = 0
    parity_detections: int = 0
    warfree_released: int = 0
    quarantined_stores: int = 0
    colored_checkpoints: int = 0
    quarantined_checkpoints: int = 0
    pruned_bindings: int = 0
    sb_discards: int = 0
    ecc_corrections: int = 0
    structure_parity_trips: int = 0
    pc_parity_detections: int = 0
    # Real-code decode outcomes (--ecc mode only): the decoder applied
    # a wrong correction, or an error aliased to a valid codeword.
    ecc_miscorrections: int = 0
    ecc_silent: int = 0


# A checkpoint binding: how to obtain a register's recovery value.
#   ("value", v)           — direct value (hardened pre-entry state and
#                            the unsafe Figure 16 release path)
#   ("slot", (reg, color)) — read the ECC-protected checkpoint storage
#                            slot at recovery time
#   ("expr", expr)         — pruned checkpoint, recompute at recovery
Binding = tuple


class RegFile:
    """Flat machine register state: a dense list indexed by register number.

    Replaces the ``dict[Reg, int]`` register map on the hot path — the run
    loop reads ``vals[i]`` with precomputed operand indices instead of
    hashing :class:`Reg` objects. Absent-means-zero semantics are preserved
    by keeping every slot materialised (initialised to 0), which is
    observationally identical to ``regs.get(reg, 0)`` on a sparse dict.

    The ``vals`` list's identity is stable for the machine's lifetime:
    the run loop binds it locally, so every mutation here is in place.
    """

    __slots__ = ("vals",)

    def __init__(self, num_registers: int):
        self.vals: list[int] = [0] * num_registers

    def get(self, reg: Reg, default: int = 0) -> int:
        del default  # slots are dense; absent == 0 by construction
        return self.vals[reg.index]

    def __getitem__(self, reg: Reg) -> int:
        return self.vals[reg.index]

    def __setitem__(self, reg: Reg, value: int) -> None:
        self.vals[reg.index] = value

    def __len__(self) -> int:
        return len(self.vals)

    def clear(self) -> None:
        vals = self.vals
        for i in range(len(vals)):
            vals[i] = 0

    def items(self) -> list[tuple[Reg, int]]:
        phys = Reg.phys
        return [(phys(i), v) for i, v in enumerate(self.vals)]

    def as_index_dict(self) -> dict[int, int]:
        return dict(enumerate(self.vals))

    def load_index_dict(self, data: dict[int, int]) -> None:
        """Replace the contents in place (accepts sparse index dicts)."""
        self.clear()
        vals = self.vals
        for idx, value in data.items():
            vals[idx] = value


# -- pre-decoded dispatch ----------------------------------------------------
#
# run() executes pre-decoded instruction tuples instead of re-inspecting
# Instruction objects every iteration. Each tuple starts with a small int
# kind tag; ALU and branch instructions carry a closure compiled from the
# opcode's value template over the flat register list, with operand
# indices and immediates inlined as constants. Decoding is memoised per
# Program (weakly, so programs are collectable) — a fault campaign
# re-running one program thousands of times decodes it once.

_K_BOUNDARY = 0
_K_LD = 1
_K_ST = 2
_K_CKPT = 3
_K_BR = 4
_K_JMP = 5
_K_RET = 6
_K_ALU = 7
_K_NOP = 8
_K_FELL = 9

_INF = float("inf")


def _compile(instr: Instruction) -> Callable[[list[int]], int]:
    """``lambda R: <value template over R[i], R[j], imm>`` for one ALU
    or branch instruction."""
    operands = [f"R[{reg.index}]" for reg in instr.srcs]
    expr = SEMANTICS[instr.op].render(*operands, imm=instr.imm)
    return eval(f"lambda R: {expr}", {})  # noqa: S307 - rendered from the table


def _decode_block(label: str, instructions, num_registers: int) -> list[tuple]:
    out: list[tuple] = []
    for instr in instructions:
        for reg in (instr.dest, *instr.srcs):
            if reg is None:
                continue
            if reg.is_virtual or not 0 <= reg.index < num_registers:
                raise ProtocolError(
                    f"register {reg} outside the physical register file "
                    f"in block {label!r}"
                )
        op = instr.op
        if op is Opcode.BOUNDARY:
            out.append((_K_BOUNDARY, instr.region_id))
        elif op is Opcode.LD:
            base = instr.srcs[0]
            dest = instr.dest
            out.append((_K_LD, dest.index, base.index, instr.imm, dest, base))
        elif op is Opcode.ST:
            value_reg, base = instr.srcs
            out.append(
                (_K_ST, value_reg.index, base.index, instr.imm, value_reg, base)
            )
        elif op is Opcode.CKPT:
            reg = instr.srcs[0]
            out.append((_K_CKPT, reg.index, reg))
        elif op in BRANCH_OPS:
            out.append((_K_BR, _compile(instr), instr.targets[0], instr.targets[1]))
        elif op is Opcode.JMP:
            out.append((_K_JMP, instr.targets[0]))
        elif op is Opcode.RET:
            out.append((_K_RET,))
        elif instr.dest is None:
            out.append((_K_NOP,))
        else:
            pruned = instr.annotations.get(PRUNED_ANNOTATION)
            out.append(
                (_K_ALU, instr.dest.index, _compile(instr), instr, pruned)
            )
    # Sentinel so pc == len dispatches to the fell-off error without a
    # bounds check every iteration.
    out.append((_K_FELL, label))
    return out


_DECODE_CACHE: "weakref.WeakKeyDictionary[Program, dict[str, list[tuple]]]" = (
    weakref.WeakKeyDictionary()
)


def _decode_program(program: Program) -> dict[str, list[tuple]]:
    decoded = _DECODE_CACHE.get(program)
    if decoded is None:
        num = program.register_file.num_registers
        decoded = {
            b.label: _decode_block(b.label, b.instructions, num)
            for b in program.blocks
        }
        _DECODE_CACHE[program] = decoded
    return decoded


class ResilientMachine:
    """Executes a compiled resilient program under the Turnpike protocol."""

    def __init__(
        self,
        compiled: CompiledProgram,
        config: ResilienceConfig,
        memory: Memory | None = None,
        max_steps: int = 4_000_000,
        wall_clock_budget: float | None = None,
    ):
        if compiled.recovery is None:
            raise ValueError("program was compiled without resilience support")
        self.compiled = compiled
        self.program = compiled.program
        self.recovery_map = compiled.recovery
        self.config = config
        self.max_steps = max_steps
        self.wall_clock_budget = wall_clock_budget

        self.mem = memory if memory is not None else Memory()
        self.regs = RegFile(self.program.register_file.num_registers)
        self.sb = FunctionalStoreBuffer()
        self.rbb = RegionBoundaryBuffer(wcdl=float(config.wcdl))
        self.clq: BaseCLQ | None = (
            make_clq(config.clq_kind, config.clq_size)
            if config.clq_enabled
            else None
        )
        self.coloring = ColorMaps(
            num_registers=self.program.register_file.num_registers,
            num_colors=config.num_colors,
        )
        # Checkpoint storage: (reg index, color) -> value. The quarantine
        # pseudo-slot uses color == QUARANTINE.
        self.ckpt_storage: dict[tuple[int, int], int] = {}
        # Verified bindings per register index.
        self.vc_bindings: dict[int, Binding] = {}
        # Pending (unverified) bindings per region instance.
        self.pending_bindings: dict[int, dict[int, Binding]] = {}

        self.stats = MachineStats()

        # Fault state.
        self.injection: Injection | None = None
        self._detection_due: int | None = None
        # Earliest tick at which _process_events can have any effect: the
        # head RBB verification deadline or a pending detection. Derived
        # state (recomputed by _update_next_due at every mutation point)
        # so the run loop can skip the per-tick event scan entirely.
        self._next_due: float = _INF
        self._tainted_regs: set[Reg] = set()
        self._tainted_cells: set[int] = set()
        # Outstanding ECC syndromes: struck-but-not-yet-read words.
        self._slot_flips: dict[tuple[int, int], frozenset[int]] = {}
        self._mem_flips: dict[int, frozenset[int]] = {}

        # Acceleration state: the incremental memory fingerprint (None =
        # not maintained; captured by snapshots), a per-tick callback
        # fired at the bottom of the run loop, and the restored loop
        # position consumed by the next run() call (both excluded from
        # snapshots). The callback does not fire while a strike is armed,
        # nor on the strike's own tick. Its users lose nothing by that:
        # golden recording, vulnerability occupancy and resumed runs arm
        # no strike, and the convergence checker returns on any tick with
        # a detection pending, which every strike target arms.
        self._mem_fp: int | None = None
        self._on_tick: Callable[[str, int, int, int], None] | None = None
        self._resume: tuple[str, int, int, int] | None = None
        # Every address written while the fingerprint is maintained, since
        # construction or the last restore(): the cells whose value can
        # have moved away from the restored image (delta convergence).
        self._written_cells: set[int] = set()

        self._init_registers()

    # -- setup -------------------------------------------------------------

    def _init_registers(self) -> None:
        sp = self.program.register_file.stack_pointer
        self.regs.vals[sp.index] = STACK_BASE
        # Pre-verified initial bindings: the "caller" checkpointed every
        # register before entry, so region 0 itself is recoverable.
        for idx in range(self.program.register_file.num_registers):
            value = STACK_BASE if idx == sp.index else 0
            self.vc_bindings[idx] = ("value", value)
        for reg in self.program.live_in:
            self.vc_bindings[reg.index] = ("value", self.regs.vals[reg.index])

    def set_initial_register(self, reg: Reg, value: int) -> None:
        self.regs[reg] = value
        self.vc_bindings[reg.index] = ("value", value)

    def arm_injection(self, injection: Injection) -> None:
        injection.validate(self.config.wcdl)
        if injection.reg is not None and not (
            0 <= injection.reg.index < self.program.register_file.num_registers
        ):
            raise ValueError(
                f"injection register {injection.reg} outside the register file"
            )
        self.injection = injection

    # -- snapshot / restore --------------------------------------------------

    # Every instance attribute must appear in exactly one of these two
    # sets. snapshot() audits ``vars(self)`` against them and raises
    # SnapshotError on any unclassified field, so adding machine state
    # without a snapshot rule fails loudly instead of corrupting restore.
    _SNAPSHOT_FIELDS = frozenset(
        {
            "mem",
            "regs",
            "sb",
            "rbb",
            "clq",
            "coloring",
            "ckpt_storage",
            "vc_bindings",
            "pending_bindings",
            "stats",
            "injection",
            "_detection_due",
            "_tainted_regs",
            "_tainted_cells",
            "_slot_flips",
            "_mem_flips",
            "_now",
            "_mem_fp",
        }
    )
    # Static configuration and harness plumbing: identical across the
    # runs a snapshot may move between, so capturing it would be wasted
    # bytes (and _on_tick/_resume/_written_cells are per-run, not machine
    # state; _next_due is derived from rbb + _detection_due and
    # recomputed on restore).
    _SNAPSHOT_EXCLUDED = frozenset(
        {
            "compiled",
            "program",
            "recovery_map",
            "config",
            "max_steps",
            "wall_clock_budget",
            "_on_tick",
            "_resume",
            "_next_due",
            "_written_cells",
        }
    )

    def snapshot(
        self,
        label: str,
        pc: int,
        t: int,
        steps: int,
        written: Iterable[int] | None = None,
    ) -> MachineSnapshot:
        """Capture the machine at the bottom of the run loop.

        ``(label, pc, t, steps)`` is the loop position the caller's
        ``_on_tick`` hook received. With ``written`` (the addresses
        written since the previous snapshot of a golden recording) only
        those cells are stored, at their current values; without it the
        snapshot is self-contained.
        """
        unknown = set(vars(self)) - self._SNAPSHOT_FIELDS - self._SNAPSHOT_EXCLUDED
        if unknown:
            raise SnapshotError(
                "machine fields without a snapshot rule: "
                f"{sorted(unknown)}; classify them in _SNAPSHOT_FIELDS "
                "or _SNAPSHOT_EXCLUDED and teach snapshot()/restore() "
                "about them"
            )
        cells = self.mem.cells
        if written is None:
            mem_delta = dict(cells)
            mem_full = True
        else:
            # Key-exact: a cell first written with 0 is a key here, distinct
            # from an absent one, because MEMORY-injection targeting
            # enumerates keys. Cells are never removed, so applying the
            # deltas in order rebuilds the image key for key.
            mem_delta = {a: cells[a] for a in written}
            mem_full = False
        return MachineSnapshot(
            label=label,
            pc=pc,
            t=t,
            steps=steps,
            now=int(self._now),
            mem_delta=mem_delta,
            mem_full=mem_full,
            mem_fp=self._mem_fp,
            regs=self.regs.as_index_dict(),
            sb=self.sb.snapshot_state(),
            rbb=self.rbb.snapshot_state(),
            clq=self.clq.snapshot_state() if self.clq is not None else None,
            coloring=self.coloring.snapshot_state(),
            ckpt_storage=dict(self.ckpt_storage),
            vc_bindings=dict(self.vc_bindings),
            pending_bindings={
                inst: dict(bindings)
                for inst, bindings in self.pending_bindings.items()
            },
            stats=replace(self.stats),
            injection=self.injection,
            detection_due=self._detection_due,
            tainted_regs=tuple(sorted(r.index for r in self._tainted_regs)),
            tainted_cells=tuple(sorted(self._tainted_cells)),
            slot_flips=dict(self._slot_flips),
            mem_flips=dict(self._mem_flips),
        )

    def restore(
        self, snap: MachineSnapshot, cells: dict[int, int] | None = None
    ) -> None:
        """Restore a snapshot; the next run() resumes at its loop position.

        Delta snapshots need ``cells``: the fully materialised cell dict
        at the snapshot point (base memory plus every delta up to and
        including this snapshot's). The machine takes ownership of that
        dict and writes to it as it runs, so pass a fresh one such as
        :meth:`GoldenRecord.cells_at` returns, never one shared with the
        record, another machine or the caller.
        """
        if snap.mem_full:
            self.mem.cells = dict(snap.mem_delta)
        else:
            if cells is None:
                raise SnapshotError(
                    "delta snapshot needs the materialised cell dict"
                )
            self.mem.cells = cells
        self._mem_fp = snap.mem_fp
        self.regs.load_index_dict(snap.regs)
        self.sb.restore_state(snap.sb)
        self.rbb.restore_state(snap.rbb)
        if (self.clq is None) != (snap.clq is None):
            raise SnapshotError(
                "snapshot CLQ presence does not match this machine's config"
            )
        if self.clq is not None and snap.clq is not None:
            self.clq.restore_state(snap.clq)
        self.coloring.restore_state(snap.coloring)
        self.ckpt_storage = dict(snap.ckpt_storage)
        self.vc_bindings = dict(snap.vc_bindings)
        self.pending_bindings = {
            inst: dict(bindings)
            for inst, bindings in snap.pending_bindings.items()
        }
        self.stats = replace(snap.stats)
        self.injection = snap.injection
        self._detection_due = snap.detection_due
        self._tainted_regs = {Reg.phys(i) for i in snap.tainted_regs}
        self._tainted_cells = set(snap.tainted_cells)
        self._slot_flips = dict(snap.slot_flips)
        self._mem_flips = dict(snap.mem_flips)
        self._now = snap.now
        self._resume = (snap.label, snap.pc, snap.t, snap.steps)
        self._written_cells = set()
        self._update_next_due()

    # -- main loop -----------------------------------------------------------

    def run(self) -> MachineStats:
        program = self.program
        decoded = _decode_program(program)
        if self._resume is not None:
            # Continue from a restored snapshot (see restore()).
            label, pc, t, steps = self._resume
            self._resume = None
        else:
            label = program.entry.label
            pc = 0
            t = 0
            steps = 0
        instrs = decoded[label]
        # Hot-path locals. All of these objects are mutated strictly in
        # place during a run (restore() between runs may rebind the
        # underlying attributes, but run() re-binds these on entry).
        R = self.regs.vals
        stats = self.stats
        sb = self.sb
        rbb = self.rbb
        clq = self.clq
        mem_load = self.mem.load
        mem_flips = self._mem_flips
        tainted_regs = self._tainted_regs
        tainted_cells = self._tainted_cells
        max_steps = self.max_steps
        budget = self.wall_clock_budget
        start = time.monotonic() if budget is not None else 0.0

        while True:
            steps += 1
            if steps > max_steps:
                raise WatchdogTimeout(
                    f"{program.name}: exceeded {self.max_steps} steps "
                    "(possible recovery livelock)"
                )
            if (
                budget is not None
                and not (steps & 0xFFF)
                and time.monotonic() - start > budget
            ):
                raise WatchdogTimeout(
                    f"{program.name}: exceeded wall-clock budget "
                    f"{budget:.1f}s after {steps} steps"
                )
            # _now must track t every iteration: snapshots, region start
            # times and recovery all read it.
            self._now = t
            if t >= self._next_due:
                self._process_events(t)
                det = self._detection_due
                if det is not None and det <= t:
                    label, pc = self._do_recovery()
                    instrs = decoded[label]
                    t = max(t, int(self._now))
                    continue

            d = instrs[pc]
            kind = d[0]

            if kind == _K_BOUNDARY:
                self._on_boundary(d[1], t)
                pc += 1
                continue

            t += 1
            stats.committed += 1

            if kind == _K_ALU:
                R[d[1]] = d[2](R)
                if tainted_regs:
                    self._taint_alu(d[3])
                if d[4] is not None:
                    self._bind_pending(d[1], ("expr", d[4]))
                    stats.pruned_bindings += 1
                pc += 1
            elif kind == _K_BR:
                label = d[2] if d[1](R) else d[3]
                instrs = decoded[label]
                pc = 0
            elif kind == _K_CKPT:
                self._commit_checkpoint(d[2], R[d[1]], t)
                pc += 1
            elif kind == _K_LD:
                addr = R[d[2]] + d[3]
                forwarded = sb.forward(addr) if sb.entries else None
                if forwarded is not None:
                    value = forwarded
                elif mem_flips and addr in mem_flips:
                    value = self._ecc_load(addr)
                else:
                    value = mem_load(addr)
                R[d[1]] = value
                if tainted_regs or tainted_cells:
                    self._taint_dest(
                        d[4], addr_tainted=d[5] in tainted_regs, loaded_addr=addr
                    )
                if clq is not None and rbb.current is not None:
                    clq.record_load(rbb.current.instance, addr)
                pc += 1
            elif kind == _K_ST:
                addr = R[d[2]] + d[3]
                self._commit_store(addr, R[d[1]], d[5], d[4], t)
                pc += 1
            elif kind == _K_JMP:
                label = d[1]
                instrs = decoded[label]
                pc = 0
            elif kind == _K_NOP:
                pc += 1
            elif kind == _K_RET:
                finished = self._drain(t)
                if finished:
                    return self.stats
                # A detection fired during the drain: recover and resume.
                label, pc = self._do_recovery()
                instrs = decoded[label]
                t = max(t, int(self._now))
                continue
            else:
                raise ProtocolError(f"fell off block {d[1]!r}")

            if self.injection is not None:
                self._maybe_inject(t)
            elif self._on_tick is not None:
                self._on_tick(label, pc, t, steps)

    # -- events, verification, detection ----------------------------------------

    @property
    def _recovery_requested(self) -> bool:
        return self._detection_due is not None and self._detection_due <= self._now

    _now: int = 0

    def _update_next_due(self) -> None:
        """Recompute the earliest tick _process_events could act at.

        Called at every point that queues or retires an RBB instance or
        arms/clears a detection; the run loop skips the event scan until
        this tick arrives. The RBB queue verifies strictly in order, so
        its head holds the earliest verification deadline.
        """
        unverified = self.rbb.unverified
        due = unverified[0].verify_time(self.rbb.wcdl) if unverified else _INF
        det = self._detection_due
        if det is not None and det < due:
            due = float(det)
        self._next_due = due

    def _process_events(self, t: int) -> None:
        self._now = t
        before = (
            float(self._detection_due)
            if self._detection_due is not None
            else float("inf")
        )
        due = self.rbb.due_verifications(float(t), before=before)
        sb = self.sb
        for i, inst in enumerate(due):
            # Note: _verify_instance reassigns sb.entries, so read it
            # fresh for every due instance.
            if sb.entries and any(
                not e.parity_ok
                for e in sb.entries
                if e.instance == inst.instance
            ):
                # GSB parity is checked at drain: a struck entry vetoes
                # the merge and surfaces as a detection now, so recovery
                # re-executes the region and regenerates the stores.
                for later in reversed(due[i:]):
                    self.rbb.unverified.appendleft(later)
                self.rbb.stats.instances_verified -= len(due) - i
                self._structure_parity_trip(t)
                return
            self._verify_instance(inst)
        self._update_next_due()

    def _verify_instance(self, inst: RegionInstance) -> None:
        # Merge quarantined stores to cache/memory.
        for entry in self.sb.release_instance(inst.instance):
            if entry.is_checkpoint:
                self._write_ckpt_slot((entry.reg, entry.color), entry.value)
            else:
                self._store_word(entry.addr, entry.value)
        # Promote color assignments and value/expr bindings.
        was_poisoned = self.coloring.poisoned
        self.coloring.verify(inst.instance)
        if self.coloring.poisoned and not was_poisoned:
            self._structure_parity_trip(int(self._now))
        for reg_idx, binding in self.pending_bindings.pop(inst.instance, {}).items():
            self.vc_bindings[reg_idx] = binding
        if self.clq is not None:
            self.clq.retire_region(inst.instance)

    def _maybe_inject(self, t: int) -> None:
        inj = self.injection
        if inj is None or t != inj.time:
            return
        self.injection = None
        target = inj.target
        bits = inj.bit_positions
        mask = 0
        for b in bits:
            mask |= 1 << b

        if target is InjectionTarget.REGISTER:
            reg = inj.reg
            if reg is None:
                raise ValueError("register injection needs a target register")
            vals = self.regs.vals
            vals[reg.index] = wrap32(vals[reg.index] ^ mask)
            self._tainted_regs.add(reg)
        elif target is InjectionTarget.STORE_BUFFER:
            if self.sb.entries:
                index = inj.bit % len(self.sb.entries)
                self.sb.corrupt_entry(index, *bits)
            # An empty SB means the particle hit hardened/idle storage;
            # the sensor still fires.
        elif target is InjectionTarget.CLQ:
            # Entry parity makes post-strike WAR queries conservative;
            # the acoustic detection below cleans the structure up.
            if self.clq is not None:
                self.clq.corrupt(inj.bit)
        elif target is InjectionTarget.COLORING:
            # Map parity is observed at the next assign/verify access,
            # which degrades coloring to quarantine-only (fail-safe).
            self.coloring.corrupt(inj.bit)
        elif target is InjectionTarget.CHECKPOINT:
            if self.ckpt_storage:
                keys = sorted(self.ckpt_storage)
                key = keys[(inj.time * 31 + inj.bit) % len(keys)]
                self.ckpt_storage[key] = wrap32(self.ckpt_storage[key] ^ mask)
                self._slot_flips[key] = frozenset(bits)
            # ECC resolves the syndrome at the next recovery read.
        elif target is InjectionTarget.PC:
            # The architectural PC is parity-protected in fetch: the flip
            # is caught on the next fetch, before any wrong-path
            # instruction can commit, and recovery restarts the region.
            self.stats.pc_parity_detections += 1
            self._detection_due = t
            self._update_next_due()
            return
        elif target is InjectionTarget.MEMORY:
            addr = inj.addr
            if addr is None:
                cells = sorted(
                    a for a in self.mem.cells if DATA_BASE <= a < DATA_LIMIT
                )
                if cells:
                    addr = cells[(inj.time * 31 + inj.bit) % len(cells)]
            if addr is not None:
                self._mem_write(addr, self.mem.load(addr) ^ mask)
                self._mem_flips[addr] = frozenset(bits)
        else:  # pragma: no cover - enum is exhaustive
            raise ValueError(f"unhandled injection target {target}")
        self._detection_due = t + inj.detection_delay
        self._update_next_due()

    # -- taint tracking (parity model) ---------------------------------------

    def _taint_alu(self, instr) -> None:
        if not self._tainted_regs:
            return
        if any(src in self._tainted_regs for src in instr.srcs):
            self._tainted_regs.add(instr.dest)
        else:
            self._tainted_regs.discard(instr.dest)

    def _taint_dest(self, dest: Reg, addr_tainted: bool, loaded_addr: int) -> None:
        if addr_tainted or loaded_addr in self._tainted_cells:
            self._tainted_regs.add(dest)
        else:
            self._tainted_regs.discard(dest)

    def _record_store_taint(self, addr: int, value_reg: Reg) -> None:
        if value_reg in self._tainted_regs:
            self._tainted_cells.add(addr)
        else:
            self._tainted_cells.discard(addr)

    def _parity_trip(self, t: int) -> None:
        """A corrupted register reached a fast-release store address: the
        per-register parity bit (Section 5) detects it immediately."""
        self.stats.parity_detections += 1
        self._detection_due = t
        self._update_next_due()

    def _structure_parity_trip(self, t: int) -> None:
        """SRAM parity over a protocol structure (CLQ / color maps) failed:
        treat it like any detection — initiate recovery no later than now."""
        self.stats.structure_parity_trips += 1
        if self._detection_due is None or self._detection_due > t:
            self._detection_due = t
        self._update_next_due()

    # -- ECC over checkpoint storage and the memory hierarchy -----------------

    def _mem_write(self, addr: int, value: int) -> None:
        """Every memory write funnels through here so the incremental
        fingerprint and the written-cell set (both maintained only while
        acceleration is active) stay in sync with the cells."""
        fp = self._mem_fp
        if fp is None:
            self.mem.store(addr, value)
            return
        cells = self.mem.cells
        old = cells.get(addr, 0)
        new = wrap32(value)
        cells[addr] = new
        self._mem_fp = fp ^ _cell_hash(addr, old) ^ _cell_hash(addr, new)
        self._written_cells.add(addr)

    def _store_word(self, addr: int, value: int) -> None:
        """Memory write; overwriting a struck word clears its syndrome."""
        self._mem_write(addr, value)
        if self._mem_flips:
            self._mem_flips.pop(addr, None)

    def _real_ecc_decode(
        self, stored: int, flips: frozenset[int], what: str
    ) -> int:
        """Decode a struck 32-bit word through the configured real code.

        The stored cells hold the post-strike data bits; the check bits
        (not separately modelled in machine state) are those of the
        pre-strike word, so the codeword error vector is exactly the
        strike mask mapped onto the code's data positions. Whatever the
        syndrome table says, happens: a wrong correction substitutes a
        wrong value into the run, a zero syndrome passes corruption
        through silently.
        """
        from repro.ecc.codes import make_code

        assert self.config.ecc_code is not None
        code = make_code(self.config.ecc_code, 32)
        mask = 0
        error = 0
        for b in flips:
            mask |= 1 << b
            error |= 1 << code.data_positions[b]
        # Machine words are signed 32-bit; the codeword view is the raw
        # unsigned cell contents.
        original = (stored ^ mask) & 0xFFFFFFFF
        result = code.decode(code.encode(original) ^ error)
        if result.detected:
            raise DetectedHalt(
                f"{code.name} uncorrectable {len(flips)}-bit error in {what}"
            )
        if result.data == original:
            self.stats.ecc_corrections += 1
        elif result.corrected_mask:
            self.stats.ecc_miscorrections += 1
        else:
            self.stats.ecc_silent += 1
        return wrap32(result.data)

    def _ecc_load(self, addr: int) -> int:
        """Read a struck memory word: correct single-bit, halt on multi-bit."""
        flips = self._mem_flips.pop(addr)
        if self.config.ecc_code is not None:
            value = self._real_ecc_decode(
                self.mem.load(addr), flips, f"memory word {addr:#x}"
            )
            self._mem_write(addr, value)
            return value
        if len(flips) > 1:
            raise DetectedHalt(
                f"uncorrectable {len(flips)}-bit error in memory word {addr:#x}"
            )
        value = wrap32(self.mem.load(addr) ^ (1 << next(iter(flips))))
        self._mem_write(addr, value)
        self.stats.ecc_corrections += 1
        return value

    def _write_ckpt_slot(self, key: tuple[int, int], value: int) -> None:
        self.ckpt_storage[key] = value
        if self._slot_flips:
            self._slot_flips.pop(key, None)

    def _read_ckpt_slot(self, key: tuple[int, int]) -> int:
        if key not in self.ckpt_storage:
            reg_idx, color = key
            raise RecoveryFailure(
                f"checkpoint slot (r{reg_idx}, color {color}) was never written"
            )
        value = self.ckpt_storage[key]
        flips = self._slot_flips.get(key)
        if flips:
            if self.config.ecc_code is not None:
                value = self._real_ecc_decode(
                    value, flips, f"checkpoint slot {key}"
                )
                self.ckpt_storage[key] = value
                del self._slot_flips[key]
                return value
            if len(flips) > 1:
                raise DetectedHalt(
                    f"uncorrectable {len(flips)}-bit error in checkpoint "
                    f"slot {key}"
                )
            value = wrap32(value ^ (1 << next(iter(flips))))
            self.ckpt_storage[key] = value
            del self._slot_flips[key]
            self.stats.ecc_corrections += 1
        return value

    # -- stores ------------------------------------------------------------------

    def _commit_store(self, addr: int, value: int, base: Reg, value_reg: Reg, t: int) -> None:
        inst = self.rbb.current
        if inst is None:
            raise ProtocolError("store committed outside any region")
        fast = False
        if (
            self.clq is not None
            and not self.clq.store_has_war(inst.instance, addr)
            and self.sb.forward(addr) is None  # per-address order to L1
        ):
            fast = True
        if fast and base in self._tainted_regs:
            # Parity catches the corrupt address before damage is done.
            self._parity_trip(t)
            return
        if fast:
            self._store_word(addr, value)
            self._record_store_taint(addr, value_reg)
            self.stats.warfree_released += 1
        else:
            self.sb.push(
                SBEntry(
                    instance=inst.instance,
                    is_checkpoint=False,
                    addr=addr,
                    reg=-1,
                    color=QUARANTINE,
                    value=value,
                )
            )
            self._record_store_taint(addr, value_reg)
            self.stats.quarantined_stores += 1

    def _commit_checkpoint(self, reg: Reg, value: int, t: int) -> None:
        inst = self.rbb.current
        if inst is None:
            raise ProtocolError("checkpoint committed outside any region")
        if self.config.unsafe_checkpoint_release:
            # Figure 16's broken design: overwrite the register's single
            # verified storage location immediately, no coloring.
            self.vc_bindings[reg.index] = ("value", value)
            self.stats.colored_checkpoints += 1
            return
        color = QUARANTINE
        if self.config.coloring_enabled:
            was_poisoned = self.coloring.poisoned
            color = self.coloring.assign(inst.instance, reg.index)
            if self.coloring.poisoned and not was_poisoned:
                self._structure_parity_trip(t)
        if color != QUARANTINE:
            self._write_ckpt_slot((reg.index, color), value)
            self._bind_pending(reg.index, ("slot", (reg.index, color)))
            self.stats.colored_checkpoints += 1
        else:
            self.sb.push(
                SBEntry(
                    instance=inst.instance,
                    is_checkpoint=True,
                    addr=-1,
                    reg=reg.index,
                    color=QUARANTINE,
                    value=value,
                )
            )
            # The quarantine pseudo-slot is written when the region
            # verifies (SB merge), which is also when this binding can
            # first be promoted — the slot read at recovery always sees
            # the merged value.
            self._bind_pending(reg.index, ("slot", (reg.index, QUARANTINE)))
            self.stats.quarantined_checkpoints += 1

    def _bind_pending(self, reg_idx: int, binding: Binding) -> None:
        inst = self.rbb.current
        if inst is None:
            raise ProtocolError("binding outside any region")
        self.pending_bindings.setdefault(inst.instance, {})[reg_idx] = binding

    # -- region lifecycle ----------------------------------------------------------

    def _on_boundary(self, region_id: int | None, t: int) -> None:
        if region_id is None:
            raise ProtocolError("boundary without region id")
        inst = self.rbb.open_region(region_id, float(t))
        self.stats.regions += 1
        if self.clq is not None:
            self.clq.begin_region(
                inst.instance, prior_verified=self.rbb.all_prior_verified()
            )
        # A boundary only changes the head verification deadline when the
        # just-closed instance became the sole queued one; a deeper queue
        # keeps its (earlier) head, and _detection_due is untouched here.
        if len(self.rbb.unverified) == 1:
            self._update_next_due()

    def _drain(self, t: int) -> bool:
        """Program RET: wait WCDL for remaining verifications.

        Returns True when everything verified cleanly; False when a
        pending detection fired (caller must run recovery and resume).
        """
        self.rbb.close_final(float(t))
        horizon = t + self.config.wcdl + 1
        for tick in range(t, horizon + 1):
            self._process_events(tick)
            if self._recovery_requested:
                return False
        if self.rbb.unverified:
            raise ProtocolError("instances left unverified after drain")
        # Memory-scrubber pass: resolve outstanding ECC syndromes so the
        # final image never silently carries a struck word.
        for addr, flips in sorted(self._mem_flips.items()):
            if self.config.ecc_code is not None:
                self._mem_write(
                    addr,
                    self._real_ecc_decode(
                        self.mem.load(addr),
                        flips,
                        f"memory word {addr:#x} found by scrub",
                    ),
                )
                continue
            if len(flips) > 1:
                raise DetectedHalt(
                    f"uncorrectable {len(flips)}-bit error in memory "
                    f"word {addr:#x} found by scrub"
                )
            self._mem_write(
                addr, wrap32(self.mem.load(addr) ^ (1 << next(iter(flips))))
            )
            self.stats.ecc_corrections += 1
        self._mem_flips.clear()
        return True

    # -- recovery ----------------------------------------------------------------

    def _do_recovery(self) -> tuple[str, int]:
        self._detection_due = None
        self.stats.recoveries += 1

        target = self.rbb.earliest_unverified()
        if target is None:
            raise ProtocolError("detection with no region in flight")

        # 1. Discard all quarantined (possibly corrupt) stores.
        self.stats.sb_discards += self.sb.discard_all()

        # 2. Drop unverified bindings, colors, CLQ entries.
        dropped = self.rbb.discard_unverified()
        dropped_ids = [d.instance for d in dropped]
        self.coloring.discard(dropped_ids)
        for inst_id in dropped_ids:
            self.pending_bindings.pop(inst_id, None)
        if self.clq is not None:
            self.clq.discard(dropped_ids)

        # 3. The transient upset is gone; re-execution is clean.
        self._tainted_regs.clear()

        # 4. Restore the restart region's live-in registers from verified
        #    checkpoint state (the recovery block of Section 2.2 / 4.1.3).
        entry = self.recovery_map.entry(target.region_id)
        sp = self.program.register_file.stack_pointer
        # Mutate in place: the run loop holds the flat ``vals`` list.
        vals = self.regs.vals
        self.regs.clear()
        vals[sp.index] = STACK_BASE
        for reg in entry.live_in:
            vals[reg.index] = self._resolve_binding(reg.index, resolving=set())

        # 5. Reopen the region and resume at the recovery PC.
        self._on_boundary(target.region_id, int(self._now))
        return entry.block, entry.index + 1

    def _resolve_binding(self, reg_idx: int, resolving: set[int]) -> int:
        # Binding chains through pruned-checkpoint expressions can be long
        # (rematerialisation chains), but never cyclic: the pruning pass's
        # stability condition guarantees every referenced operand's
        # binding predates the referencing one. Detect violations exactly.
        if reg_idx in resolving:
            raise RecoveryFailure(
                f"cyclic reconstruction chain through r{reg_idx}"
            )
        binding = self.vc_bindings.get(reg_idx)
        if binding is None:
            raise RecoveryFailure(f"no verified binding for r{reg_idx}")
        kind, payload = binding
        if kind == "value":
            return payload
        if kind == "slot":
            return self._read_ckpt_slot(payload)
        if kind == "expr":
            resolving.add(reg_idx)
            try:
                return self._eval_expr(payload, resolving)
            finally:
                resolving.discard(reg_idx)
        raise RecoveryFailure(f"unknown binding kind {kind!r}")

    def _eval_expr(self, expr: RecoveryExpr, resolving: set[int]) -> int:
        if expr.kind == "const":
            return wrap32(expr.imm)
        if expr.kind == "ckpt":
            return self._resolve_binding(expr.regs[0].index, resolving)
        if expr.kind == "op":
            values = [
                self._resolve_binding(reg.index, resolving)
                for reg in expr.regs
            ]
            return recompute(expr.opcode, values, expr.imm)
        raise RecoveryFailure(f"unknown recovery expr kind {expr.kind!r}")


def recompute(op: Opcode | None, values: list[int], imm: int) -> int:
    """One step of a pruned register's recovery slice: ``op`` over the
    recovered operand ``values``, by the semantics table."""
    evaluator = EVALUATORS.get(op)
    if evaluator is None:
        raise RecoveryFailure(f"unsupported recovery opcode {op}")
    a = values[0] if values else 0
    b = values[1] if len(values) > 1 else 0
    return evaluator(a, b, imm)
