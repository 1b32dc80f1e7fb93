"""Bit-level static vulnerability analysis (BVA) over compiled programs.

Following the BEC line of work, a large fraction of soft-error injection
cells can be classified *statically*, without running a single faulty
execution. This module classifies every ``(target structure, bit,
cycle)`` cell of a fault-injection campaign as:

* ``masked`` — a flip provably cannot change the architectural outcome
  (the final data-segment memory image). Register cells are masked when
  the struck bit is dead — no instruction on the committed path reads it
  before it is overwritten; structure cells (store buffer / CLQ /
  colour maps) are masked when the structure holds no populated entry
  at the strike cycle, so the machine's ``corrupt`` hook is a no-op.
* ``vulnerable`` — a flip *may* change the outcome (the bit is live, or
  the structure is occupied). This is a conservative upper bound: the
  dynamic corruption probability of vulnerable cells is what the
  importance-sampled campaigns of :mod:`repro.faults.sampling` estimate.
* ``unknown`` — the analysis makes no claim (reserved registers, the
  deliberately broken ``unsafe`` protocol variant, target kinds the
  analysis does not model such as PC/memory/checkpoint storage).

Soundness argument for register cells (the subtle case): a bit of
register ``r`` struck right after commit tick ``t`` is restored to a
clean value before any read whenever backward *bit-level* liveness over
the committed golden instruction stream shows the bit dead after ``t``.
Every injection schedules acoustic detection within WCDL cycles, and
region-level recovery restores live-in registers from verified bindings
while dead registers are rewritten before any replayed read. The
transfer functions (the demand column of :mod:`repro.isa.semantics`)
are conservative where precision is not worth the
risk: load/store addresses, store values, branch operands and
checkpointed registers are always treated as full 32-bit reads, and
carry-propagating ALU ops (ADD/SUB/MUL and immediate forms) read the
down-fill of the destination's live mask. The classification is only
claimed for the protocol-sound variants (``turnstile``, ``warfree``,
``turnpike``); under ``unsafe`` everything is ``unknown`` because even
an injection that corrupts nothing can trigger an unsafe recovery.

The resulting :class:`VulnerabilityMap` is persisted in the artifact
cache keyed by the source digest, surfaced through verifier rules R7/R8,
the ``repro vuln`` CLI, and the stratified sampler in
:mod:`repro.faults.sampling`.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.isa.instructions import Instruction, Opcode
from repro.isa.program import Program
from repro.isa.semantics import FULL, SEMANTICS
from repro.runtime.interpreter import execute, replay
from repro.runtime.machine import ResilienceConfig, ResilientMachine, variant_config
from repro.runtime.memory import Memory

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.compiler.pipeline import CompiledProgram

MASKED = "masked"
VULNERABLE = "vulnerable"
UNKNOWN = "unknown"

#: Protocol variants for which the masked classification is claimed.
#: ``unsafe`` deliberately violates the checkpoint-release protocol
#: (Figure 16), so even a no-op strike can corrupt the outcome there.
SOUND_VARIANTS = ("turnstile", "warfree", "turnpike")

DEFAULT_VULN_VARIANTS = ("turnstile", "warfree", "turnpike")

#: Structures whose occupancy the analysis models per cycle.
STRUCTURE_TARGETS = ("store_buffer", "clq", "coloring")


def scheme_variant(scheme: str) -> str | None:
    """Map a compiler scheme name to its campaign protocol variant."""
    return {"turnpike": "turnpike", "turnstile": "turnstile"}.get(scheme)


# -- committed instruction stream --------------------------------------------


def committed_stream(
    program: Program,
    memory: Memory,
    max_steps: int = 4_000_000,
) -> list[Instruction]:
    """Execute ``program`` and return the committed instruction stream.

    The stream contains every committed non-BOUNDARY instruction in
    order (mirroring the resilient machine's tick counter: tick ``t`` is
    the ``t``-th entry, 1-based; the final entry is the RET). BOUNDARY
    markers do not advance the machine's tick and are excluded.
    """
    trace = execute(program, memory, max_steps=max_steps, collect_trace=True).trace
    assert trace is not None
    return [
        instr
        for instr, _ in replay(program, trace)
        if instr.op is not Opcode.BOUNDARY
    ]


# -- backward bit-level liveness ---------------------------------------------


def _transfer(instr: Instruction, live: dict[int, int]) -> None:
    """One backward step: update live-after masks across ``instr``.

    ``live`` maps register index to the live-after bit mask *below* the
    instruction; on return it holds the mask *above* it. The demand
    column of the semantics table says which source bits each demanded
    result bit reads; a row without one (loads, stores, checkpoints,
    branches) reads its sources in full even when its result is dead.
    """
    demand = SEMANTICS[instr.op].demand
    dest = instr.dest
    dmask = live.pop(dest.index, 0) if dest is not None else 0
    if demand is None:
        gain = FULL
    elif dmask:
        gain = demand(dmask, instr.imm)
    else:
        return  # dead destination: a pure ALU op reads nothing live
    if gain:
        for reg in instr.srcs:
            live[reg.index] = live.get(reg.index, 0) | gain


def register_bit_liveness(
    stream: list[Instruction],
) -> dict[int, list[tuple[int, int, int]]]:
    """Per-register live-after bit masks as run-length intervals.

    Returns ``{reg_index: [(start, end, mask), ...]}`` where ``mask`` is
    the live-after mask for every tick ``t`` in the inclusive interval
    ``[start, end]``; ticks not covered by any interval have mask 0
    (every bit masked). Intervals are ascending and disjoint.
    """
    ticks = len(stream)
    live: dict[int, int] = {}
    upper: dict[int, int] = {}
    runs: dict[int, list[tuple[int, int, int]]] = {}
    for t in range(ticks, 0, -1):
        # Entering this iteration, ``live`` holds live_after(., t).
        before = dict(live)
        _transfer(stream[t - 1], live)
        changed = set(before) | set(live)
        for index in changed:
            old = before.get(index, 0)
            new = live.get(index, 0)
            if old == new:
                continue
            hi = upper.get(index, ticks)
            if old:
                runs.setdefault(index, []).append((t, hi, old))
            upper[index] = t - 1
    for index, mask in live.items():
        if mask:
            runs.setdefault(index, []).append((1, upper.get(index, ticks), mask))
    for intervals in runs.values():
        intervals.reverse()
    return runs


# -- per-variant structure occupancy -----------------------------------------


def structure_occupancy(
    compiled: CompiledProgram,
    config: ResilienceConfig,
    memory: Memory,
    expected_ticks: int,
    max_steps: int = 8_000_000,
) -> dict[str, list[tuple[int, int]]]:
    """Occupied-cycle intervals of each injectable structure.

    Runs one fault-free resilient execution under ``config`` and records,
    per committed tick, whether a strike into each structure could hit a
    populated entry — exactly the criterion the machine's ``corrupt``
    hooks apply. Returns inclusive ``(start, end)`` intervals per
    structure name. Ticks outside every interval are strike no-ops.
    """
    machine = ResilientMachine(compiled, config, memory.copy(), max_steps=max_steps)
    state: dict[str, tuple[int, int] | None] = {
        name: None for name in STRUCTURE_TARGETS
    }
    out: dict[str, list[tuple[int, int]]] = {name: [] for name in STRUCTURE_TARGETS}
    last_tick = [0]

    def observe(name: str, occupied: bool, t: int) -> None:
        run = state[name]
        if occupied:
            if run is None:
                state[name] = (t, t)
            else:
                state[name] = (run[0], t)
        elif run is not None:
            out[name].append(run)
            state[name] = None

    def hook(label: str, pc: int, t: int, steps: int) -> None:
        last_tick[0] = t
        observe("store_buffer", bool(machine.sb.entries), t)
        clq = machine.clq
        observe("clq", clq is not None and clq.strike_targets() > 0, t)
        observe("coloring", machine.coloring.strike_targets() > 0, t)

    machine._on_tick = hook
    machine.run()
    for name in STRUCTURE_TARGETS:
        run = state[name]
        if run is not None:
            out[name].append(run)
    if last_tick[0] != expected_ticks - 1:
        raise RuntimeError(
            f"{compiled.program.name}: fault-free resilient run committed "
            f"{last_tick[0] + 1} ticks, golden walk committed {expected_ticks}"
        )
    return out


# -- the vulnerability map ---------------------------------------------------


@dataclass
class VulnerabilityMap:
    """Static masked/vulnerable/unknown classification of one program.

    ``ticks`` is the committed instruction count N (the RET commits at
    tick N); the campaign horizon is ``max(2, N - 1)`` and injection
    times range over ``[1, horizon - 1]``. ``reg_live`` holds live-after
    bit masks as inclusive RLE intervals; ``structures`` holds occupied
    tick intervals per protocol variant; ``active`` lists the structures
    that physically exist under each variant.
    """

    uid: str
    scheme: str
    wcdl: int
    ticks: int
    num_registers: int
    reserved: tuple[int, ...]
    variants: tuple[str, ...]
    active: dict[str, tuple[str, ...]]
    reg_live: dict[int, list[tuple[int, int, int]]]
    structures: dict[str, dict[str, list[tuple[int, int]]]]
    _starts: dict[int, list[int]] = field(
        default_factory=dict, repr=False, compare=False
    )

    @property
    def horizon(self) -> int:
        return max(2, self.ticks - 1)

    # -- lookups -----------------------------------------------------------

    def register_live_mask(self, reg: int, time: int) -> int:
        """Live-after bit mask of register ``reg`` at tick ``time``."""
        intervals = self.reg_live.get(reg)
        if not intervals:
            return 0
        starts = self._starts.get(reg)
        if starts is None:
            starts = self._starts[reg] = [iv[0] for iv in intervals]
        pos = bisect_right(starts, time) - 1
        if pos < 0:
            return 0
        start, end, mask = intervals[pos]
        return mask if start <= time <= end else 0

    def structure_occupied(self, variant: str, structure: str, time: int) -> bool:
        intervals = self.structures.get(variant, {}).get(structure, [])
        for start, end in intervals:
            if start <= time <= end:
                return True
            if start > time:
                break
        return False

    def classify(
        self,
        target: str,
        time: int,
        bit: int = 0,
        reg: int | None = None,
        variant: str = "turnpike",
    ) -> str:
        """Classify one injection cell as masked/vulnerable/unknown."""
        if variant not in SOUND_VARIANTS or variant not in self.variants:
            return UNKNOWN
        if time >= self.ticks:
            return MASKED  # the run returns at the RET tick; never applied
        if time < 1 or not 0 <= bit < 32:
            return UNKNOWN
        if target == "register":
            if reg is None or reg in self.reserved:
                return UNKNOWN
            if not 0 <= reg < self.num_registers:
                return UNKNOWN
            mask = self.register_live_mask(reg, time)
            return VULNERABLE if (mask >> bit) & 1 else MASKED
        if target in STRUCTURE_TARGETS:
            if self.structure_occupied(variant, target, time):
                return VULNERABLE
            return MASKED
        return UNKNOWN

    # -- aggregate views ---------------------------------------------------

    def _times(self) -> int:
        """Size of the campaign time population ``[1, horizon - 1]``."""
        return max(0, self.horizon - 1)

    def breakdown(self, variant: str) -> dict[str, dict[str, int]]:
        """Cell counts per target over the campaign population.

        The population matches what enumerated campaigns draw from:
        injection times in ``[1, horizon - 1]``, 32 bits, and (for the
        register target) every non-reserved register.
        """
        times = self._times()
        lo, hi = 1, self.horizon - 1
        out: dict[str, dict[str, int]] = {}
        regs = [
            r for r in range(self.num_registers) if r not in self.reserved
        ]
        total = len(regs) * 32 * times
        if variant not in SOUND_VARIANTS or variant not in self.variants:
            out["register"] = {
                "cells": total, "masked": 0, "vulnerable": 0, "unknown": total,
            }
        else:
            vulnerable = 0
            for r in regs:
                for start, end, mask in self.reg_live.get(r, []):
                    s, e = max(start, lo), min(end, hi)
                    if s <= e:
                        vulnerable += (e - s + 1) * mask.bit_count()
            out["register"] = {
                "cells": total,
                "masked": total - vulnerable,
                "vulnerable": vulnerable,
                "unknown": 0,
            }
        stotal = 32 * times
        for name in STRUCTURE_TARGETS:
            if variant not in SOUND_VARIANTS or variant not in self.variants:
                out[name] = {
                    "cells": stotal, "masked": 0, "vulnerable": 0,
                    "unknown": stotal,
                }
                continue
            occupied = 0
            for start, end in self.structures.get(variant, {}).get(name, []):
                s, e = max(start, lo), min(end, hi)
                if s <= e:
                    occupied += e - s + 1
            out[name] = {
                "cells": stotal,
                "masked": stotal - occupied * 32,
                "vulnerable": occupied * 32,
                "unknown": 0,
            }
        return out

    # -- persistence -------------------------------------------------------

    def to_dict(self) -> dict[str, object]:
        return {
            "uid": self.uid,
            "scheme": self.scheme,
            "wcdl": self.wcdl,
            "ticks": self.ticks,
            "num_registers": self.num_registers,
            "reserved": list(self.reserved),
            "variants": list(self.variants),
            "active": {v: list(names) for v, names in self.active.items()},
            "reg_live": {
                str(reg): [list(iv) for iv in intervals]
                for reg, intervals in sorted(self.reg_live.items())
            },
            "structures": {
                v: {
                    name: [list(iv) for iv in intervals]
                    for name, intervals in per.items()
                }
                for v, per in self.structures.items()
            },
        }

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> VulnerabilityMap:
        reserved = data["reserved"]
        variants = data["variants"]
        active = data["active"]
        reg_live = data["reg_live"]
        structures = data["structures"]
        wcdl = data["wcdl"]
        ticks = data["ticks"]
        num_registers = data["num_registers"]
        if not (
            isinstance(reserved, list)
            and isinstance(variants, list)
            and isinstance(active, dict)
            and isinstance(reg_live, dict)
            and isinstance(structures, dict)
            and isinstance(wcdl, int)
            and isinstance(ticks, int)
            and isinstance(num_registers, int)
        ):
            raise TypeError("malformed vulnerability-map payload")
        return cls(
            uid=str(data["uid"]),
            scheme=str(data["scheme"]),
            wcdl=wcdl,
            ticks=ticks,
            num_registers=num_registers,
            reserved=tuple(int(i) for i in reserved),
            variants=tuple(str(v) for v in variants),
            active={
                str(v): tuple(str(n) for n in names)
                for v, names in active.items()
            },
            reg_live={
                int(reg): [(int(iv[0]), int(iv[1]), int(iv[2])) for iv in intervals]
                for reg, intervals in reg_live.items()
            },
            structures={
                str(v): {
                    str(name): [(int(iv[0]), int(iv[1])) for iv in intervals]
                    for name, intervals in per.items()
                }
                for v, per in structures.items()
            },
        )

    def render_text(self) -> str:
        """Deterministic human-readable per-structure breakdown."""
        lines = [
            f"{self.uid} [{self.scheme}]: {self.ticks} committed ticks, "
            f"horizon {self.horizon}, wcdl {self.wcdl}"
        ]
        for variant in self.variants:
            lines.append(f"  variant {variant}:")
            per = self.breakdown(variant)
            for name in ("register", *STRUCTURE_TARGETS):
                row = per[name]
                cells = row["cells"]
                if cells == 0:
                    continue
                note = ""
                if name in STRUCTURE_TARGETS and name not in self.active.get(
                    variant, ()
                ):
                    note = " (absent)"
                lines.append(
                    f"    {name:<12} {cells:>10} cells  "
                    f"masked {row['masked'] / cells:7.2%}  "
                    f"vulnerable {row['vulnerable'] / cells:7.2%}  "
                    f"unknown {row['unknown'] / cells:7.2%}{note}"
                )
        return "\n".join(lines)


# -- builders ----------------------------------------------------------------


def build_map(
    compiled: CompiledProgram,
    memory_factory: Callable[[], Memory],
    *,
    uid: str,
    wcdl: int = 10,
    variants: tuple[str, ...] = DEFAULT_VULN_VARIANTS,
    max_steps: int = 4_000_000,
) -> VulnerabilityMap:
    """Compute the vulnerability map of one compiled program.

    ``memory_factory`` supplies a fresh initial memory per execution
    (one golden walk plus one fault-free resilient run per variant).
    """
    if compiled.recovery is None:
        raise ValueError(
            "vulnerability analysis needs a resilience-compiled program"
        )
    program = compiled.program
    stream = committed_stream(program, memory_factory(), max_steps)
    ticks = len(stream)
    reg_live = register_bit_liveness(stream)
    structures: dict[str, dict[str, list[tuple[int, int]]]] = {}
    active: dict[str, tuple[str, ...]] = {}
    for variant in variants:
        config = variant_config(variant, wcdl)
        names = ["store_buffer"]
        if config.clq_enabled:
            names.append("clq")
        if config.coloring_enabled:
            names.append("coloring")
        active[variant] = tuple(names)
        if variant in SOUND_VARIANTS:
            structures[variant] = structure_occupancy(
                compiled,
                config,
                memory_factory(),
                ticks,
                max_steps=2 * max_steps,
            )
        else:
            structures[variant] = {name: [] for name in STRUCTURE_TARGETS}
    rf = program.register_file
    return VulnerabilityMap(
        uid=uid,
        scheme=compiled.config.name,
        wcdl=wcdl,
        ticks=ticks,
        num_registers=rf.num_registers,
        reserved=rf.reserved,
        variants=tuple(variants),
        active=active,
        reg_live=reg_live,
        structures=structures,
    )


def vulnerability_map(
    uid: str,
    *,
    scheme: str = "turnpike",
    sb_size: int = 4,
    wcdl: int = 10,
    variants: tuple[str, ...] = DEFAULT_VULN_VARIANTS,
    max_steps: int = 4_000_000,
    use_cache: bool = True,
) -> VulnerabilityMap:
    """Build (or load from the artifact cache) one benchmark's map."""
    from repro.harness.artifacts import ArtifactCache

    cache = ArtifactCache.default() if use_cache else None
    key = ArtifactCache.vuln_key(uid, scheme, sb_size, wcdl, variants, max_steps)
    if cache is not None:
        data = cache.load_vuln(key)
        if data is not None:
            try:
                return VulnerabilityMap.from_dict(data)
            except (KeyError, TypeError, ValueError, AssertionError, IndexError):
                pass  # stale/corrupt entry: fall through and rebuild
    from repro.compiler.config import turnpike_config, turnstile_config
    from repro.compiler.pipeline import compile_program
    from repro.workloads.suites import load_workload

    workload = load_workload(uid)
    config = (
        turnstile_config(sb_size) if scheme == "turnstile"
        else turnpike_config(sb_size)
    )
    compiled = compile_program(workload.program, config)
    vmap = build_map(
        compiled,
        workload.fresh_memory,
        uid=uid,
        wcdl=wcdl,
        variants=variants,
        max_steps=max_steps,
    )
    if cache is not None:
        cache.store_vuln(key, vmap.to_dict())
    return vmap
