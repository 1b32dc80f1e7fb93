"""Single-event-upset injection harness with a typed error taxonomy.

Runs a compiled program on the :class:`ResilientMachine` with one fault
injected at a chosen commit tick, then compares the final data memory
against a fault-free golden run. This is how the repository *proves* the
paper's safety arguments rather than asserting them:

* WAR-free fast release is recoverable (Section 4.3.1);
* colored checkpoint release is recoverable (Section 4.3.2);
* uncolored checkpoint release corrupts recovery (Figure 16) — the
  deliberately unsafe mode must produce mismatches.

Every run is classified into a :class:`FaultOutcomeKind` so campaigns
can distinguish "the protocol contained the error" (MASKED / RECOVERED /
DETECTED_HALT) from "something is wrong with the model or the protocol"
(SDC / PROTOCOL_BUG / TIMEOUT). Unexpected exceptions are never silently
counted as contained: they surface as PROTOCOL_BUG with a full
traceback.
"""

from __future__ import annotations

import enum
import random
import traceback as _traceback
from dataclasses import dataclass, field

from repro.compiler.pipeline import CompiledProgram
from repro.faults.snapshot import (
    ConvergedExit,
    GoldenRecord,
    SkipAhead,
    prepare_accelerated_run,
    resume_from_snapshot,
)
from repro.isa.registers import Reg
from repro.runtime.interpreter import execute
from repro.runtime.machine import (
    DetectedHalt,
    Injection,
    InjectionTarget,
    ProtocolError,
    RecoveryFailure,
    ResilienceConfig,
    ResilientMachine,
    WatchdogTimeout,
)
from repro.runtime.memory import DATA_BASE, DATA_LIMIT, Memory


class FaultOutcomeKind(enum.Enum):
    """What one injected run amounted to.

    * MASKED — the flip never influenced architectural state: output
      correct, no recovery ran (overwritten / struck idle storage /
      corrected in place by ECC).
    * RECOVERED — detection fired, recovery re-executed, output correct.
    * DETECTED_HALT — hardware detected an uncorrectable error (multi-bit
      ECC, missing binding) and failed-stop instead of corrupting state.
    * SDC — silent data corruption: the run finished with wrong output.
    * MISCORRECTED — real-code ECC mode only: the decoder applied a
      *wrong* correction to a struck word and that substituted value
      corrupted the final output. A distinct bucket from SDC because
      the fail-safe itself manufactured the bad value.
    * PROTOCOL_BUG — the protocol model reached an impossible state or
      the simulator raised an unexpected exception.
    * TIMEOUT — the watchdog killed a livelocked injected run.
    """

    MASKED = "masked"
    RECOVERED = "recovered"
    DETECTED_HALT = "detected_halt"
    SDC = "sdc"
    MISCORRECTED = "miscorrected"
    PROTOCOL_BUG = "protocol_bug"
    TIMEOUT = "timeout"


#: Outcomes in which the error was correctly contained by the protocol.
CONTAINED_KINDS = frozenset(
    {
        FaultOutcomeKind.MASKED,
        FaultOutcomeKind.RECOVERED,
        FaultOutcomeKind.DETECTED_HALT,
    }
)

#: The taxonomy before real-code ECC mode existed. Campaign aggregates
#: run with ECC off zero-fill only these, keeping their JSON
#: byte-identical to pre-ECC campaigns.
LEGACY_KINDS: tuple[FaultOutcomeKind, ...] = (
    FaultOutcomeKind.MASKED,
    FaultOutcomeKind.RECOVERED,
    FaultOutcomeKind.DETECTED_HALT,
    FaultOutcomeKind.SDC,
    FaultOutcomeKind.PROTOCOL_BUG,
    FaultOutcomeKind.TIMEOUT,
)


@dataclass
class InjectionOutcome:
    """Result of one injected run."""

    injection: Injection
    kind: FaultOutcomeKind
    correct: bool  # final data memory == golden
    recovered: bool  # at least one recovery was exercised
    parity_detected: bool
    error: str | None = None  # exception text for non-completed runs
    traceback: str | None = None  # full traceback for PROTOCOL_BUG

    @property
    def masked(self) -> bool:
        """Correct output with no recovery — never true for an SDC."""
        return self.kind is FaultOutcomeKind.MASKED

    @property
    def contained(self) -> bool:
        return self.kind in CONTAINED_KINDS


@dataclass
class CampaignResult:
    """Aggregate over many injections."""

    outcomes: list[InjectionOutcome] = field(default_factory=list)

    @property
    def runs(self) -> int:
        return len(self.outcomes)

    @property
    def correct_runs(self) -> int:
        return sum(1 for o in self.outcomes if o.correct)

    @property
    def sdc_runs(self) -> int:
        """Silent data corruptions: wrong output, no crash."""
        return sum(1 for o in self.outcomes if o.kind is FaultOutcomeKind.SDC)

    @property
    def failed_runs(self) -> int:
        return sum(1 for o in self.outcomes if o.error is not None)

    @property
    def recovery_runs(self) -> int:
        return sum(1 for o in self.outcomes if o.recovered)

    @property
    def masked_runs(self) -> int:
        return sum(1 for o in self.outcomes if o.masked)

    @property
    def bug_runs(self) -> int:
        return sum(
            1 for o in self.outcomes if o.kind is FaultOutcomeKind.PROTOCOL_BUG
        )

    def by_kind(
        self, kinds: tuple[FaultOutcomeKind, ...] | None = None
    ) -> dict[str, int]:
        """Histogram over the outcome taxonomy.

        ``kinds`` selects the zero-filled key set (``LEGACY_KINDS`` for
        pre-ECC byte-identity); kinds that actually occurred are always
        counted regardless.
        """
        hist = {kind.value: 0 for kind in (kinds or tuple(FaultOutcomeKind))}
        for o in self.outcomes:
            hist[o.kind.value] = hist.get(o.kind.value, 0) + 1
        return hist

    def by_target(
        self, kinds: tuple[FaultOutcomeKind, ...] | None = None
    ) -> dict[str, dict[str, int]]:
        """Per-structure vulnerability report: target -> kind histogram."""
        template = kinds or tuple(FaultOutcomeKind)
        table: dict[str, dict[str, int]] = {}
        for o in self.outcomes:
            hist = table.setdefault(
                o.injection.target.value,
                {kind.value: 0 for kind in template},
            )
            hist[o.kind.value] = hist.get(o.kind.value, 0) + 1
        return table

    def summary(self) -> dict[str, int]:
        return {
            "runs": self.runs,
            "correct": self.correct_runs,
            "sdc": self.sdc_runs,
            "failed": self.failed_runs,
            "recoveries": self.recovery_runs,
            **self.by_kind(),
        }


# -- serialization (campaign manifests) ------------------------------------


def injection_to_dict(injection: Injection) -> dict:
    return {
        "time": injection.time,
        "target": injection.target.value,
        "reg": injection.reg.index if injection.reg is not None else None,
        "bit": injection.bit,
        "bits": list(injection.bits),
        "detection_delay": injection.detection_delay,
        "addr": injection.addr,
    }


def injection_from_dict(data: dict) -> Injection:
    reg = data.get("reg")
    return Injection(
        time=data["time"],
        target=InjectionTarget(data["target"]),
        reg=Reg.phys(reg) if reg is not None else None,
        bit=data.get("bit", 0),
        bits=tuple(data.get("bits", ())),
        detection_delay=data.get("detection_delay", 0),
        addr=data.get("addr"),
    )


def outcome_to_dict(outcome: InjectionOutcome) -> dict:
    return {
        "injection": injection_to_dict(outcome.injection),
        "kind": outcome.kind.value,
        "correct": outcome.correct,
        "recovered": outcome.recovered,
        "parity_detected": outcome.parity_detected,
        "error": outcome.error,
        "traceback": outcome.traceback,
    }


def outcome_from_dict(data: dict) -> InjectionOutcome:
    return InjectionOutcome(
        injection=injection_from_dict(data["injection"]),
        kind=FaultOutcomeKind(data["kind"]),
        correct=data["correct"],
        recovered=data["recovered"],
        parity_detected=data["parity_detected"],
        error=data.get("error"),
        traceback=data.get("traceback"),
    )


# -- single runs -----------------------------------------------------------


def golden_memory(compiled: CompiledProgram, memory: Memory) -> dict[int, int]:
    """Fault-free reference image of the data segment."""
    result = execute(compiled.program, memory.copy())
    return result.memory.data_image()


def run_with_injection(
    compiled: CompiledProgram,
    config: ResilienceConfig,
    memory: Memory,
    injection: Injection,
    golden: dict[int, int] | None = None,
    max_steps: int = 4_000_000,
    wall_clock_budget: float | None = None,
    accel: "GoldenRecord | None" = None,
) -> InjectionOutcome:
    """Execute one injected run and classify it against the golden image.

    ``accel`` (a :class:`repro.faults.snapshot.GoldenRecord` built for
    the *same* compiled program, config, memory and ``max_steps``)
    enables snapshot fast-forward to the injection tick and convergence
    early-exit against the golden hash streams. Acceleration is
    observationally invisible — the returned outcome is identical to an
    unaccelerated run — and is ignored under a wall-clock budget (the
    budget's trip point is inherently timing-dependent).
    """
    if golden is None:
        golden = golden_memory(compiled, memory)
    if wall_clock_budget is not None:
        accel = None
    machine = ResilientMachine(
        compiled,
        config,
        # prepare_accelerated_run installs an accelerated run's image.
        None if accel is not None else memory.copy(),
        max_steps=max_steps,
        wall_clock_budget=wall_clock_budget,
    )
    if accel is not None:
        # Restore before arming: restore() overwrites the injection slot.
        prepare_accelerated_run(machine, accel, injection.time, memory)
    machine.arm_injection(injection)
    try:
        while True:
            try:
                stats = machine.run()
                break
            except SkipAhead as skip:
                # Blocked on a cell golden loads again: continue from the
                # golden snapshot before that load instead of stepping there.
                resume_from_snapshot(machine, accel, skip, memory)
    except ConvergedExit as conv:
        # The injected run aligned with a golden tick and provably replays
        # the golden suffix from there: splice the terminal result. It
        # ends with golden's image except for the escaped cells.
        total_steps = conv.steps + (accel.total_steps - conv.golden_steps)
        if total_steps > max_steps:
            # The from-scratch run would have tripped the watchdog while
            # replaying this suffix.
            return InjectionOutcome(
                injection=injection,
                kind=FaultOutcomeKind.TIMEOUT,
                correct=False,
                recovered=machine.stats.recoveries > 0,
                parity_detected=machine.stats.parity_detections > 0,
                error=(
                    f"WatchdogTimeout: {compiled.program.name}: exceeded "
                    f"{max_steps} steps (possible recovery livelock)"
                ),
            )
        stats = machine.stats
        correct = not any(DATA_BASE <= addr < DATA_LIMIT for addr in conv.escaped)
    except WatchdogTimeout as exc:
        return InjectionOutcome(
            injection=injection,
            kind=FaultOutcomeKind.TIMEOUT,
            correct=False,
            recovered=machine.stats.recoveries > 0,
            parity_detected=machine.stats.parity_detections > 0,
            error=f"{type(exc).__name__}: {exc}",
        )
    except (DetectedHalt, RecoveryFailure) as exc:
        # The hardware detected an error it could not repair and halted:
        # the error is contained (fail-stop), just not transparent.
        return InjectionOutcome(
            injection=injection,
            kind=FaultOutcomeKind.DETECTED_HALT,
            correct=False,
            recovered=machine.stats.recoveries > 0,
            parity_detected=machine.stats.parity_detections > 0,
            error=f"{type(exc).__name__}: {exc}",
        )
    except (ProtocolError, Exception) as exc:  # noqa: BLE001 - classified
        # Anything else — ProtocolError or an unexpected simulator crash —
        # is a bug in the model or the protocol, never a contained fault.
        return InjectionOutcome(
            injection=injection,
            kind=FaultOutcomeKind.PROTOCOL_BUG,
            correct=False,
            recovered=machine.stats.recoveries > 0,
            parity_detected=machine.stats.parity_detections > 0,
            error=f"{type(exc).__name__}: {exc}",
            traceback=_traceback.format_exc(),
        )
    else:
        correct = machine.mem.data_image() == golden
    recovered = stats.recoveries > 0
    if not correct:
        # Wrong output manufactured by the ECC decoder itself (a wrong
        # "correction" substituted into the run) is its own bucket;
        # plain SDC means the corruption slipped past everything.
        kind = (
            FaultOutcomeKind.MISCORRECTED
            if stats.ecc_miscorrections > 0
            else FaultOutcomeKind.SDC
        )
    elif recovered:
        kind = FaultOutcomeKind.RECOVERED
    else:
        kind = FaultOutcomeKind.MASKED
    return InjectionOutcome(
        injection=injection,
        kind=kind,
        correct=correct,
        recovered=recovered,
        parity_detected=stats.parity_detections > 0,
    )


# -- injection generators --------------------------------------------------

#: Structures an SEU campaign can strike, in round-robin order.
DEFAULT_TARGET_MIX: tuple[InjectionTarget, ...] = (
    InjectionTarget.REGISTER,
    InjectionTarget.STORE_BUFFER,
    InjectionTarget.CLQ,
    InjectionTarget.COLORING,
    InjectionTarget.CHECKPOINT,
    InjectionTarget.PC,
    InjectionTarget.MEMORY,
)

#: Fraction of injections upgraded to double-bit events.
DOUBLE_FLIP_RATE = 0.2


def injection_for_index(
    compiled: CompiledProgram,
    wcdl: int,
    seed: int,
    index: int,
    horizon: int,
    targets: tuple[InjectionTarget, ...] = DEFAULT_TARGET_MIX,
    upset: str | None = None,
) -> Injection:
    """Deterministically derive injection ``index`` of a campaign.

    Each injection depends only on ``(seed, index)`` plus the static
    campaign parameters — never on how many injections were generated
    before it — so a resumed campaign reproduces exactly the same faults
    regardless of which shards already ran.

    ``upset`` names a :mod:`repro.ecc.faultmodel` pattern that shapes
    the flipped bit set (e.g. ``adjacent-double``, ``burst3``); None
    keeps the classic single/occasional-double generator and its exact
    historical rng draw order.
    """
    rng = random.Random(f"{seed}:{index}")
    target = targets[index % len(targets)]
    time = rng.randrange(1, max(2, horizon))
    delay = rng.randrange(0, wcdl + 1)
    bits: tuple[int, ...]
    if upset is not None:
        from repro.ecc.faultmodel import pattern

        mask = pattern(upset).sample(rng, 32)
        positions = tuple(b for b in range(32) if (mask >> b) & 1)
        bit = positions[0]
        bits = positions if len(positions) > 1 else ()
    else:
        bit = rng.randrange(32)
        bits = ()
        if rng.random() < DOUBLE_FLIP_RATE:
            second = rng.randrange(31)
            if second >= bit:
                second += 1
            bits = (bit, second)
    reg = None
    if target is InjectionTarget.REGISTER:
        num_regs = compiled.program.register_file.num_registers
        reserved = set(compiled.program.register_file.reserved)
        while True:
            reg_idx = rng.randrange(num_regs)
            if reg_idx not in reserved:
                break
        reg = Reg.phys(reg_idx)
    return Injection(
        time=time,
        target=target,
        reg=reg,
        bit=bit,
        bits=bits,
        detection_delay=delay,
    )


def random_mixed_injections(
    compiled: CompiledProgram,
    wcdl: int,
    count: int,
    seed: int,
    horizon: int,
    targets: tuple[InjectionTarget, ...] = DEFAULT_TARGET_MIX,
) -> list[Injection]:
    """``count`` deterministic injections cycling over ``targets``."""
    return [
        injection_for_index(compiled, wcdl, seed, index, horizon, targets)
        for index in range(count)
    ]


def random_register_injections(
    compiled: CompiledProgram,
    wcdl: int,
    count: int,
    seed: int,
    horizon: int,
) -> list[Injection]:
    """Uniformly sample register bit flips over the commit timeline."""
    rng = random.Random(seed)
    num_regs = compiled.program.register_file.num_registers
    reserved = set(compiled.program.register_file.reserved)
    injections = []
    for _ in range(count):
        while True:
            reg_idx = rng.randrange(num_regs)
            if reg_idx not in reserved:
                break
        injections.append(
            Injection(
                time=rng.randrange(1, max(2, horizon)),
                target=InjectionTarget.REGISTER,
                reg=Reg.phys(reg_idx),
                bit=rng.randrange(32),
                detection_delay=rng.randrange(0, wcdl + 1),
            )
        )
    return injections


def run_campaign(
    compiled: CompiledProgram,
    config: ResilienceConfig,
    memory: Memory,
    injections: list[Injection],
    max_steps: int = 4_000_000,
) -> CampaignResult:
    """Run a batch of injections against one program/config."""
    golden = golden_memory(compiled, memory)
    result = CampaignResult()
    for injection in injections:
        result.outcomes.append(
            run_with_injection(
                compiled, config, memory, injection, golden, max_steps=max_steps
            )
        )
    return result
