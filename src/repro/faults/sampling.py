"""Stratified importance-sampled AVF estimation over vulnerability maps.

Exhaustive fault-injection campaigns spend almost all of their runs on
cells the static analysis (:mod:`repro.verify.vuln`) already proves
masked. This module turns the :class:`~repro.verify.vuln.VulnerabilityMap`
into sampling *strata* — masked / vulnerable / unknown cell populations
per injection target — and estimates the architectural vulnerability
factor (AVF: the probability a uniformly random bit-cycle strike corrupts
the architectural outcome) as the population-weighted sum of per-stratum
failure rates:

    AVF = sum_s w_s * p_s,    w_s = |stratum_s| / |population|

* **masked** strata are charged a fixed *token rate* of cross-check
  injections: the analysis claims p = 0, every token must come back
  correct, and a single corrupting hit raises
  :class:`MaskedMisclassification` — the campaign fails loudly rather
  than silently under-reporting.
* **vulnerable** and **unknown** strata are sampled adaptively in
  batches until the stratum's Wilson score interval, scaled by its
  population weight, is tighter than the requested ``ci_width`` (or the
  stratum budget is exhausted).

The total interval half-width is ``sum_s w_s * hw_s`` — conservative
(no independence assumption between strata). Every draw is derived from
``(seed, variant, target, stratum, draw-index)`` alone, so sampled
campaigns are exactly reproducible.

``validate_benchmark`` is the differential validator behind
``repro vuln --validate``: on a restricted register-cell population it
runs the exhaustive ground truth, checks that not one masked-classified
cell corrupts the output, and checks the sampled interval covers the
exhaustive AVF at a fraction of the injections.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.verify.vuln import (
    MASKED,
    SOUND_VARIANTS,
    STRUCTURE_TARGETS,
    UNKNOWN,
    VULNERABLE,
    VulnerabilityMap,
)

_FULL = 0xFFFF_FFFF

#: (target, reg-or-None, bit, time, detection-delay) -> outcome correct?
RunCell = Callable[[str, int | None, int, int, int], bool]


class MaskedMisclassification(RuntimeError):
    """A statically masked cell corrupted the output under injection."""


# -- confidence arithmetic ---------------------------------------------------

_Z_TABLE = {
    0.90: 1.6448536269514722,
    0.95: 1.959963984540054,
    0.99: 2.5758293035489004,
}


def _inverse_normal_cdf(p: float) -> float:
    """Acklam's rational approximation of the standard normal quantile."""
    if not 0.0 < p < 1.0:
        raise ValueError("quantile argument must be in (0, 1)")
    a = (-3.969683028665376e+01, 2.209460984245205e+02,
         -2.759285104469687e+02, 1.383577518672690e+02,
         -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02,
         -1.556989798598866e+02, 6.680131188771972e+01,
         -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01,
         -2.400758277161838e+00, -2.549732539343734e+00,
         4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01,
         2.445134137142996e+00, 3.754408661907416e+00)
    p_low = 0.02425
    if p < p_low:
        q = math.sqrt(-2.0 * math.log(p))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q
                + c[5]) / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1)
    if p > 1 - p_low:
        q = math.sqrt(-2.0 * math.log(1 - p))
        return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q
                 + c[5]) / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1)
    q = p - 0.5
    r = q * q
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r
            + a[5]) * q / (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r
                            + b[4]) * r + 1)


def z_score(confidence: float) -> float:
    """Two-sided z critical value for a confidence level in (0, 1)."""
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    z = _Z_TABLE.get(confidence)
    if z is not None:
        return z
    return _inverse_normal_cdf(0.5 + confidence / 2.0)


def wilson(failures: int, n: int, z: float) -> tuple[float, float]:
    """Wilson score interval as ``(center, half_width)``.

    With n = 0 there is no information: the interval is all of [0, 1].
    """
    if n == 0:
        return 0.5, 0.5
    p = failures / n
    z2 = z * z
    denom = 1.0 + z2 / n
    center = (p + z2 / (2.0 * n)) / denom
    half = (z / denom) * math.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n))
    return center, half


# -- options -----------------------------------------------------------------


@dataclass(frozen=True)
class SamplingOptions:
    """Knobs of an importance-sampled campaign.

    ``ci_width`` bounds each stratum's *weighted* Wilson half-width
    (its contribution to the overall interval); ``token_rate`` is the
    number of cross-check injections charged to every masked stratum;
    ``batch`` is the adaptive sampling step; ``max_per_stratum`` caps a
    stratum's draw count (never above the stratum population).
    """

    enabled: bool = False
    ci_width: float = 0.05
    confidence: float = 0.95
    token_rate: int = 8
    batch: int = 16
    max_per_stratum: int = 512

    def __post_init__(self) -> None:
        if self.ci_width <= 0.0:
            raise ValueError("ci_width must be positive")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must be in (0, 1)")
        if self.token_rate < 1 or self.batch < 1 or self.max_per_stratum < 1:
            raise ValueError("sampling budgets must be >= 1")

    def to_dict(self) -> dict[str, object]:
        return {
            "enabled": self.enabled,
            "ci_width": self.ci_width,
            "confidence": self.confidence,
            "token_rate": self.token_rate,
            "batch": self.batch,
            "max_per_stratum": self.max_per_stratum,
        }

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> SamplingOptions:
        return cls(
            enabled=bool(data["enabled"]),
            ci_width=float(data["ci_width"]),  # type: ignore[arg-type]
            confidence=float(data["confidence"]),  # type: ignore[arg-type]
            token_rate=int(data["token_rate"]),  # type: ignore[call-overload]
            batch=int(data["batch"]),  # type: ignore[call-overload]
            max_per_stratum=int(data["max_per_stratum"]),  # type: ignore[call-overload]
        )


# -- strata ------------------------------------------------------------------


@dataclass
class Stratum:
    """One same-class cell population of one injection target.

    Cells are stored as run-length segments ``(count, reg, t_start,
    mask)``: ``count`` cells covering consecutive ticks from ``t_start``
    with ``popcount(mask)`` bits per tick (``reg`` is -1 for structure
    targets, whose "bits" index the struck entry). The flat cell index
    space ``[0, size)`` is what draws sample from.
    """

    target: str
    label: str
    segments: list[tuple[int, int, int, int]] = field(default_factory=list)
    _prefix: list[int] = field(default_factory=list, repr=False)

    def add(self, count: int, reg: int, t_start: int, mask: int) -> None:
        if count > 0:
            self.segments.append((count, reg, t_start, mask))
            self._prefix = []

    @property
    def size(self) -> int:
        return sum(seg[0] for seg in self.segments)

    def cell(self, index: int) -> tuple[int | None, int, int]:
        """Flat index -> ``(reg_or_None, bit, time)``."""
        if not self._prefix:
            total = 0
            for seg in self.segments:
                total += seg[0]
                self._prefix.append(total)
        pos = bisect_right(self._prefix, index)
        if pos >= len(self.segments):
            raise IndexError(index)
        count, reg, t_start, mask = self.segments[pos]
        offset = index - (self._prefix[pos] - count)
        per_tick = mask.bit_count()
        time = t_start + offset // per_tick
        rank = offset % per_tick
        bit = _nth_set_bit(mask, rank)
        return (reg if reg >= 0 else None), bit, time


def _nth_set_bit(mask: int, rank: int) -> int:
    for bit in range(32):
        if (mask >> bit) & 1:
            if rank == 0:
                return bit
            rank -= 1
    raise ValueError(f"mask {mask:#x} has no set bit of rank {rank}")


def build_strata(
    vmap: VulnerabilityMap, variant: str, target: str
) -> dict[str, Stratum]:
    """Partition one target's campaign cell population by static class.

    The population matches what enumerated campaigns draw from: times in
    ``[1, horizon - 1]``, 32 bits per tick, every non-reserved register
    for the register target. Unsound variants (and unmodelled targets)
    place everything in the ``unknown`` stratum.
    """
    strata = {
        MASKED: Stratum(target, MASKED),
        VULNERABLE: Stratum(target, VULNERABLE),
        UNKNOWN: Stratum(target, UNKNOWN),
    }
    lo, hi = 1, vmap.horizon - 1
    if hi < lo:
        return strata
    sound = variant in SOUND_VARIANTS and variant in vmap.variants
    if target == "register":
        regs = [
            r for r in range(vmap.num_registers) if r not in vmap.reserved
        ]
        for reg in regs:
            if not sound:
                strata[UNKNOWN].add((hi - lo + 1) * 32, reg, lo, _FULL)
                continue
            pos = lo
            for start, end, mask in vmap.reg_live.get(reg, []):
                s, e = max(start, lo), min(end, hi)
                if s > e:
                    continue
                if s > pos:
                    strata[MASKED].add((s - pos) * 32, reg, pos, _FULL)
                ticks = e - s + 1
                strata[VULNERABLE].add(ticks * mask.bit_count(), reg, s, mask)
                dead = ~mask & _FULL
                if dead:
                    strata[MASKED].add(ticks * dead.bit_count(), reg, s, dead)
                pos = e + 1
            if pos <= hi:
                strata[MASKED].add((hi - pos + 1) * 32, reg, pos, _FULL)
        return strata
    if target in STRUCTURE_TARGETS:
        if not sound:
            strata[UNKNOWN].add((hi - lo + 1) * 32, -1, lo, _FULL)
            return strata
        pos = lo
        for start, end in vmap.structures.get(variant, {}).get(target, []):
            s, e = max(start, lo), min(end, hi)
            if s > e:
                continue
            if s > pos:
                strata[MASKED].add((s - pos) * 32, -1, pos, _FULL)
            strata[VULNERABLE].add((e - s + 1) * 32, -1, s, _FULL)
            pos = e + 1
        if pos <= hi:
            strata[MASKED].add((hi - pos + 1) * 32, -1, pos, _FULL)
        return strata
    # Unmodelled target (pc / memory / checkpoint): no static claim.
    strata[UNKNOWN].add((hi - lo + 1) * 32, -1, lo, _FULL)
    return strata


# -- adaptive per-stratum sampling -------------------------------------------


@dataclass
class StratumEstimate:
    """Sampled failure-rate estimate of one stratum."""

    target: str
    label: str
    population: int
    weight: float
    injections: int
    failures: int
    center: float
    half_width: float


def _draw(
    stratum: Stratum, rng_key: str, index: int, wcdl: int
) -> tuple[int | None, int, int, int]:
    """The ``index``-th deterministic draw: (reg, bit, time, delay)."""
    rng = random.Random(f"{rng_key}:{index}")
    reg, bit, time = stratum.cell(rng.randrange(stratum.size))
    delay = rng.randrange(0, wcdl + 1)
    return reg, bit, time, delay


def sample_stratum(
    stratum: Stratum,
    *,
    weight: float,
    options: SamplingOptions,
    z: float,
    rng_key: str,
    wcdl: int,
    run_cell: RunCell,
) -> StratumEstimate:
    """Estimate one stratum's failure rate under the sampling policy."""
    size = stratum.size
    if size == 0:
        return StratumEstimate(
            stratum.target, stratum.label, 0, 0.0, 0, 0, 0.0, 0.0
        )
    if stratum.label == MASKED:
        tokens = min(options.token_rate, size)
        for i in range(tokens):
            reg, bit, time, delay = _draw(stratum, rng_key, i, wcdl)
            if not run_cell(stratum.target, reg, bit, time, delay):
                raise MaskedMisclassification(
                    f"statically masked cell corrupted the output: "
                    f"target={stratum.target} reg={reg} bit={bit} "
                    f"time={time} delay={delay}"
                )
        return StratumEstimate(
            stratum.target, stratum.label, size, weight, tokens, 0, 0.0, 0.0
        )
    cap = min(options.max_per_stratum, size)
    failures = 0
    n = 0
    while n < cap:
        batch = min(options.batch, cap - n)
        for i in range(n, n + batch):
            reg, bit, time, delay = _draw(stratum, rng_key, i, wcdl)
            if not run_cell(stratum.target, reg, bit, time, delay):
                failures += 1
        n += batch
        _, half = wilson(failures, n, z)
        if weight * half <= options.ci_width:
            break
    center, half = wilson(failures, n, z)
    return StratumEstimate(
        stratum.target, stratum.label, size, weight, n, failures, center, half
    )


def estimate_avf(
    vmap: VulnerabilityMap,
    variant: str,
    targets: tuple[str, ...],
    *,
    options: SamplingOptions,
    seed: int,
    wcdl: int,
    run_cell: RunCell,
) -> dict[str, dict[str, object]]:
    """Per-target AVF estimates with confidence intervals for one variant."""
    z = z_score(options.confidence)
    out: dict[str, dict[str, object]] = {}
    for target in targets:
        strata = build_strata(vmap, variant, target)
        total = sum(s.size for s in strata.values())
        if total == 0:
            continue
        estimates: list[StratumEstimate] = []
        for label in (MASKED, VULNERABLE, UNKNOWN):
            stratum = strata[label]
            estimates.append(
                sample_stratum(
                    stratum,
                    weight=stratum.size / total,
                    options=options,
                    z=z,
                    rng_key=f"{seed}:avf:{variant}:{target}:{label}",
                    wcdl=wcdl,
                    run_cell=run_cell,
                )
            )
        avf = sum(e.weight * e.center for e in estimates)
        half = sum(e.weight * e.half_width for e in estimates)
        out[target] = {
            "avf": avf,
            "ci_low": max(0.0, avf - half),
            "ci_high": min(1.0, avf + half),
            "half_width": half,
            "confidence": options.confidence,
            "population": total,
            "injections": sum(e.injections for e in estimates),
            "strata": {
                e.label: {
                    "population": e.population,
                    "weight": e.weight,
                    "injections": e.injections,
                    "failures": e.failures,
                    "center": e.center,
                    "half_width": e.half_width,
                }
                for e in estimates
            },
        }
    return out


# -- differential validation (repro vuln --validate) -------------------------


@dataclass
class ValidationResult:
    """Sampled-vs-exhaustive comparison on a restricted cell population."""

    uid: str
    variant: str
    cells: int
    exhaustive_injections: int
    exhaustive_avf: float
    masked_cells: int
    masked_misclassified: int
    sampled_injections: int
    sampled_avf: float
    ci_low: float
    ci_high: float
    covered: bool
    saved_ratio: float

    @property
    def ok(self) -> bool:
        return self.masked_misclassified == 0 and self.covered

    def render_text(self) -> str:
        verdict = "PASS" if self.ok else "FAIL"
        return (
            f"{self.uid} [{self.variant}] {verdict}: "
            f"exhaustive AVF {self.exhaustive_avf:.4f} over {self.cells} "
            f"cells ({self.masked_cells} masked, "
            f"{self.masked_misclassified} misclassified); sampled "
            f"{self.sampled_avf:.4f} in [{self.ci_low:.4f}, "
            f"{self.ci_high:.4f}] ({'covers' if self.covered else 'MISSES'} "
            f"truth) with {self.sampled_injections}/"
            f"{self.exhaustive_injections} injections "
            f"({self.saved_ratio:.0%} saved)"
        )

    def to_dict(self) -> dict[str, object]:
        return {
            "uid": self.uid,
            "variant": self.variant,
            "cells": self.cells,
            "exhaustive_injections": self.exhaustive_injections,
            "exhaustive_avf": self.exhaustive_avf,
            "masked_cells": self.masked_cells,
            "masked_misclassified": self.masked_misclassified,
            "sampled_injections": self.sampled_injections,
            "sampled_avf": self.sampled_avf,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "covered": self.covered,
            "saved_ratio": self.saved_ratio,
            "ok": self.ok,
        }


VALIDATION_BITS = (0, 7, 15, 31)
VALIDATION_CELL_BUDGET = 480


def validate_benchmark(
    uid: str,
    *,
    variant: str = "turnpike",
    wcdl: int = 10,
    seed: int = 1234,
    ci_width: float = 0.05,
    confidence: float = 0.95,
    max_steps: int = 4_000_000,
    use_cache: bool = True,
) -> ValidationResult:
    """Differential sampled-vs-exhaustive validation on one benchmark.

    Restricts the campaign population to register cells over a bit
    subset and a tick stride (~a few hundred cells), so the exhaustive
    sweep stays cheap enough for CI, then asserts the two contract
    properties: zero masked misclassifications and interval coverage of
    the exhaustive ground truth.
    """
    from repro.compiler.config import turnpike_config
    from repro.compiler.pipeline import compile_program
    # Deferred: repro.faults.campaign imports this module at top level.
    from repro.faults.campaign import CampaignSpec, _golden_record
    from repro.faults.injector import golden_memory, run_with_injection
    from repro.faults.snapshot import DEFAULT_SNAPSHOT_INTERVAL
    from repro.isa.registers import Reg
    from repro.runtime.machine import Injection, InjectionTarget, variant_config
    from repro.verify.vuln import vulnerability_map
    from repro.workloads.suites import load_workload

    vmap = vulnerability_map(
        uid,
        wcdl=wcdl,
        variants=(variant,),
        max_steps=max_steps,
        use_cache=use_cache,
    )
    workload = load_workload(uid)
    compiled = compile_program(workload.program, turnpike_config())
    memory = workload.fresh_memory()
    golden = golden_memory(compiled, memory)
    config = variant_config(variant, wcdl)
    accel_spec = CampaignSpec(
        uid=uid, wcdl=wcdl, count=1, seed=seed,
        variants=(variant,), max_steps=max_steps,
    )
    accel = _golden_record(accel_spec, variant, DEFAULT_SNAPSHOT_INTERVAL)

    regs = [r for r in range(vmap.num_registers) if r not in vmap.reserved]
    lo, hi = 1, vmap.horizon - 1
    ticks = max(0, hi - lo + 1)
    per_tick = len(regs) * len(VALIDATION_BITS)
    stride = max(1, (ticks * per_tick) // VALIDATION_CELL_BUDGET)
    cells = [
        (reg, bit, t)
        for t in range(lo, hi + 1, stride)
        for reg in regs
        for bit in VALIDATION_BITS
    ]

    outcomes: dict[int, bool] = {}

    def run_cell_index(index: int) -> bool:
        cached = outcomes.get(index)
        if cached is not None:
            return cached
        reg, bit, time = cells[index]
        delay = random.Random(f"{seed}:val:{index}").randrange(0, wcdl + 1)
        outcome = run_with_injection(
            compiled,
            config,
            memory,
            Injection(
                time=time,
                target=InjectionTarget.REGISTER,
                reg=Reg.phys(reg),
                bit=bit,
                detection_delay=delay,
            ),
            golden,
            max_steps=max_steps,
            accel=accel,
        )
        outcomes[index] = outcome.correct
        return outcome.correct

    # Exhaustive ground truth + masked-soundness audit over every cell.
    classes = [
        vmap.classify("register", t, bit=b, reg=r, variant=variant)
        for r, b, t in cells
    ]
    failures = 0
    masked_cells = 0
    misclassified = 0
    for index, klass in enumerate(classes):
        correct = run_cell_index(index)
        if not correct:
            failures += 1
        if klass == MASKED:
            masked_cells += 1
            if not correct:
                misclassified += 1
    exhaustive_avf = failures / len(cells) if cells else 0.0

    # Sampled estimator over the same finite population (draws resolve
    # through the memo, so its injection count is the marginal cost).
    by_class: dict[str, list[int]] = {MASKED: [], VULNERABLE: [], UNKNOWN: []}
    for index, klass in enumerate(classes):
        by_class[klass].append(index)
    options = SamplingOptions(
        enabled=True, ci_width=ci_width, confidence=confidence
    )
    z = z_score(confidence)
    sampled: set[int] = set()
    avf = 0.0
    half = 0.0
    for label, members in by_class.items():
        if not members:
            continue
        weight = len(members) / len(cells)
        rng_key = f"{seed}:val:{variant}:{label}"
        if label == MASKED:
            # Token cross-check draws. A corrupting hit here is already
            # counted by the exhaustive audit above, so the validator
            # reports it as a FAIL verdict rather than raising.
            for i in range(min(options.token_rate, len(members))):
                rng = random.Random(f"{rng_key}:{i}")
                index = members[rng.randrange(len(members))]
                sampled.add(index)
                run_cell_index(index)
            continue
        cap = min(options.max_per_stratum, len(members))
        fail = 0
        n = 0
        while n < cap:
            batch = min(options.batch, cap - n)
            for i in range(n, n + batch):
                rng = random.Random(f"{rng_key}:{i}")
                index = members[rng.randrange(len(members))]
                sampled.add(index)
                if not run_cell_index(index):
                    fail += 1
            n += batch
            _, hw = wilson(fail, n, z)
            if weight * hw <= options.ci_width:
                break
        center, hw = wilson(fail, n, z)
        avf += weight * center
        half += weight * hw
    ci_low = max(0.0, avf - half)
    ci_high = min(1.0, avf + half)
    covered = ci_low <= exhaustive_avf <= ci_high
    return ValidationResult(
        uid=uid,
        variant=variant,
        cells=len(cells),
        exhaustive_injections=len(cells),
        exhaustive_avf=exhaustive_avf,
        masked_cells=masked_cells,
        masked_misclassified=misclassified,
        sampled_injections=len(sampled),
        sampled_avf=avf,
        ci_low=ci_low,
        ci_high=ci_high,
        covered=covered,
        saved_ratio=1.0 - (len(sampled) / len(cells) if cells else 0.0),
    )
