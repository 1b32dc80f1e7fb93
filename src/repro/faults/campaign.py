"""Fault-injection campaigns: protocol-variant sweeps and the parallel,
resumable :class:`CampaignRunner`.

Two layers live here:

* the light-weight :func:`run_protocol_campaigns` sweep (same register
  faults under turnstile / warfree / turnpike / unsafe), kept for tests
  and the example script;
* the :class:`CampaignRunner` verification engine — mixed-target
  campaigns sharded across ``multiprocessing`` workers with
  deterministic per-injection seeds, JSON manifest checkpointing after
  every shard, resume-from-manifest, and differential cross-variant
  reporting (the same physical fault diffed per protocol outcome).

Determinism contract: every injection is derived from ``(seed, index)``
alone (see :func:`repro.faults.injector.injection_for_index`), shards
partition the index space statically, and aggregates are built from
records sorted by index — so a campaign killed after any number of
shards and resumed later produces **byte-identical** aggregate JSON to
an uninterrupted run.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.compiler.pipeline import CompiledProgram
from repro.faults.injector import (
    LEGACY_KINDS,
    CampaignResult,
    FaultOutcomeKind,
    injection_for_index,
    injection_to_dict,
    outcome_from_dict,
    outcome_to_dict,
    random_register_injections,
    run_campaign,
    run_with_injection,
)
from repro.faults.sampling import SamplingOptions, estimate_avf
from repro.faults.snapshot import (
    DEFAULT_SNAPSHOT_INTERVAL,
    GoldenRecord,
    record_golden_run,
)
from repro.isa.registers import Reg
from repro.runtime.interpreter import execute
from repro.runtime.machine import (
    VARIANT_CONFIGS,
    Injection,
    InjectionTarget,
    ResilienceConfig,
    turnpike_machine_config,
    turnstile_machine_config,
    unsafe_machine_config,
    warfree_machine_config,
)
from repro.runtime.memory import Memory


def _horizon(compiled: CompiledProgram, memory: Memory) -> int:
    """Commit-tick span of a fault-free run (injection times sample this)."""
    result = execute(compiled.program, memory.copy(), collect_trace=True)
    return _trace_horizon(result.trace)


def _trace_horizon(trace: list[tuple] | None) -> int:
    """:func:`_horizon` of an interpreter trace."""
    assert trace is not None
    boundaries = sum(1 for e in trace if e[0] == 7)
    return max(2, len(trace) - boundaries - 1)


@dataclass
class ProtocolCampaigns:
    """Campaign results across the protocol variants for one program."""

    turnstile: CampaignResult
    warfree: CampaignResult
    turnpike: CampaignResult
    unsafe: CampaignResult


DEFAULT_VARIANTS = tuple(VARIANT_CONFIGS)


def _variant_config(spec: "CampaignSpec", variant: str) -> ResilienceConfig:
    """Variant hardware config with the spec's ECC mode applied."""
    config = VARIANT_CONFIGS[variant](spec.wcdl)
    if spec.ecc is not None:
        config.ecc_code = spec.ecc
    return config


def run_protocol_campaigns(
    compiled: CompiledProgram,
    memory: Memory,
    wcdl: int = 10,
    count: int = 40,
    seed: int = 1234,
) -> ProtocolCampaigns:
    """Inject the same faults under every protocol variant."""
    horizon = _horizon(compiled, memory)
    injections = random_register_injections(
        compiled, wcdl=wcdl, count=count, seed=seed, horizon=horizon
    )
    return ProtocolCampaigns(
        turnstile=run_campaign(
            compiled, turnstile_machine_config(wcdl), memory, injections
        ),
        warfree=run_campaign(
            compiled, warfree_machine_config(wcdl), memory, injections
        ),
        turnpike=run_campaign(
            compiled, turnpike_machine_config(wcdl), memory, injections
        ),
        unsafe=run_campaign(
            compiled, unsafe_machine_config(wcdl), memory, injections
        ),
    )


# -- differential campaign engine ------------------------------------------


DEFAULT_TARGET_NAMES = ("register", "store_buffer", "clq", "coloring")


@dataclass(frozen=True)
class CampaignSpec:
    """Everything a worker needs to reproduce its share of a campaign."""

    uid: str
    wcdl: int = 10
    count: int = 40
    seed: int = 1234
    targets: tuple[str, ...] = DEFAULT_TARGET_NAMES
    variants: tuple[str, ...] = DEFAULT_VARIANTS
    shard_size: int = 8
    max_steps: int = 4_000_000
    # Real-code ECC decode (repro.ecc code name) and upset-pattern
    # shape for the injections. Both default to None — the abstract
    # fail-safe and the classic single/double generator — and are
    # omitted from to_dict() so pre-ECC campaign aggregates and
    # manifests stay byte-identical.
    ecc: str | None = None
    upset: str | None = None

    def __post_init__(self) -> None:
        if not self.targets:
            raise ValueError("campaign needs at least one target structure")
        if not self.variants:
            raise ValueError("campaign needs at least one protocol variant")
        for name in self.targets:
            InjectionTarget(name)  # raises ValueError on unknown targets
        for name in self.variants:
            if name not in VARIANT_CONFIGS:
                raise ValueError(f"unknown protocol variant {name!r}")
        if self.count < 1:
            raise ValueError("campaign needs at least one injection")
        if self.shard_size < 1:
            raise ValueError("shard size must be >= 1")
        if self.ecc is not None:
            from repro.ecc.codes import make_code

            make_code(self.ecc, 32)  # raises ValueError on unknown codes
        if self.upset is not None:
            from repro.ecc.faultmodel import pattern

            pattern(self.upset)  # raises ValueError on unknown patterns

    @property
    def target_kinds(self) -> tuple[InjectionTarget, ...]:
        return tuple(InjectionTarget(name) for name in self.targets)

    def shards(self) -> list[list[int]]:
        """Static partition of the injection index space."""
        indices = list(range(self.count))
        return [
            indices[i : i + self.shard_size]
            for i in range(0, self.count, self.shard_size)
        ]

    def to_dict(self) -> dict:
        data = {
            "uid": self.uid,
            "wcdl": self.wcdl,
            "count": self.count,
            "seed": self.seed,
            "targets": list(self.targets),
            "variants": list(self.variants),
            "shard_size": self.shard_size,
            "max_steps": self.max_steps,
        }
        # Only ECC-mode campaigns carry the extra keys: the spec dict is
        # embedded in aggregates and manifests, whose byte-identity for
        # ECC-off campaigns is a compatibility guarantee.
        if self.ecc is not None:
            data["ecc"] = self.ecc
        if self.upset is not None:
            data["upset"] = self.upset
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignSpec":
        return cls(
            uid=data["uid"],
            wcdl=data["wcdl"],
            count=data["count"],
            seed=data["seed"],
            targets=tuple(data["targets"]),
            variants=tuple(data["variants"]),
            shard_size=data["shard_size"],
            max_steps=data["max_steps"],
            ecc=data.get("ecc"),
            upset=data.get("upset"),
        )


@dataclass(frozen=True)
class AccelOptions:
    """Snapshot-acceleration settings for a campaign.

    Deliberately **not** part of :class:`CampaignSpec`: acceleration is
    observationally invisible (the aggregate JSON — which embeds the
    spec — is byte-identical either way), so a campaign may be resumed
    with different acceleration settings than it was started with.

    ``snapshot_interval <= 0`` records fingerprints only (convergence
    early-exit without fast-forward), the degenerate configuration that
    exercises the legacy from-scratch execution path.
    """

    enabled: bool = True
    snapshot_interval: int = DEFAULT_SNAPSHOT_INTERVAL

    def to_dict(self) -> dict:
        return {
            "enabled": self.enabled,
            "snapshot_interval": self.snapshot_interval,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AccelOptions":
        return cls(
            enabled=data["enabled"],
            snapshot_interval=data["snapshot_interval"],
        )


# Per-worker-process cache: compiling the workload once per process
# instead of once per shard. Keyed by uid; safe because workers are
# single-threaded and every entry is deterministic.
_WORKER_CACHE: dict[str, tuple] = {}

# Per-worker-process golden-record cache, keyed by
# (uid, variant, wcdl, snapshot_interval, max_steps, ecc).
_GOLDEN_CACHE: dict[tuple, GoldenRecord] = {}


def _campaign_context(uid: str):
    cached = _WORKER_CACHE.get(uid)
    if cached is None:
        from repro.compiler.config import turnpike_config
        from repro.compiler.pipeline import compile_program
        from repro.workloads.suites import load_workload

        workload = load_workload(uid)
        compiled = compile_program(workload.program, turnpike_config())
        memory = workload.fresh_memory()
        # One reference run yields both the golden image and the horizon.
        result = execute(compiled.program, memory.copy(), collect_trace=True)
        golden = result.memory.data_image()
        cached = (compiled, memory, golden, _trace_horizon(result.trace))
        _WORKER_CACHE[uid] = cached
    return cached


def _golden_record(
    spec: CampaignSpec, variant: str, interval: int
) -> GoldenRecord | None:
    """The (memoized) fault-free acceleration record for one variant.

    Resolution order: per-process memo, then the persistent artifact
    cache (keyed by source digest + resilience config + interval + step
    budget, see :meth:`ArtifactCache.golden_key`), then a fresh
    fault-free run — stored back to disk so every later worker, resume,
    or re-invocation starts warm. The per-tick stream does not depend on
    the config, so a fresh run reuses that of any memoised record of the
    same uid and step budget, and only takes its own snapshots; a record
    loaded from disk is rebound to that stream's objects when its own
    per-tick fields equal them, and is rebuilt from it when they do not.

    Returns None when the campaign's step budget is too small for even
    the fault-free run to finish: acceleration silently degrades to the
    from-scratch path (whose injected runs will time out identically).
    """
    memo_key = (
        spec.uid, variant, spec.wcdl, interval, spec.max_steps, spec.ecc
    )
    if memo_key in _GOLDEN_CACHE:
        return _GOLDEN_CACHE[memo_key]

    from repro.harness.artifacts import ArtifactCache
    from repro.runtime.machine import WatchdogTimeout

    compiled, memory, golden, _horizon_ = _campaign_context(spec.uid)
    config = _variant_config(spec, variant)
    cache = ArtifactCache.default()
    disk_key = (
        ArtifactCache.golden_key(spec.uid, config, interval, spec.max_steps)
        if cache is not None
        else None
    )
    record = cache.load_golden(disk_key) if cache is not None else None
    if record is not None and (
        record.interval != (interval if interval > 0 else None)
        or record.max_steps != spec.max_steps
    ):
        record = None  # stale/foreign artifact: rebuild
    stream = next(
        (
            rec
            for (uid, _, _, _, max_steps, _), rec in _GOLDEN_CACHE.items()
            if rec is not None and (uid, max_steps) == (spec.uid, spec.max_steps)
        ),
        None,
    )
    if record is not None and stream is not None:
        record = record.share_stream(stream)
    if record is None:
        try:
            record = record_golden_run(
                compiled,
                config,
                memory,
                interval=interval,
                max_steps=spec.max_steps,
                golden_image=golden,
                stream=stream,
            )
        except WatchdogTimeout:
            record = None
        else:
            if cache is not None:
                cache.store_golden(disk_key, record)
    _GOLDEN_CACHE[memo_key] = record
    return record


def _run_shard(payload: dict) -> tuple[int, list[dict]]:
    """Worker entry point: run one shard of injections, all variants."""
    spec = CampaignSpec.from_dict(payload["spec"])
    shard_id = payload["shard_id"]
    accel = AccelOptions.from_dict(payload["accel"])
    compiled, memory, golden, horizon = _campaign_context(spec.uid)
    targets = spec.target_kinds
    records = []
    for index in payload["indices"]:
        injection = injection_for_index(
            compiled, spec.wcdl, spec.seed, index, horizon, targets,
            upset=spec.upset,
        )
        outcomes = {}
        for variant in spec.variants:
            config = _variant_config(spec, variant)
            outcome = run_with_injection(
                compiled,
                config,
                memory,
                injection,
                golden,
                max_steps=spec.max_steps,
                accel=(
                    _golden_record(spec, variant, accel.snapshot_interval)
                    if accel.enabled
                    else None
                ),
            )
            outcomes[variant] = outcome_to_dict(outcome)
        records.append(
            {
                "index": index,
                "injection": injection_to_dict(injection),
                "outcomes": outcomes,
            }
        )
    return shard_id, records


@dataclass
class CampaignReport:
    """Differential cross-variant view over a finished campaign.

    ``avf`` is populated only by importance-sampled runs (see
    :mod:`repro.faults.sampling`); enumerated campaigns leave it None so
    their aggregate JSON stays byte-identical to earlier releases.
    """

    spec: CampaignSpec
    records: list[dict] = field(default_factory=list)
    avf: dict | None = None

    def variant_result(self, variant: str) -> CampaignResult:
        """Reconstruct one variant's outcomes as a :class:`CampaignResult`."""
        result = CampaignResult()
        for record in self.records:
            result.outcomes.append(outcome_from_dict(record["outcomes"][variant]))
        return result

    def _kinds(self) -> tuple[FaultOutcomeKind, ...]:
        """Zero-filled taxonomy keys: legacy only unless ECC mode ran.

        Pre-ECC aggregates must stay byte-identical, so the
        ``miscorrected`` key appears only when the spec could have
        produced it.
        """
        return tuple(FaultOutcomeKind) if self.spec.ecc else LEGACY_KINDS

    def per_variant(self) -> dict[str, dict[str, int]]:
        """variant -> outcome-kind histogram."""
        return {
            variant: self.variant_result(variant).by_kind(self._kinds())
            for variant in self.spec.variants
        }

    def per_target(self) -> dict[str, dict[str, dict[str, int]]]:
        """Per-structure vulnerability: target -> variant -> kind counts."""
        table: dict[str, dict[str, dict[str, int]]] = {}
        for record in self.records:
            target = record["injection"]["target"]
            per_variant = table.setdefault(
                target,
                {
                    variant: {kind.value: 0 for kind in self._kinds()}
                    for variant in self.spec.variants
                },
            )
            for variant in self.spec.variants:
                kind = record["outcomes"][variant]["kind"]
                per_variant[variant][kind] += 1
        return table

    def divergences(self) -> list[dict]:
        """Injections whose outcome kind differs across variants — the
        differential signal: what one protocol contains and another
        does not."""
        out = []
        for record in self.records:
            kinds = {
                variant: record["outcomes"][variant]["kind"]
                for variant in self.spec.variants
            }
            if len(set(kinds.values())) > 1:
                out.append(
                    {
                        "index": record["index"],
                        "injection": record["injection"],
                        "kinds": kinds,
                    }
                )
        return out

    def aggregate(self) -> dict:
        """Deterministic summary (sorted, no timestamps): the object the
        resume guarantee is stated over. The ``avf`` key appears only
        for sampled campaigns, keeping enumerated aggregates
        byte-identical."""
        agg = {
            "spec": self.spec.to_dict(),
            "per_variant": self.per_variant(),
            "per_target": self.per_target(),
            "divergent_indices": [d["index"] for d in self.divergences()],
        }
        if self.avf is not None:
            agg["avf"] = self.avf
        return agg

    def to_json(self) -> str:
        return json.dumps(self.aggregate(), indent=2, sort_keys=True)


class CampaignInterrupted(RuntimeError):
    """Raised by progress callbacks to abort a campaign mid-flight
    (primarily for tests exercising the resume path)."""


class CampaignRunner:
    """Shard a differential campaign over worker processes, checkpointing
    partial results to a JSON manifest after every shard."""

    def __init__(
        self,
        spec: CampaignSpec,
        manifest_path: str | Path | None = None,
        accel: AccelOptions | None = None,
        sampling: SamplingOptions | None = None,
    ) -> None:
        self.spec = spec
        self.manifest_path = Path(manifest_path) if manifest_path else None
        self.accel = accel if accel is not None else AccelOptions()
        self.sampling = sampling if sampling is not None else SamplingOptions()

    # -- manifest ----------------------------------------------------------

    def _load_manifest(self, resume: bool) -> dict:
        if self.manifest_path is None or not self.manifest_path.exists():
            return {"spec": self.spec.to_dict(), "shards": {}}
        if not resume:
            return {"spec": self.spec.to_dict(), "shards": {}}
        try:
            manifest = json.loads(self.manifest_path.read_text())
        except ValueError:
            # A torn manifest (crash mid-write) is a fresh start, not an
            # error: every shard recomputes deterministically.
            return {"spec": self.spec.to_dict(), "shards": {}}
        if manifest.get("spec") != self.spec.to_dict():
            raise ValueError(
                f"manifest {self.manifest_path} was written by a different "
                "campaign spec; refusing to resume"
            )
        return manifest

    def _write_manifest(self, manifest: dict) -> None:
        if self.manifest_path is None:
            return
        # Unique temp name: two processes checkpointing the same
        # manifest (e.g. an orphaned worker racing a restarted service
        # that re-adopted the campaign) must never interleave writes
        # inside one temp file; with distinct temps the atomic replace
        # makes the last full checkpoint win.
        import tempfile

        fd, tmp = tempfile.mkstemp(
            dir=self.manifest_path.parent, prefix=".manifest-"
        )
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(json.dumps(manifest, indent=2, sort_keys=True))
            os.replace(tmp, self.manifest_path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # -- execution ---------------------------------------------------------

    def run(
        self,
        workers: int = 1,
        resume: bool = False,
        progress: Callable[[int, int], None] | None = None,
        only_shards: "set[int] | None" = None,
    ) -> CampaignReport:
        """Run (or finish) the campaign and return its report.

        ``workers > 1`` fans shards out over ``multiprocessing`` workers;
        results are identical to a serial run because every injection is
        derived from ``(seed, index)`` and aggregation sorts by index.
        ``progress(done, total)`` is invoked after every shard.

        ``only_shards`` restricts execution to a subset of shard ids.
        Shard contents depend only on ``(seed, index)``, so a later
        resume over the same manifest fills in the rest and the final
        aggregate is byte-identical to a single full run. The returned
        report covers whatever the manifest then holds, which for a
        restricted run is deliberately partial.

        With sampling enabled the runner REPLACES index enumeration with
        the stratified adaptive estimator: no per-index records, no
        manifest, no resume — the report carries the AVF block instead.
        """
        if self.sampling.enabled:
            if resume or only_shards is not None:
                raise ValueError(
                    "sampled campaigns are adaptive: resume and shard "
                    "subsets only apply to enumerated index campaigns"
                )
            return self._run_sampled(progress)
        manifest = self._load_manifest(resume)
        shards = self.spec.shards()
        selected = (
            set(range(len(shards)))
            if only_shards is None
            else {sid for sid in only_shards if 0 <= sid < len(shards)}
        )
        pending = [
            {
                "spec": self.spec.to_dict(),
                "shard_id": sid,
                "indices": indices,
                "accel": self.accel.to_dict(),
            }
            for sid, indices in enumerate(shards)
            if sid in selected and str(sid) not in manifest["shards"]
        ]
        done = len(selected) - len(pending)

        if pending and self.accel.enabled:
            # Pre-warm the compiled context and every variant's golden
            # record in the parent before forking: workers then share
            # them copy-on-write instead of racing to rebuild (the
            # artifact cache would still dedupe the disk work, but the
            # in-memory build is the expensive part).
            for variant in self.spec.variants:
                _golden_record(
                    self.spec, variant, self.accel.snapshot_interval
                )

        def record(shard_id: int, records: list[dict]) -> None:
            nonlocal done
            manifest["shards"][str(shard_id)] = records
            self._write_manifest(manifest)
            done += 1
            if progress is not None:
                progress(done, len(selected))

        if pending:
            if workers > 1:
                import multiprocessing as mp

                ctx = mp.get_context("fork")
                with ctx.Pool(processes=min(workers, len(pending))) as pool:
                    for shard_id, records in pool.imap_unordered(
                        _run_shard, pending
                    ):
                        record(shard_id, records)
            else:
                for payload in pending:
                    shard_id, records = _run_shard(payload)
                    record(shard_id, records)

        all_records = [
            rec
            for sid in sorted(manifest["shards"], key=int)
            for rec in manifest["shards"][sid]
        ]
        all_records.sort(key=lambda rec: rec["index"])
        return CampaignReport(spec=self.spec, records=all_records)

    # -- importance-sampled execution --------------------------------------

    def _run_sampled(
        self, progress: Callable[[int, int], None] | None = None
    ) -> CampaignReport:
        """Stratified adaptive AVF estimation over the vulnerability map.

        Strata come from the static classification in
        :mod:`repro.verify.vuln`; masked strata get token cross-check
        injections (a corrupting hit raises
        :class:`~repro.faults.sampling.MaskedMisclassification`), the
        rest are sampled until their weighted Wilson interval meets the
        configured width. Deterministic: every draw derives from
        ``(seed, variant, target, stratum, index)``.
        """
        from repro.verify.vuln import vulnerability_map

        spec = self.spec
        vmap = vulnerability_map(
            spec.uid,
            wcdl=spec.wcdl,
            variants=spec.variants,
            max_steps=spec.max_steps,
        )
        compiled, memory, golden, _horizon_ = _campaign_context(spec.uid)
        per_variant: dict[str, dict] = {}
        total_injections = 0
        for done, variant in enumerate(spec.variants):
            config = _variant_config(spec, variant)
            accel_record = (
                _golden_record(spec, variant, self.accel.snapshot_interval)
                if self.accel.enabled
                else None
            )

            def run_cell(
                target: str,
                reg: int | None,
                bit: int,
                time: int,
                delay: int,
                _config: ResilienceConfig = config,
                _accel: GoldenRecord | None = accel_record,
            ) -> bool:
                injection = Injection(
                    time=time,
                    target=InjectionTarget(target),
                    reg=Reg.phys(reg) if reg is not None else None,
                    bit=bit,
                    detection_delay=delay,
                )
                outcome = run_with_injection(
                    compiled,
                    _config,
                    memory,
                    injection,
                    golden,
                    max_steps=spec.max_steps,
                    accel=_accel,
                )
                return outcome.correct

            estimates = estimate_avf(
                vmap,
                variant,
                spec.targets,
                options=self.sampling,
                seed=spec.seed,
                wcdl=spec.wcdl,
                run_cell=run_cell,
            )
            per_variant[variant] = estimates
            total_injections += sum(
                int(entry["injections"])  # type: ignore[call-overload]
                for entry in estimates.values()
            )
            if progress is not None:
                progress(done + 1, len(spec.variants))
        avf = {
            "options": self.sampling.to_dict(),
            "per_variant": per_variant,
            "total_injections": total_injections,
        }
        return CampaignReport(spec=spec, records=[], avf=avf)


def execute_campaign(
    spec: CampaignSpec,
    manifest_path: str | Path | None = None,
    accel: AccelOptions | None = None,
    workers: int = 1,
    resume: bool = False,
    export_path: str | Path | None = None,
    progress: Callable[[int, int], None] | None = None,
    sampling: SamplingOptions | None = None,
) -> tuple[CampaignReport, str]:
    """Run one differential campaign end-to-end; the single entry point
    shared by the ``repro inject`` CLI and the batch service.

    Returns ``(report, formatted_text)``. When ``export_path`` is set
    the deterministic aggregate JSON is written there (atomically, so a
    crash mid-write can never leave a half aggregate for a parity
    check to trip over).
    """
    runner = CampaignRunner(
        spec, manifest_path=manifest_path, accel=accel, sampling=sampling
    )
    report = runner.run(workers=workers, resume=resume, progress=progress)
    if export_path is not None:
        from repro.harness.export import campaign_to_json

        export_path = Path(export_path)
        tmp = export_path.with_suffix(export_path.suffix + ".tmp")
        tmp.write_text(campaign_to_json(report))
        os.replace(tmp, export_path)
    return report, format_differential_report(report)


def _format_avf_section(report: CampaignReport) -> list[str]:
    """Render the sampled-AVF block of a report (empty when absent)."""
    if report.avf is None:
        return []
    options = report.avf.get("options", {})
    lines = [
        "  stratified AVF estimates "
        f"(ci_width={options.get('ci_width')}, "
        f"confidence={options.get('confidence')}):"
    ]
    per_variant = report.avf.get("per_variant", {})
    for variant in report.spec.variants:
        targets = per_variant.get(variant, {})
        lines.append(f"  {variant}:")
        for target in report.spec.targets:
            entry = targets.get(target)
            if entry is None:
                continue
            lines.append(
                f"    {target:<13} AVF {entry['avf']:.4f} "
                f"[{entry['ci_low']:.4f}, {entry['ci_high']:.4f}]  "
                f"{entry['injections']} injection(s) over "
                f"{entry['population']} cells"
            )
    lines.append(
        f"  {report.avf.get('total_injections', 0)} sampled injection(s) "
        "total"
    )
    return lines


def format_differential_report(report: CampaignReport) -> str:
    """Human-readable cross-variant table of a campaign report."""
    spec = report.spec
    if report.avf is not None:
        lines = [
            f"sampled campaign on {spec.uid} "
            f"(WCDL={spec.wcdl}, seed={spec.seed}, "
            f"targets={','.join(spec.targets)}):"
        ]
        lines.extend(_format_avf_section(report))
        return "\n".join(lines)
    kinds = [
        kind.value
        for kind in (tuple(FaultOutcomeKind) if spec.ecc else LEGACY_KINDS)
    ]
    lines = []
    lines.append(
        f"{spec.count} injections on {spec.uid} "
        f"(WCDL={spec.wcdl}, seed={spec.seed}, "
        f"targets={','.join(spec.targets)}):"
    )
    header = f"  {'variant':<10}" + "".join(f"{k:>14}" for k in kinds)
    lines.append(header)
    lines.append("  " + "-" * (len(header) - 2))
    for variant, hist in report.per_variant().items():
        lines.append(
            f"  {variant:<10}"
            + "".join(f"{hist[k]:>14}" for k in kinds)
        )
    per_target = report.per_target()
    if len(per_target) > 1:
        lines.append("")
        lines.append("  per-structure SDC / contained (by variant):")
        for target in sorted(per_target):
            cells = []
            for variant in spec.variants:
                hist = per_target[target][variant]
                contained = (
                    hist["masked"] + hist["recovered"] + hist["detected_halt"]
                )
                cells.append(f"{variant}={hist['sdc']}/{contained}")
            lines.append(f"    {target:<13} " + "  ".join(cells))
    divergent = report.divergences()
    lines.append("")
    lines.append(
        f"  {len(divergent)} injection(s) with divergent outcomes "
        "across variants"
    )
    return "\n".join(lines)
