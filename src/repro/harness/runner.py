"""Compile / execute / simulate pipeline with memoisation and sharding.

Every experiment needs the same expensive artefacts — compiled programs,
dynamic traces, timing results — for many (benchmark, compiler config,
hardware config) combinations. This module produces them through three
cooperating layers:

1. an in-process :class:`RunCache` (thread-safe; every lookup/insert
   happens under one lock, so concurrent ``prepared()`` calls and
   ``clear()`` are safe);
2. a persistent :class:`~repro.harness.artifacts.ArtifactCache` shared
   across processes and sessions (keyed by a digest of the simulator
   source, so stale artefacts can never survive a code change);
3. multiprocess sharding (:func:`simulate_many`, :func:`warm_suite`)
   that fans benchmark x config jobs out across cores.

Per-process caches are **independent**: each worker process builds its
own ``RunCache`` (a fork inherits a snapshot of the parent's, spawn
starts empty) and they never synchronise in memory. All cross-process
reuse flows through the persistent artifact layer, whose writes are
atomic — two workers may race to produce the same artefact and both
succeed, one file winning harmlessly.

Functional execution uses the fast backend
(:mod:`repro.runtime.fastsim`) by default; set
``REPRO_SIM_BACKEND=reference`` to fall back to the golden interpreter.
The two are bit-identical (enforced by the differential parity suite in
``tests/test_fastsim_parity.py``), so the choice is invisible to every
figure.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import replace

from repro.arch.config import CoreConfig, ResilienceHardwareConfig
from repro.arch.core import InOrderCore
from repro.arch.stats import SimStats
from repro.compiler.config import CompilerConfig, turnpike_config, turnstile_config
from repro.compiler.pipeline import CompiledProgram, compile_baseline, compile_program
from repro.harness.artifacts import ArtifactCache, ProgramFacts
from repro.runtime.fastsim import execute_fast
from repro.runtime.interpreter import execute
from repro.runtime.trace import TraceSummary
from repro.workloads.generator import Workload, build_workload
from repro.workloads.suites import all_profiles, profile as lookup_profile


def functional_backend() -> str:
    """``"fast"`` (default), ``"codegen"`` or ``"reference"``.

    From REPRO_SIM_BACKEND. ``codegen`` runs the gen-2 superblock
    backend (:mod:`repro.runtime.codegen`); all three are bit-identical.
    """
    backend = os.environ.get("REPRO_SIM_BACKEND", "fast").strip().lower()
    if backend not in ("fast", "reference", "codegen"):
        raise ValueError(
            f"REPRO_SIM_BACKEND={backend!r}: "
            "expected 'fast', 'codegen' or 'reference'"
        )
    return backend


def _run_functional(program, memory, uid=None, config=None):
    """Functional execution via the selected backend.

    ``uid``/``config`` (known for harness benchmarks, None for ad-hoc
    programs) let the codegen backend address its generated module in
    the persistent artifact cache.
    """
    backend = functional_backend()
    if backend == "reference":
        return execute(program, memory, collect_trace=True)
    if backend == "codegen":
        from repro.runtime.codegen import execute_codegen

        return execute_codegen(
            program, memory, collect_trace=True, uid=uid, config=config
        )
    return execute_fast(program, memory, collect_trace=True)


def _baseline_config() -> CompilerConfig:
    return CompilerConfig(
        eager_checkpointing=False,
        checkpoint_pruning=False,
        licm_sinking=False,
        induction_variable_merging=False,
        instruction_scheduling=False,
        store_aware_regalloc=False,
        name="baseline",
    )


class PreparedRun:
    """The committed stream of one (benchmark, compile-config) pair."""

    __slots__ = ("uid", "config", "trace")

    def __init__(self, uid: str, config: CompilerConfig, trace: list[tuple]) -> None:
        self.uid = uid
        self.config = config
        self.trace = trace


class RunCache:
    """Process-wide memoisation of workloads, compiles, traces, stats
    and program facts.

    Thread-safe: all dictionary access is serialised through one
    re-entrant lock, so ``prepared()`` from several threads and a
    concurrent ``clear()`` cannot corrupt state (a cleared cache simply
    recomputes). Instances in different processes are independent by
    design — cross-process reuse goes through ``persistent``.
    """

    def __init__(
        self, persistent: ArtifactCache | None | str = "default"
    ) -> None:
        if persistent == "default":
            persistent = ArtifactCache.default()
        self.persistent: ArtifactCache | None = persistent  # type: ignore[assignment]
        self._lock = threading.RLock()
        self._workloads: dict[str, Workload] = {}
        # Keyed by the full (frozen) compiler config: two configs that
        # merely share a display name must not collide.
        self._prepared: dict[tuple[str, CompilerConfig], PreparedRun] = {}
        self._stats: dict[
            tuple[str, CompilerConfig, ResilienceHardwareConfig, CoreConfig],
            SimStats,
        ] = {}
        # Compile-only products (no functional run): the sweep planner
        # compiles every lattice config to group design points by
        # structural program digest before paying for any trace.
        self._compiled: dict[tuple[str, CompilerConfig], CompiledProgram] = {}
        self._digests: dict[tuple[str, CompilerConfig], str] = {}
        # Trace sharing across digest-equal compiler configs: configs
        # that compile to an identical program produce an identical
        # committed stream, so one functional run serves them all.
        self._digest_runs: dict[tuple[str, str], PreparedRun] = {}
        self._facts: dict[tuple[str, CompilerConfig], ProgramFacts] = {}

    def workload(self, uid: str) -> Workload:
        with self._lock:
            wl = self._workloads.get(uid)
            if wl is None:
                wl = build_workload(lookup_profile(uid))
                self._workloads[uid] = wl
            return wl

    def prepared(self, uid: str, config: CompilerConfig) -> PreparedRun:
        key = (uid, config)
        with self._lock:
            run = self._prepared.get(key)
            if run is not None:
                return run
            if self.persistent is not None:
                trace = self.persistent.load_trace(
                    self.persistent.trace_key(uid, config)
                )
                if trace is not None:
                    run = PreparedRun(uid, config, trace)
                    self._prepared[key] = run
                    return run
            workload = self.workload(uid)
            compiled = self.compiled_program(uid, config)
            result = _run_functional(
                compiled.program, workload.fresh_memory(), uid=uid, config=config
            )
            assert result.trace is not None
            run = PreparedRun(uid, config, result.trace)
            if self.persistent is not None:
                self.persistent.store_trace(
                    self.persistent.trace_key(uid, config), result.trace
                )
            self._prepared[key] = run
            return run

    def compiled_program(
        self, uid: str, config: CompilerConfig
    ) -> CompiledProgram:
        """Compile one (benchmark, config) pair — no functional run."""
        key = (uid, config)
        with self._lock:
            compiled = self._compiled.get(key)
            if compiled is None:
                workload = self.workload(uid)
                if config.name == "baseline":
                    compiled = compile_baseline(workload.program)
                else:
                    compiled = compile_program(workload.program, config)
                self._compiled[key] = compiled
            return compiled

    def program_digest(self, uid: str, config: CompilerConfig) -> str:
        """Structural digest of the compiled program (uid-free).

        Two configs with the same digest compile to the same program and
        therefore produce the same committed stream — the sweep planner
        uses this to share one functional execution across them.
        """
        from repro.runtime.codegen import program_digest

        key = (uid, config)
        with self._lock:
            digest = self._digests.get(key)
            if digest is None:
                digest = program_digest(self.compiled_program(uid, config).program)
                self._digests[key] = digest
            return digest

    def prepared_by_digest(
        self, uid: str, config: CompilerConfig, digest: str
    ) -> PreparedRun:
        """Like :meth:`prepared`, memoised by program digest.

        The returned run belongs to the first config seen with this
        digest; its trace is valid for every digest-equal config.
        """
        key = (uid, digest)
        with self._lock:
            run = self._digest_runs.get(key)
            if run is None:
                run = self.prepared(uid, config)
                self._digest_runs[key] = run
            return run

    def program_facts(self, uid: str, config: CompilerConfig) -> ProgramFacts:
        """Code size and stream tallies of one compiled program.

        Memoised, then persisted, then computed, like :meth:`stats`.
        Only the computing layer compiles and tallies the digest-shared
        committed stream, so a warm cache builds, compiles and loads
        nothing.
        """
        key = (uid, config)
        with self._lock:
            facts = self._facts.get(key)
            if facts is None and self.persistent is not None:
                facts = self.persistent.load_facts(
                    self.persistent.facts_key(uid, config)
                )
            if facts is None:
                compiled = self.compiled_program(uid, config)
                run = self.prepared_by_digest(
                    uid, config, self.program_digest(uid, config)
                )
                summary = TraceSummary(run.trace)
                facts = ProgramFacts(
                    code_size_bytes=compiled.code_size_bytes,
                    committed=summary.committed,
                    checkpoints=summary.checkpoints,
                    spill_stores=summary.spill_stores,
                    all_stores=summary.all_stores,
                )
                if self.persistent is not None:
                    self.persistent.store_facts(
                        self.persistent.facts_key(uid, config), facts
                    )
            self._facts[key] = facts
            return facts

    def peek_stats(
        self,
        uid: str,
        compiler: CompilerConfig,
        hardware: ResilienceHardwareConfig,
        core: CoreConfig | None = None,
    ) -> SimStats | None:
        """Memoised/persisted stats if present — never computes."""
        core = core or CoreConfig()
        key = (uid, compiler, hardware, core)
        with self._lock:
            stats = self._stats.get(key)
            if stats is None and self.persistent is not None:
                stats = self.persistent.load_stats(
                    self.persistent.stats_key(uid, compiler, hardware, core)
                )
                if stats is not None:
                    self._stats[key] = stats
            if stats is None:
                return None
            return replace(stats, cache=dict(stats.cache))

    def put_stats(
        self,
        uid: str,
        compiler: CompilerConfig,
        hardware: ResilienceHardwareConfig,
        core: CoreConfig | None,
        stats: SimStats,
    ) -> None:
        """Insert externally-computed stats (the sweep engine's lanes)
        into both memoisation layers, so later solo lookups hit."""
        core = core or CoreConfig()
        key = (uid, compiler, hardware, core)
        with self._lock:
            self._stats[key] = stats
            if self.persistent is not None:
                self.persistent.store_stats(
                    self.persistent.stats_key(uid, compiler, hardware, core),
                    stats,
                )

    def stats(
        self,
        uid: str,
        compiler: CompilerConfig,
        hardware: ResilienceHardwareConfig,
        core: CoreConfig | None = None,
    ) -> SimStats:
        """Timing stats for one combination, memoised at every layer."""
        core = core or CoreConfig()
        key = (uid, compiler, hardware, core)
        with self._lock:
            stats = self._stats.get(key)
            if stats is None and self.persistent is not None:
                stats = self.persistent.load_stats(
                    self.persistent.stats_key(uid, compiler, hardware, core)
                )
                if stats is not None:
                    self._stats[key] = stats
            if stats is None:
                run = self.prepared(uid, compiler)
                stats = InOrderCore(core, hardware).run(run.trace)
                self._stats[key] = stats
                if self.persistent is not None:
                    self.persistent.store_stats(
                        self.persistent.stats_key(uid, compiler, hardware, core),
                        stats,
                    )
            # Defensive copy: cached stats must survive caller mutation.
            return replace(stats, cache=dict(stats.cache))

    def baseline_cycles(self, uid: str, core: CoreConfig | None = None) -> float:
        return self.stats(
            uid,
            _baseline_config(),
            ResilienceHardwareConfig.baseline(),
            core,
        ).cycles

    def clear(self) -> None:
        """Drop all in-memory memoisation (atomically).

        The persistent on-disk layer is deliberately untouched — use
        ``cache.persistent.clear()`` (or ``repro cache clear``) for that.
        """
        with self._lock:
            self._workloads.clear()
            self._prepared.clear()
            self._stats.clear()
            self._compiled.clear()
            self._digests.clear()
            self._digest_runs.clear()
            self._facts.clear()


GLOBAL_CACHE = RunCache()


def simulate(
    uid: str,
    compiler: CompilerConfig,
    hardware: ResilienceHardwareConfig,
    core: CoreConfig | None = None,
    cache: RunCache | None = None,
) -> SimStats:
    """Timing-simulate one benchmark under a scheme."""
    cache = cache or GLOBAL_CACHE
    return cache.stats(uid, compiler, hardware, core)


def normalized_time(
    uid: str,
    compiler: CompilerConfig,
    hardware: ResilienceHardwareConfig,
    core: CoreConfig | None = None,
    cache: RunCache | None = None,
) -> float:
    """The paper's y-axis: resilient cycles / baseline cycles (>= ~1)."""
    cache = cache or GLOBAL_CACHE
    stats = simulate(uid, compiler, hardware, core, cache)
    return stats.cycles / cache.baseline_cycles(uid, core)


def geomean(values: list[float]) -> float:
    if not values:
        raise ValueError("geomean of empty list")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def turnstile_scheme(wcdl: int = 10, sb_size: int = 4):
    """(compiler, hardware) pair for the Turnstile baseline scheme."""
    return (
        turnstile_config(sb_size),
        ResilienceHardwareConfig.turnstile(wcdl=wcdl, sb_size=sb_size),
    )


def turnpike_scheme(
    wcdl: int = 10, sb_size: int = 4, clq_kind: str = "compact", clq_size: int = 2
):
    """(compiler, hardware) pair for the full Turnpike scheme."""
    return (
        turnpike_config(sb_size),
        ResilienceHardwareConfig.turnpike(
            wcdl=wcdl, sb_size=sb_size, clq_kind=clq_kind, clq_size=clq_size
        ),
    )


def default_benchmarks() -> list[str]:
    return [p.uid for p in all_profiles()]


def run_report_text(
    uid: str,
    scheme: str = "turnpike",
    wcdl: int = 10,
    sb_size: int = 4,
    backend: str = "fast",
) -> str:
    """The ``repro run`` report for one benchmark, as text.

    Shared by the CLI handler and anything that needs its exact output
    (the batch service executes jobs through the CLI entry point, so
    keeping this single-sourced is what makes service results
    byte-identical to direct invocations).
    """
    from repro.compiler.config import turnpike_config, turnstile_config
    from repro.workloads.suites import load_workload

    if backend == "codegen":
        from repro.runtime.codegen import execute_codegen

        def run_functional(program, memory, collect_trace=True, *, _config=None):
            return execute_codegen(
                program, memory, collect_trace=collect_trace,
                uid=uid, config=_config,
            )
    elif backend == "fast":
        run_functional = execute_fast
    else:
        run_functional = execute
    workload = load_workload(uid)
    if scheme == "baseline":
        compiled = compile_baseline(workload.program)
        hw = ResilienceHardwareConfig.baseline()
    elif scheme == "turnstile":
        compiled = compile_program(workload.program, turnstile_config(sb_size=sb_size))
        hw = ResilienceHardwareConfig.turnstile(wcdl=wcdl, sb_size=sb_size)
    else:
        compiled = compile_program(workload.program, turnpike_config(sb_size=sb_size))
        hw = ResilienceHardwareConfig.turnpike(wcdl=wcdl, sb_size=sb_size)

    kwargs = {"_config": compiled.config} if backend == "codegen" else {}
    result = run_functional(
        compiled.program, workload.fresh_memory(), collect_trace=True, **kwargs
    )
    stats = InOrderCore(CoreConfig(), hw).run(result.trace)

    base = compile_baseline(workload.program)
    kwargs = {"_config": base.config} if backend == "codegen" else {}
    base_run = run_functional(
        base.program, workload.fresh_memory(), collect_trace=True, **kwargs
    )
    base_stats = InOrderCore(
        CoreConfig(), ResilienceHardwareConfig.baseline()
    ).run(base_run.trace)

    lines = [
        f"benchmark:        {uid}",
        f"scheme:           {scheme} (WCDL={wcdl}, SB={sb_size})",
        f"instructions:     {stats.instructions}",
        f"cycles:           {stats.cycles:.0f}",
        f"normalized time:  {stats.cycles / base_stats.cycles:.3f}",
        f"IPC:              {stats.ipc:.2f}",
        f"regions:          {stats.regions} "
        f"(avg {stats.dynamic_region_size:.1f} instr)",
        f"stores:           {stats.warfree_released} WAR-free released, "
        f"{stats.colored_released} colored, {stats.quarantined} quarantined",
        f"stalls:           SB {stats.sb_stall_cycles:.0f}, "
        f"data {stats.data_stall_cycles:.0f}, "
        f"branch {stats.branch_stall_cycles:.0f} cycles",
    ]
    return "\n".join(lines)


# -- multiprocess sharding -------------------------------------------------

SimJob = tuple  # (uid, CompilerConfig, ResilienceHardwareConfig[, CoreConfig])


def resolve_workers(workers: int | None = None) -> int:
    """Explicit argument > REPRO_WORKERS env > 1 (sequential)."""
    if workers is None:
        try:
            workers = int(os.environ.get("REPRO_WORKERS", "1"))
        except ValueError:
            workers = 1
    if workers <= 0:
        workers = os.cpu_count() or 1
    return workers


def _mp_simulate(job: SimJob) -> SimStats:
    """Worker entry point: simulate one job via the worker's own caches."""
    uid, compiler, hardware = job[0], job[1], job[2]
    core = job[3] if len(job) > 3 else None
    return simulate(uid, compiler, hardware, core)


def simulate_many(
    jobs: list[SimJob],
    workers: int | None = None,
    cache: RunCache | None = None,
) -> list[SimStats]:
    """Simulate many (uid, compiler, hardware[, core]) jobs, sharded.

    With ``workers > 1`` the jobs fan out across a process pool; each
    worker runs against its own independent in-process cache, and every
    computed artefact lands in the shared persistent cache so the parent
    (and future sessions) reuse it. Results return in job order and are
    also folded into ``cache`` via the persistent layer on next access.
    """
    workers = resolve_workers(workers)
    if workers <= 1 or len(jobs) <= 1:
        cache = cache or GLOBAL_CACHE
        return [
            cache.stats(j[0], j[1], j[2], j[3] if len(j) > 3 else None)
            for j in jobs
        ]
    import multiprocessing as mp

    with mp.get_context().Pool(min(workers, len(jobs))) as pool:
        return pool.map(_mp_simulate, jobs, chunksize=1)


def default_schemes() -> list[tuple[str, CompilerConfig, ResilienceHardwareConfig]]:
    """The scheme triples every figure sweep touches first."""
    base = _baseline_config()
    ts_c, ts_h = turnstile_scheme()
    tp_c, tp_h = turnpike_scheme()
    return [
        ("baseline", base, ResilienceHardwareConfig.baseline()),
        ("turnstile", ts_c, ts_h),
        ("turnpike", tp_c, tp_h),
    ]


def warm_suite(
    uids: list[str] | None = None,
    schemes: list[tuple[str, CompilerConfig, ResilienceHardwareConfig]] | None = None,
    workers: int | None = None,
) -> dict[tuple[str, str], SimStats]:
    """Pre-populate the caches for a benchmark x scheme matrix, sharded.

    Returns ``{(uid, scheme_name): stats}``. After this returns, the
    persistent cache holds a trace and timing stats for every
    combination, so subsequent figure sweeps start warm.
    """
    uids = uids if uids is not None else default_benchmarks()
    schemes = schemes if schemes is not None else default_schemes()
    jobs: list[SimJob] = []
    names: list[tuple[str, str]] = []
    for uid in uids:
        for name, compiler, hardware in schemes:
            jobs.append((uid, compiler, hardware))
            names.append((uid, name))
    results = simulate_many(jobs, workers=workers)
    return dict(zip(names, results))
