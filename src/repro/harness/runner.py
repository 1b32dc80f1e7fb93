"""Compile / execute / time pipeline with memoisation and sharding.

Every experiment needs the same expensive artefacts — compiled programs
and timing results — for many (benchmark, compiler config, hardware
config) combinations. This module produces them through three
cooperating layers:

1. an in-process :class:`RunCache` (thread-safe; every lookup/insert
   happens under one lock, so concurrent ``stats()`` calls and
   ``clear()`` are safe);
2. a persistent :class:`~repro.harness.artifacts.ArtifactCache` shared
   across processes and sessions (keyed by a digest of the simulator
   source, so stale artefacts can never survive a code change). It
   holds answers, not traces: one stats record per design point, which
   sweeps and ``repro run`` share, and one facts record per program;
3. multiprocess sharding: :func:`warm_suite` hands a benchmark x scheme
   lattice to :func:`repro.harness.sweep.run_sweep`, whose process pool
   fans lane batches out across cores.

A committed stream lives for one lane batch: :meth:`RunCache.run_stream`
produces it, times the lanes it is given on the lane kernel of
:mod:`repro.runtime.multisim`, tallies it from the decode's
:data:`~repro.runtime.multisim.FeedMeta` and drops it. A solo
:meth:`RunCache.stats` miss is a one-lane batch.

Caches in different processes never synchronise in memory: a forked
sweep worker hands its results back to the parent, and all other
cross-process reuse (service workers, separate runs) flows through the
persistent artifact layer, whose writes are atomic — two processes may
race to produce the same artefact and both succeed, one file winning.

Functional execution has one executor, :mod:`repro.runtime.fastsim`.
The golden interpreter (:mod:`repro.runtime.interpreter`) is its parity
reference: the two are bit-identical, which
``tests/test_fastsim_parity.py`` enforces.
"""

from __future__ import annotations

import math
import os
import threading
from collections.abc import Sequence
from dataclasses import replace

from repro.arch.config import CoreConfig, ResilienceHardwareConfig
from repro.arch.stats import SimStats
from repro.compiler.config import CompilerConfig, turnpike_config, turnstile_config
from repro.compiler.pipeline import CompiledProgram, compile_baseline, compile_program
from repro.harness.artifacts import ArtifactCache, ProgramFacts
from repro.runtime.fastsim import execute_fast
# Unused here, but benchmarks/perf/tracer.py wraps it under this module.
from repro.runtime.interpreter import execute  # noqa: F401
from repro.runtime.multisim import run_lanes
from repro.runtime.trace import TraceSummary
from repro.workloads.generator import Workload, build_workload
from repro.workloads.suites import all_profiles, profile as lookup_profile


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


#: The tallies of one committed stream, in :class:`ProgramFacts` field
#: order: (committed, checkpoints, spill_stores, all_stores).
StreamTallies = tuple[int, int, int, int]


class RunCache:
    """Process-wide memoisation of workloads, compiles, stats and
    program facts.

    Thread-safe: all dictionary access is serialised through one
    re-entrant lock, so ``stats()`` from several threads and a
    concurrent ``clear()`` cannot corrupt state (a cleared cache simply
    recomputes). Instances in different processes are independent by
    design — cross-process reuse goes through ``persistent``.
    """

    def __init__(
        self,
        persistent: ArtifactCache | None | str = "default",
    ) -> None:
        if persistent == "default":
            persistent = ArtifactCache.default()
        self.persistent: ArtifactCache | None = persistent  # type: ignore[assignment]
        self._lock = threading.RLock()
        self._workloads: dict[str, Workload] = {}
        self._stats: dict[
            tuple[str, CompilerConfig, ResilienceHardwareConfig, CoreConfig],
            SimStats,
        ] = {}
        # Compile-only products, keyed by the full (frozen) compiler
        # config: the sweep planner compiles every lattice config to
        # group design points by structural program digest.
        self._compiled: dict[tuple[str, CompilerConfig], CompiledProgram] = {}
        self._digests: dict[tuple[str, CompilerConfig], str] = {}
        # Tallies of every stream timed here, by uid and config; a
        # digest-equal config commits the same stream.
        self._tallies: dict[str, dict[CompilerConfig, StreamTallies]] = {}
        self._facts: dict[tuple[str, CompilerConfig], ProgramFacts] = {}

    def workload(self, uid: str) -> Workload:
        with self._lock:
            wl = self._workloads.get(uid)
            if wl is None:
                wl = build_workload(lookup_profile(uid))
                self._workloads[uid] = wl
            return wl

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

    def _stream(self, uid: str, config: CompilerConfig) -> list[tuple]:
        """A fresh committed stream of one compiled program."""
        with self._lock:
            workload = self.workload(uid)
            program = self.compiled_program(uid, config).program
        return execute_fast(
            program, workload.fresh_memory(), collect_trace=True
        ).trace

    def run_stream(
        self,
        uid: str,
        config: CompilerConfig,
        lanes: Sequence[tuple[CoreConfig, ResilienceHardwareConfig]],
    ) -> tuple[list[SimStats], StreamTallies]:
        """Time ``lanes`` over a fresh committed stream, then drop it.

        The stream's tallies come from its decode's
        :data:`~repro.runtime.multisim.FeedMeta`. They are recorded for
        :meth:`program_facts` and returned next to the lane stats, so a
        sweep worker can hand them to its parent. No stream outlives
        the call.
        """
        feeds: dict = {}
        stats = run_lanes(self._stream(uid, config), lanes, feeds)
        meta = next(iter(feeds.values()))[2]
        tallies = (meta[0], meta[4], meta[3], meta[2] + meta[4])
        self.record_tallies(uid, config, tallies)
        return stats, tallies

    def record_tallies(
        self, uid: str, config: CompilerConfig, tallies: StreamTallies
    ) -> None:
        """Note the tallies of the stream of (uid, config)."""
        with self._lock:
            self._tallies.setdefault(uid, {})[config] = tallies

    def timed_tallies(
        self, uid: str, config: CompilerConfig
    ) -> StreamTallies | None:
        """Tallies of a stream of this program timed here: its own
        config's, else a digest-equal config's (the planner memoised
        the digests of every config a sweep timed)."""
        with self._lock:
            timed = self._tallies.get(uid, {})
            if config in timed:
                return timed[config]
            digest = self.program_digest(uid, config)
            for other, tallies in timed.items():
                if self.program_digest(uid, other) == digest:
                    return tallies
            return None

    def program_facts(self, uid: str, config: CompilerConfig) -> ProgramFacts:
        """Code size and stream tallies of one compiled program.

        Memoised, then persisted, then compiled and paired with the
        tallies a timed stream of the same program recorded here. Only
        a program that no sweep in this cache timed (a standalone
        Figure 4, say) runs its stream again, to tally it with
        :class:`TraceSummary`. A warm cache builds, compiles and runs
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
                tallies = self.timed_tallies(uid, config)
                if tallies is None:
                    summary = TraceSummary(self._stream(uid, config))
                    tallies = (
                        summary.committed, summary.checkpoints,
                        summary.spill_stores, summary.all_stores,
                    )
                facts = ProgramFacts(compiled.code_size_bytes, *tallies)
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
            # Defensive copy: cached stats must survive caller mutation.
            return replace(stats, cache=dict(stats.cache))

    def put_stats(
        self,
        uid: str,
        compiler: CompilerConfig,
        hardware: ResilienceHardwareConfig,
        core: CoreConfig | None,
        stats: SimStats,
    ) -> None:
        """Insert computed stats into both memoisation layers, under the
        point's config key, so later solo lookups hit."""
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
        with self._lock:
            stats = self.peek_stats(uid, compiler, hardware, core)
            if stats is None:
                (stats,), _ = self.run_stream(uid, compiler, [(core, hardware)])
                self.put_stats(uid, compiler, hardware, core, stats)
                stats = replace(stats, cache=dict(stats.cache))
            return stats

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
            self._stats.clear()
            self._compiled.clear()
            self._digests.clear()
            self._tallies.clear()
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
) -> str:
    """The ``repro run`` report for one benchmark, as text.

    Formats :meth:`RunCache.stats` of the scheme point and the baseline,
    looked up through a cache made for the call (a service worker keeps
    no workload between jobs) over the default artifact layer, so only
    what no earlier job or sweep persisted runs.
    The service runs jobs through the CLI, so both print this text.
    """
    if scheme == "baseline":
        compiler, hardware = _baseline_config(), ResilienceHardwareConfig.baseline()
    elif scheme == "turnstile":
        compiler, hardware = turnstile_scheme(wcdl, sb_size)
    else:
        compiler, hardware = turnpike_scheme(wcdl, sb_size)
    cache = RunCache()
    stats = cache.stats(uid, compiler, hardware)
    base_cycles = cache.baseline_cycles(uid)

    lines = [
        f"benchmark:        {uid}",
        f"scheme:           {scheme} (WCDL={wcdl}, SB={sb_size})",
        f"instructions:     {stats.instructions}",
        f"cycles:           {stats.cycles:.0f}",
        f"normalized time:  {stats.cycles / base_cycles:.3f}",
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

    The matrix is one :func:`~repro.harness.sweep.run_sweep` lattice, so
    ``workers > 1`` fans its lane batches across the sweep's process
    pool. Returns ``{(uid, scheme_name): stats}``. After this returns,
    the persistent cache holds one stats record per combination, so
    subsequent figure sweeps start warm.
    """
    from repro.harness.sweep import DesignPoint, run_sweep

    uids = uids if uids is not None else default_benchmarks()
    schemes = schemes if schemes is not None else default_schemes()
    named = {
        (uid, name): DesignPoint(uid, compiler, hardware)
        for uid in uids
        for name, compiler, hardware in schemes
    }
    results = run_sweep(list(named.values()), cache=GLOBAL_CACHE, workers=workers)
    return {pair: results[point] for pair, point in named.items()}
