"""Declarative design-point lattices and the multi-lane sweep engine.

A *design point* is one (benchmark, compiler config, hardware config,
core config) combination — one bar of one figure. Every figure sweep is
a lattice of such points, and evaluating them independently repeats
enormous amounts of shared work: digest-equal compiler configs produce
the same committed stream, and every hardware point over one stream
shares its cache/branch behaviour.

The engine exploits both:

1. **Content-addressed point keys** (:func:`point_key`): inside one
   plan a point is identified by the *structural digest* of its
   compiled program, not the config that produced it, so identical
   points — across figures, or from configs that differ only in
   non-binding options — dedup to one lane. The key lives in memory
   only: each point's stats persist once, under its own config key.
2. **Lane batching** (:func:`plan_sweep`): points sharing one compiled
   program form a batch; :meth:`~repro.harness.runner.RunCache.
   run_stream` produces the batch's committed stream, runs every lane
   over one shared decode pass (fetch/decode/functional work once, K
   independent timing lanes, each byte-identical to a solo
   :func:`~repro.harness.runner.simulate`) and drops the stream before
   the next batch.
3. **Multiprocess dispatch**: with ``workers > 1`` (or
   ``REPRO_WORKERS``) lane batches fan out across a process pool,
   which ``cache warm`` (:func:`~repro.harness.runner.warm_suite`)
   shards through too. A worker returns a batch's lane stats and
   stream tallies, and the parent records both; workers touch no disk.

Results are inserted back into the :class:`~repro.harness.runner.
RunCache` stats layers under each point's own config key, so the solo
accessors (``simulate``, ``normalized_time``, ``baseline_cycles``) hit
the engine's results without recomputing.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.faults.campaign import (
        AccelOptions,
        CampaignReport,
        CampaignSpec,
    )

from repro.arch.config import CoreConfig, ResilienceHardwareConfig
from repro.arch.stats import SimStats
from repro.compiler.config import CompilerConfig
from repro.harness.runner import (
    GLOBAL_CACHE,
    RunCache,
    StreamTallies,
    resolve_workers,
)


@dataclass(frozen=True)
class DesignPoint:
    """One (benchmark, compiler, hardware, core) combination."""

    uid: str
    compiler: CompilerConfig
    hardware: ResilienceHardwareConfig
    core: CoreConfig = CoreConfig()


SchemePair = tuple[CompilerConfig, ResilienceHardwareConfig]

#: A point's identity inside one plan: (uid, program digest, hardware,
#: core) for a point to evaluate, (uid, compiler config, hardware, core)
#: for one resolved from a cache layer without compiling.
PointKey = tuple[str, str | CompilerConfig, ResilienceHardwareConfig, CoreConfig]


def lattice(
    benchmarks: Iterable[str],
    pairs: Iterable[SchemePair],
    core: CoreConfig | None = None,
) -> list[DesignPoint]:
    """The cross product benchmark x (compiler, hardware) as points."""
    core = core or CoreConfig()
    pair_list = list(pairs)
    return [
        DesignPoint(uid=uid, compiler=c, hardware=h, core=core)
        for uid in benchmarks
        for (c, h) in pair_list
    ]


def point_key(point: DesignPoint, digest: str) -> PointKey:
    """Content-addressed identity of a design point within one plan.

    Built from the structural program digest (not the compiler config),
    so digest-equal configs collapse to the same key.
    """
    return (point.uid, digest, point.hardware, point.core)


@dataclass
class LaneBatch:
    """Points sharing one compiled program: one decode, K lanes."""

    uid: str
    compiler: CompilerConfig  # representative (first seen) config
    digest: str
    lanes: list[tuple[CoreConfig, ResilienceHardwareConfig]]
    # Per lane, every (point, its content key) mapped onto it.
    members: list[list[tuple[DesignPoint, PointKey]]]


@dataclass
class SweepPlan:
    """Planner output: deduplicated points grouped into lane batches."""

    batches: list[LaneBatch]
    # Points already resolved (peeked from a cache layer) at plan time.
    resolved: dict[PointKey, SimStats]
    # Content key of every input point.
    keys: dict[DesignPoint, PointKey]

    @property
    def planned_lanes(self) -> int:
        return sum(len(b.lanes) for b in self.batches)


def plan_sweep(
    points: Sequence[DesignPoint],
    cache: RunCache,
    reuse_cached: bool = True,
) -> SweepPlan:
    """Group design points into lane batches keyed by program digest.

    Points whose stats are already available under their own config key
    (from an earlier figure in this process, or the persistent artifact
    cache) are resolved immediately and excluded from the batches.
    """
    batches: dict[tuple[str, str], LaneBatch] = {}
    resolved: dict[PointKey, SimStats] = {}
    keys: dict[DesignPoint, PointKey] = {}
    for point in points:
        if point in keys:
            continue
        # Cheapest first: stats memoised under the point's own config
        # key resolve without compiling anything.
        if reuse_cached:
            stats = cache.peek_stats(
                point.uid, point.compiler, point.hardware, point.core
            )
            if stats is not None:
                keys[point] = (
                    point.uid, point.compiler, point.hardware, point.core
                )
                resolved[keys[point]] = stats
                continue
        digest = cache.program_digest(point.uid, point.compiler)
        key = point_key(point, digest)
        keys[point] = key
        bkey = (point.uid, digest)
        batch = batches.get(bkey)
        if batch is None:
            batch = batches[bkey] = LaneBatch(
                uid=point.uid,
                compiler=point.compiler,
                digest=digest,
                lanes=[],
                members=[],
            )
        for i, lane in enumerate(batch.lanes):
            if lane == (point.core, point.hardware):
                batch.members[i].append((point, key))
                break
        else:
            batch.lanes.append((point.core, point.hardware))
            batch.members.append([(point, key)])
    return SweepPlan(batches=list(batches.values()), resolved=resolved,
                     keys=keys)


_MpJob = tuple[
    str, CompilerConfig, list[tuple[CoreConfig, ResilienceHardwareConfig]]
]


#: The pooled sweep's cache while its pool runs: forked workers reuse
#: its compiles; spawned ones fall back to ``GLOBAL_CACHE``.
_POOL_CACHE: RunCache | None = None


def _mp_run_batch(job: _MpJob) -> tuple[list[SimStats], StreamTallies]:
    """Worker entry: time one lane batch over a stream made here.

    The parent records the returned stats and tallies, so the worker
    writes nothing to disk.
    """
    uid, compiler, lanes = job
    return (_POOL_CACHE or GLOBAL_CACHE).run_stream(uid, compiler, lanes)


def _commit(
    cache: RunCache,
    batch: LaneBatch,
    lane_stats: Sequence[SimStats],
    out: dict[PointKey, SimStats],
) -> None:
    """Record one evaluated batch: one stats record per design point,
    under the point's own config key, so the solo accessors
    (simulate / normalized_time) hit."""
    for members, stats in zip(batch.members, lane_stats, strict=True):
        for point, key in members:
            out[key] = stats
            cache.put_stats(
                point.uid, point.compiler, point.hardware, point.core, stats
            )


def run_sweep(
    points: Sequence[DesignPoint],
    cache: RunCache | None = None,
    workers: int | None = None,
    reuse_cached: bool = True,
) -> dict[DesignPoint, SimStats]:
    """Evaluate a design-point lattice through the multi-lane engine.

    Returns stats for every input point (defensive copies). A solo
    ``simulate`` of the same point runs the same lane kernel, one lane
    at a time, and every lane matches the object-model timing reference
    field for field (``tests/test_multisim_parity.py``).
    """
    cache = cache or GLOBAL_CACHE
    plan = plan_sweep(points, cache, reuse_cached=reuse_cached)
    computed: dict[PointKey, SimStats] = dict(plan.resolved)
    workers = resolve_workers(workers)
    pending = [b for b in plan.batches if b.lanes]
    if workers > 1 and len(pending) > 1:
        import multiprocessing as mp

        global _POOL_CACHE
        jobs: list[_MpJob] = [
            (b.uid, b.compiler, list(b.lanes)) for b in pending
        ]
        _POOL_CACHE = cache
        try:
            with mp.get_context().Pool(min(workers, len(jobs))) as pool:
                results = pool.map(_mp_run_batch, jobs, chunksize=1)
        finally:
            _POOL_CACHE = None
        for batch, (lane_stats, tallies) in zip(pending, results, strict=True):
            cache.record_tallies(batch.uid, batch.compiler, tallies)
            _commit(cache, batch, lane_stats, computed)
    else:
        for batch in pending:
            lane_stats, _ = cache.run_stream(
                batch.uid, batch.compiler, batch.lanes
            )
            _commit(cache, batch, lane_stats, computed)
    return {
        point: replace(computed[key], cache=dict(computed[key].cache))
        for point, key in plan.keys.items()
    }


# ---------------------------------------------------------------------------
# Code-choice axis: fan one fault campaign across ECC codes
# ---------------------------------------------------------------------------

#: Spellings of the control point on the code axis — the abstract
#: parity fail-safe, i.e. ``CampaignSpec.ecc = None``.
ECC_OFF_LABELS = ("off", "none")


def fan_campaign_codes(
    spec: CampaignSpec, codes: Iterable[str]
) -> list[tuple[str, CampaignSpec]]:
    """Grow the sweep lattice's code-choice axis over one campaign.

    Returns ``(label, spec)`` pairs, one per *distinct* code in input
    order — the same dedup discipline as the design-point lattice:
    duplicate axis values collapse and order is preserved. ``"off"`` /
    ``"none"`` denote the unprotected abstract fail-safe (``ecc=None``)
    so a fan always can carry the control point; both spellings dedup
    to one ``"off"`` entry. Unknown code names raise ``ValueError``
    through :class:`~repro.faults.campaign.CampaignSpec` validation.
    """
    fanned: list[tuple[str, CampaignSpec]] = []
    seen: set[str] = set()
    for name in codes:
        label = name.strip().lower()
        if not label:
            continue
        ecc = None if label in ECC_OFF_LABELS else label
        key = ecc if ecc is not None else "off"
        if key in seen:
            continue
        seen.add(key)
        point = spec if ecc == spec.ecc else replace(spec, ecc=ecc)
        fanned.append((key, point))
    if not fanned:
        raise ValueError("code axis is empty")
    return fanned


def run_campaign_fan(
    spec: CampaignSpec,
    codes: Iterable[str],
    accel: AccelOptions | None = None,
    workers: int = 1,
    progress: Callable[[str, int, int], None] | None = None,
) -> dict[str, tuple[CampaignReport, str]]:
    """Execute one campaign per distinct code-axis value.

    Every point is the *same* campaign — uid, seed, strike plan — with
    only the decode semantics swapped, so the per-code reports are
    directly differential. Within each point the usual campaign
    machinery (golden-run memoization, shard accel) applies unchanged.
    Returns ``label -> (report, rendered text)`` in axis order.
    """
    from repro.faults.campaign import execute_campaign

    results: dict[str, tuple[CampaignReport, str]] = {}
    for label, point in fan_campaign_codes(spec, codes):
        wrapped = (
            None
            if progress is None
            else lambda done, total, _label=label: progress(
                _label, done, total
            )
        )
        results[label] = execute_campaign(
            point, accel=accel, workers=workers, progress=wrapped
        )
    return results
