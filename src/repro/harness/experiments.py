"""Per-figure experiment drivers.

One function per table/figure of the paper's evaluation (Section 6).
Every driver takes an optional benchmark list (defaulting to all 36) and
returns plain data structures that the benches print and the tests
assert against; nothing here touches matplotlib — the "figures" are the
numeric series the plots would show.

Every timing figure declares its design-point lattice and evaluates it
through the multi-lane sweep engine (:mod:`repro.harness.sweep`): one
functional execution and one decode pass per compiled program, K timing
lanes per committed stream, each lane byte-identical to a solo
``simulate`` call. ``workers`` fans lane batches out across processes
(default: ``REPRO_WORKERS`` or sequential).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.arch.config import CoreConfig, ResilienceHardwareConfig
from repro.arch.stats import SimStats
from repro.compiler.config import (
    CompilerConfig,
    figure21_configs,
    turnpike_config,
    turnstile_config,
)
from repro.harness.runner import (
    GLOBAL_CACHE,
    RunCache,
    _baseline_config,
    default_benchmarks,
    geomean,
)
from repro.harness.sweep import DesignPoint, SchemePair, lattice, run_sweep
from repro.hwcost.cacti import Table1, build_table1
from repro.sensors.acoustic import figure18_series


@dataclass
class Series:
    """One named series over the benchmark set."""

    name: str
    per_benchmark: dict[str, float] = field(default_factory=dict)

    @property
    def geomean(self) -> float:
        return geomean(list(self.per_benchmark.values()))

    @property
    def mean(self) -> float:
        values = list(self.per_benchmark.values())
        return sum(values) / len(values)


def _resolve_cache(cache: RunCache | None) -> RunCache:
    """The single cache-resolution point for every figure driver."""
    return GLOBAL_CACHE if cache is None else cache


def _sorted_uids(benchmarks: list[str] | None) -> list[str]:
    """Deterministic (sorted) benchmark iteration for emitted series."""
    return sorted(benchmarks) if benchmarks else sorted(default_benchmarks())


def _baseline_pair() -> SchemePair:
    return (_baseline_config(), ResilienceHardwareConfig.baseline())


def _evaluate(
    uids: list[str],
    pairs: list[SchemePair],
    cache: RunCache,
    workers: int | None,
    normalize: bool = True,
) -> dict[DesignPoint, SimStats]:
    """Evaluate a lattice (plus the shared baseline point) in one sweep."""
    all_pairs = [*pairs, _baseline_pair()] if normalize else pairs
    return run_sweep(lattice(uids, all_pairs), cache=cache, workers=workers)


def _norm(
    result: dict[DesignPoint, SimStats], uid: str, pair: SchemePair
) -> float:
    """The paper's y-axis: resilient cycles / baseline cycles."""
    stats = result[DesignPoint(uid, pair[0], pair[1])]
    base_c, base_h = _baseline_pair()
    return stats.cycles / result[DesignPoint(uid, base_c, base_h)].cycles


def _hw(flags: dict[str, bool], wcdl: int, sb_size: int, clq_kind: str = "compact",
        clq_size: int = 2) -> ResilienceHardwareConfig:
    return ResilienceHardwareConfig(
        enabled=True,
        wcdl=wcdl,
        sb_size=sb_size,
        clq_enabled=flags.get("clq", True),
        clq_kind=clq_kind,
        clq_size=clq_size,
        coloring_enabled=flags.get("coloring", True),
    )


# ---------------------------------------------------------------------------
# Figure 4 — checkpoint ratio vs store buffer size
# ---------------------------------------------------------------------------


def fig04_checkpoint_ratio(
    benchmarks: list[str] | None = None,
    sb_sizes: tuple[int, int] = (40, 4),
    cache: RunCache | None = None,
) -> dict[int, Series]:
    """Dynamic checkpoint instructions as a fraction of committed
    instructions, for a large (OoO-like) and small (in-order) SB."""
    cache = _resolve_cache(cache)
    uids = _sorted_uids(benchmarks)
    out: dict[int, Series] = {}
    for sb in sb_sizes:
        series = Series(name=f"{sb}-entry SB")
        for uid in uids:
            facts = cache.program_facts(uid, turnstile_config(sb_size=sb))
            series.per_benchmark[uid] = facts.checkpoints / facts.committed
        out[sb] = series
    return out


# ---------------------------------------------------------------------------
# Figures 14 / 15 — ideal vs compact CLQ (hardware-only Turnpike)
# ---------------------------------------------------------------------------


def _fig14_15_pairs(wcdl: int = 10) -> dict[str, SchemePair]:
    compiler = turnstile_config().with_name("fastrelease")
    return {
        kind: (compiler, _hw({"clq": True, "coloring": True}, wcdl, 4,
                             clq_kind=kind))
        for kind in ("ideal", "compact")
    }


def fig14_fig15_clq_designs(
    benchmarks: list[str] | None = None,
    wcdl: int = 10,
    cache: RunCache | None = None,
    workers: int | None = None,
) -> dict[str, dict[str, Series]]:
    """Fast release + coloring only (no compiler opts), ideal vs compact.

    Returns ``{"overhead": {...}, "warfree_ratio": {...}}`` keyed by CLQ
    design, matching Figures 14 and 15.
    """
    cache = _resolve_cache(cache)
    uids = _sorted_uids(benchmarks)
    kinds = (("ideal", "Ideal CLQ"), ("compact", "Compact CLQ"))
    pairs = _fig14_15_pairs(wcdl)
    result = _evaluate(uids, list(pairs.values()), cache, workers)
    out: dict[str, dict[str, Series]] = {"overhead": {}, "warfree_ratio": {}}
    for kind, label in kinds:
        overhead = Series(name=label)
        ratio = Series(name=label)
        for uid in uids:
            stats = result[DesignPoint(uid, *pairs[kind])]
            overhead.per_benchmark[uid] = _norm(result, uid, pairs[kind])
            ratio.per_benchmark[uid] = (
                stats.warfree_released / max(1, stats.all_stores)
            )
        out["overhead"][kind] = overhead
        out["warfree_ratio"][kind] = ratio
    return out


# ---------------------------------------------------------------------------
# Figure 18 — sensor count vs detection latency
# ---------------------------------------------------------------------------


def fig18_sensor_latency() -> dict[float, list[tuple[int, float]]]:
    return figure18_series()


# ---------------------------------------------------------------------------
# Figures 19 / 20 — WCDL sweeps
# ---------------------------------------------------------------------------


def _fig19_pairs(
    wcdls: tuple[int, ...] = (10, 20, 30, 40, 50),
) -> dict[int, SchemePair]:
    compiler = turnpike_config()
    return {
        wcdl: (compiler,
               _hw({"clq": True, "coloring": True}, wcdl, compiler.sb_size))
        for wcdl in wcdls
    }


def _fig20_pairs(
    wcdls: tuple[int, ...] = (10, 20, 30, 40, 50),
) -> dict[int, SchemePair]:
    compiler = turnstile_config()
    return {
        wcdl: (compiler,
               _hw({"clq": False, "coloring": False}, wcdl, compiler.sb_size))
        for wcdl in wcdls
    }


def _wcdl_sweep(
    pairs: dict[int, SchemePair],
    benchmarks: list[str],
    cache: RunCache,
    workers: int | None,
) -> dict[int, Series]:
    result = _evaluate(benchmarks, list(pairs.values()), cache, workers)
    out: dict[int, Series] = {}
    for wcdl, pair in pairs.items():
        series = Series(name=f"DL{wcdl}")
        for uid in benchmarks:
            series.per_benchmark[uid] = _norm(result, uid, pair)
        out[wcdl] = series
    return out


def fig19_turnpike_wcdl(
    benchmarks: list[str] | None = None,
    wcdls: tuple[int, ...] = (10, 20, 30, 40, 50),
    cache: RunCache | None = None,
    workers: int | None = None,
) -> dict[int, Series]:
    """Turnpike normalized execution time across WCDLs (paper: 0-14%)."""
    cache = _resolve_cache(cache)
    return _wcdl_sweep(
        _fig19_pairs(wcdls), _sorted_uids(benchmarks), cache, workers
    )


def fig20_turnstile_wcdl(
    benchmarks: list[str] | None = None,
    wcdls: tuple[int, ...] = (10, 20, 30, 40, 50),
    cache: RunCache | None = None,
    workers: int | None = None,
) -> dict[int, Series]:
    """Turnstile normalized execution time across WCDLs (paper: 29-84%)."""
    cache = _resolve_cache(cache)
    return _wcdl_sweep(
        _fig20_pairs(wcdls), _sorted_uids(benchmarks), cache, workers
    )


# ---------------------------------------------------------------------------
# Figure 21 — optimization ablation
# ---------------------------------------------------------------------------


def _fig21_rows(wcdl: int = 10) -> list[tuple[str, SchemePair]]:
    return [
        (label, (compiler, _hw(flags, wcdl, compiler.sb_size)))
        for label, compiler, flags in figure21_configs()
    ]


def fig21_ablation(
    benchmarks: list[str] | None = None,
    wcdl: int = 10,
    cache: RunCache | None = None,
    workers: int | None = None,
) -> list[Series]:
    """The eight configurations of Figure 21, in presentation order."""
    cache = _resolve_cache(cache)
    uids = _sorted_uids(benchmarks)
    rows = _fig21_rows(wcdl)
    result = _evaluate(uids, [pair for _, pair in rows], cache, workers)
    out: list[Series] = []
    for label, pair in rows:
        series = Series(name=label)
        for uid in uids:
            series.per_benchmark[uid] = _norm(result, uid, pair)
        out.append(series)
    return out


# ---------------------------------------------------------------------------
# Figure 22 — store buffer size sensitivity
# ---------------------------------------------------------------------------


def _fig22_schemes(
    turnstile_sizes: tuple[int, ...] = (4, 8, 10, 20, 30, 40),
    turnpike_sizes: tuple[int, ...] = (4, 8, 10),
    wcdl: int = 10,
) -> list[tuple[str, int, SchemePair]]:
    return [
        ("turnstile", sb,
         (turnstile_config(sb_size=sb),
          _hw({"clq": False, "coloring": False}, wcdl, sb)))
        for sb in turnstile_sizes
    ] + [
        ("turnpike", sb,
         (turnpike_config(sb_size=sb),
          _hw({"clq": True, "coloring": True}, wcdl, sb)))
        for sb in turnpike_sizes
    ]


def fig22_sb_sensitivity(
    benchmarks: list[str] | None = None,
    turnstile_sizes: tuple[int, ...] = (4, 8, 10, 20, 30, 40),
    turnpike_sizes: tuple[int, ...] = (4, 8, 10),
    wcdl: int = 10,
    cache: RunCache | None = None,
    workers: int | None = None,
) -> dict[str, dict[int, Series]]:
    cache = _resolve_cache(cache)
    uids = _sorted_uids(benchmarks)
    schemes = _fig22_schemes(turnstile_sizes, turnpike_sizes, wcdl)
    result = _evaluate(uids, [pair for _, _, pair in schemes], cache, workers)
    out: dict[str, dict[int, Series]] = {"turnstile": {}, "turnpike": {}}
    for scheme, sb, pair in schemes:
        series = Series(name=f"{scheme.capitalize()} (SB-{sb})")
        for uid in uids:
            series.per_benchmark[uid] = _norm(result, uid, pair)
        out[scheme][sb] = series
    return out


# ---------------------------------------------------------------------------
# Figure 23 — store breakdown
# ---------------------------------------------------------------------------

BREAKDOWN_CATEGORIES = (
    "pruned",
    "licm_eliminated",
    "colored",
    "warfree",
    "ra_eliminated",
    "indvar_eliminated",
    "others",
)


def _fig23_configs() -> tuple[CompilerConfig, ...]:
    """The differencing stages (base, +pruning, +licm, +ra, full).

    All stages share the overlap partitioning so each delta isolates
    exactly one optimization (the same convention as the Figure 21
    ablation's hardware rows).
    """
    base_cfg = replace(
        turnstile_config(), overlap_partitioning=True, name="bd-base"
    )
    pruning_cfg = CompilerConfig(
        checkpoint_pruning=True,
        licm_sinking=False,
        induction_variable_merging=False,
        instruction_scheduling=False,
        store_aware_regalloc=False,
        name="bd+pruning",
    )
    licm_cfg = replace(pruning_cfg, licm_sinking=True, name="bd+licm")
    ra_cfg = replace(
        licm_cfg,
        instruction_scheduling=True,
        store_aware_regalloc=True,
        name="bd+ra",
    )
    return base_cfg, pruning_cfg, licm_cfg, ra_cfg, turnpike_config()


def _fig23_pair(wcdl: int = 10) -> SchemePair:
    return (turnpike_config(), _hw({"clq": True, "coloring": True}, wcdl, 4))


def fig23_store_breakdown(
    benchmarks: list[str] | None = None,
    wcdl: int = 10,
    cache: RunCache | None = None,
    workers: int | None = None,
) -> dict[str, dict[str, float]]:
    """Fraction of Turnstile's total stores in each disposition category.

    Eliminated categories are measured by differencing dynamic store
    counts between compiler stages (how the paper's compiler statistics
    are defined); released/quarantined categories come from the full
    Turnpike timing run.
    """
    cache = _resolve_cache(cache)
    uids = _sorted_uids(benchmarks)
    base_cfg, pruning_cfg, licm_cfg, ra_cfg, full_cfg = _fig23_configs()
    pair = _fig23_pair(wcdl)
    result = _evaluate(uids, [pair], cache, workers, normalize=False)

    out: dict[str, dict[str, float]] = {}
    for uid in uids:
        s0 = cache.program_facts(uid, base_cfg)
        s1 = cache.program_facts(uid, pruning_cfg)
        s2 = cache.program_facts(uid, licm_cfg)
        s3 = cache.program_facts(uid, ra_cfg)
        s4 = cache.program_facts(uid, full_cfg)
        total = max(1, s0.all_stores)
        pruned = max(0, s0.checkpoints - s1.checkpoints)
        licm = max(0, s1.checkpoints - s2.checkpoints)
        ra = max(0, s2.spill_stores - s3.spill_stores)
        indvar = max(0, s3.all_stores - s4.all_stores - 0)  # LIVM effect
        stats = result[DesignPoint(uid, *pair)]
        colored = stats.colored_released
        warfree = stats.warfree_released
        others = max(0, total - pruned - licm - ra - indvar - colored - warfree)
        out[uid] = {
            "pruned": pruned / total,
            "licm_eliminated": licm / total,
            "colored": colored / total,
            "warfree": warfree / total,
            "ra_eliminated": ra / total,
            "indvar_eliminated": indvar / total,
            "others": others / total,
        }
    return out


def breakdown_means(breakdown: dict[str, dict[str, float]]) -> dict[str, float]:
    """Arithmetic means across benchmarks (the paper reports means here)."""
    n = len(breakdown)
    means = {cat: 0.0 for cat in BREAKDOWN_CATEGORIES}
    for per_bench in breakdown.values():
        for cat in BREAKDOWN_CATEGORIES:
            means[cat] += per_bench[cat]
    return {cat: value / n for cat, value in means.items()}


# ---------------------------------------------------------------------------
# Figure 24 — dynamic CLQ occupancy
# ---------------------------------------------------------------------------


def _fig24_pair(wcdl: int = 10) -> SchemePair:
    return (
        turnpike_config(),
        ResilienceHardwareConfig.turnpike(wcdl=wcdl, clq_kind="ideal"),
    )


def fig24_clq_occupancy(
    benchmarks: list[str] | None = None,
    wcdl: int = 10,
    cache: RunCache | None = None,
    workers: int | None = None,
) -> dict[str, tuple[float, int]]:
    """(average, maximum) populated CLQ entries per benchmark.

    Measured with an unbounded ideal CLQ so the numbers reflect *demand*
    (how many in-flight regions hold load ranges), as in the paper's
    sizing study.
    """
    cache = _resolve_cache(cache)
    uids = _sorted_uids(benchmarks)
    pair = _fig24_pair(wcdl)
    result = _evaluate(uids, [pair], cache, workers, normalize=False)
    out: dict[str, tuple[float, int]] = {}
    for uid in uids:
        stats = result[DesignPoint(uid, *pair)]
        out[uid] = (stats.clq_occupancy_avg, stats.clq_occupancy_max)
    return out


# ---------------------------------------------------------------------------
# Figure 25 — CLQ size sensitivity
# ---------------------------------------------------------------------------


def _fig25_pairs(
    sizes: tuple[int, ...] = (2, 4), wcdl: int = 10
) -> dict[int, SchemePair]:
    compiler = turnpike_config()
    return {
        size: (compiler,
               ResilienceHardwareConfig.turnpike(wcdl=wcdl, clq_size=size))
        for size in sizes
    }


def fig25_clq_size(
    benchmarks: list[str] | None = None,
    sizes: tuple[int, ...] = (2, 4),
    wcdl: int = 10,
    cache: RunCache | None = None,
    workers: int | None = None,
) -> dict[int, Series]:
    cache = _resolve_cache(cache)
    uids = _sorted_uids(benchmarks)
    pairs = _fig25_pairs(sizes, wcdl)
    result = _evaluate(uids, list(pairs.values()), cache, workers)
    out: dict[int, Series] = {}
    for size, pair in pairs.items():
        series = Series(name=f"CLQ-{size}")
        for uid in uids:
            series.per_benchmark[uid] = _norm(result, uid, pair)
        out[size] = series
    return out


# ---------------------------------------------------------------------------
# Figure 26 — region size and code size
# ---------------------------------------------------------------------------


def _fig26_pair(wcdl: int = 10) -> SchemePair:
    return (turnpike_config(), ResilienceHardwareConfig.turnpike(wcdl=wcdl))


def fig26_region_codesize(
    benchmarks: list[str] | None = None,
    wcdl: int = 10,
    cache: RunCache | None = None,
    workers: int | None = None,
) -> dict[str, tuple[float, float]]:
    """(average dynamic region size, code-size increase fraction)."""
    cache = _resolve_cache(cache)
    uids = _sorted_uids(benchmarks)
    pair = _fig26_pair(wcdl)
    result = _evaluate(uids, [pair], cache, workers, normalize=False)
    out: dict[str, tuple[float, float]] = {}
    for uid in uids:
        stats = result[DesignPoint(uid, *pair)]
        size = cache.program_facts(uid, pair[0]).code_size_bytes
        base = cache.program_facts(uid, _baseline_config()).code_size_bytes
        out[uid] = (stats.dynamic_region_size, (size - base) / base)
    return out


# ---------------------------------------------------------------------------
# Table 1 — hardware cost
# ---------------------------------------------------------------------------


def table1_hw_cost() -> Table1:
    return build_table1()


# ---------------------------------------------------------------------------
# The whole figure suite (the `repro sweep` CLI entry)
# ---------------------------------------------------------------------------

FIGURE_SUITE = (
    "fig04", "fig14_15", "fig18", "fig19", "fig20", "fig21", "fig22",
    "fig23", "fig24", "fig25", "fig26", "table1",
)


def suite_pairs(
    figures: tuple[str, ...] | None = None,
) -> list[SchemePair]:
    """Union of (compiler, hardware) pairs the requested figures sweep.

    This is the prefetch lattice of :func:`figure_suite`: evaluating it
    in ONE ``run_sweep`` means one functional execution and one decode
    pass per compiled program across the *whole* suite (maximal lane
    grouping), after which every figure driver resolves its points from
    the warm cache. Includes the shared baseline normalization point.
    """
    wanted = set(figures or FIGURE_SUITE)
    pairs: list[SchemePair] = []
    if "fig14_15" in wanted:
        pairs += _fig14_15_pairs().values()
    if "fig19" in wanted:
        pairs += _fig19_pairs().values()
    if "fig20" in wanted:
        pairs += _fig20_pairs().values()
    if "fig21" in wanted:
        pairs += [pair for _, pair in _fig21_rows()]
    if "fig22" in wanted:
        pairs += [pair for _, _, pair in _fig22_schemes()]
    if "fig23" in wanted:
        pairs.append(_fig23_pair())
    if "fig24" in wanted:
        pairs.append(_fig24_pair())
    if "fig25" in wanted:
        pairs += _fig25_pairs().values()
    if "fig26" in wanted:
        pairs.append(_fig26_pair())
    if pairs:
        pairs.append(_baseline_pair())
    uniq: list[SchemePair] = []
    seen: set[SchemePair] = set()
    for pair in pairs:
        if pair not in seen:
            seen.add(pair)
            uniq.append(pair)
    return uniq


def figure_suite(
    benchmarks: list[str] | None = None,
    figures: tuple[str, ...] | None = None,
    cache: RunCache | None = None,
    workers: int | None = None,
) -> dict[str, object]:
    """Run (a subset of) the full figure suite through the sweep engine.

    Returns ``{figure name: result}`` in suite order. Design points
    shared between figures (the baseline normalization point, the
    turnpike scheme, digest-equal configs) are evaluated exactly once.
    """
    cache = _resolve_cache(cache)
    wanted = figures or FIGURE_SUITE
    unknown = sorted(set(wanted) - set(FIGURE_SUITE))
    if unknown:
        raise ValueError(
            f"unknown figure(s) {', '.join(unknown)}; "
            f"choose from {', '.join(FIGURE_SUITE)}"
        )
    # One-big-sweep prefetch: evaluate the union lattice of every
    # requested figure up front, so each driver's own run_sweep below is
    # a pure warm-cache resolution (no per-figure re-decode of shared
    # committed streams, maximal lanes per decode group).
    prefetch = suite_pairs(tuple(wanted))
    if prefetch:
        run_sweep(
            lattice(_sorted_uids(benchmarks), prefetch),
            cache=cache, workers=workers,
        )
    drivers: dict[str, object] = {
        "fig04": lambda: fig04_checkpoint_ratio(benchmarks, cache=cache),
        "fig14_15": lambda: fig14_fig15_clq_designs(
            benchmarks, cache=cache, workers=workers
        ),
        "fig18": fig18_sensor_latency,
        "fig19": lambda: fig19_turnpike_wcdl(
            benchmarks, cache=cache, workers=workers
        ),
        "fig20": lambda: fig20_turnstile_wcdl(
            benchmarks, cache=cache, workers=workers
        ),
        "fig21": lambda: fig21_ablation(
            benchmarks, cache=cache, workers=workers
        ),
        "fig22": lambda: fig22_sb_sensitivity(
            benchmarks, cache=cache, workers=workers
        ),
        "fig23": lambda: fig23_store_breakdown(
            benchmarks, cache=cache, workers=workers
        ),
        "fig24": lambda: fig24_clq_occupancy(
            benchmarks, cache=cache, workers=workers
        ),
        "fig25": lambda: fig25_clq_size(
            benchmarks, cache=cache, workers=workers
        ),
        "fig26": lambda: fig26_region_codesize(
            benchmarks, cache=cache, workers=workers
        ),
        "table1": table1_hw_cost,
    }
    return {name: drivers[name]() for name in FIGURE_SUITE if name in wanted}
