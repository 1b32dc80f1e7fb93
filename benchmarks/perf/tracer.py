"""Outside-in span tracer for the layered benchmark.

The tracer never edits ``src/``: :func:`install` replaces the public
functions at each layer boundary with timing wrappers, by ``setattr`` on
the module (or class) through which the callers look them up, e.g.
``repro.runtime.multisim.run_lane``. Every call becomes one span
``[name, start_ns, end_ns, parent]`` kept in memory; the benchmark
writes the list out when the run ends.

A span's *self time* is its duration minus the durations of its direct
children (children nest strictly inside their parent, so their sum is
the part of the interval they cover). ``harness.unattributed_s`` is the
traced windows' length minus the top-level spans inside them.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from collections.abc import Callable, Iterable, Sequence
from typing import Any

Span = list  # [name, start_ns, end_ns, parent index or -1]
Hook = Callable[["Tracer", tuple, dict, Any], None]


class Tracer:
    """In-memory span stack plus named counters."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []

    @property
    def current(self) -> str | None:
        """Name of the innermost open span, if any."""
        return self.spans[self._stack[-1]][0] if self._stack else None

    def wrap(self, name: str, fn: Callable, hook: Hook | None = None) -> Callable:
        """``fn`` with every call recorded as a span called ``name``.

        ``hook(tracer, args, kwargs, result)`` runs after the span closes,
        to count the work the call did (feed entries, cache hits, ...).
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            spans.append([name, clock(), 0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return timed


def aggregate(spans: Sequence[Span]) -> dict[str, list[int]]:
    """``name -> [calls, total_ns, self_ns]`` over a span list."""
    child_ns = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[str, list[int]] = {}
    for i, (name, start, end, _parent) in enumerate(spans):
        row = out.setdefault(name, [0, 0, 0])
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - child_ns[i]
    return out


def top_level_ns(spans: Sequence[Span], windows: Iterable[tuple[int, int]]) -> int:
    """Summed duration of parentless spans lying inside any window."""
    windows = list(windows)
    return sum(
        end - start
        for _name, start, end, parent in spans
        if parent < 0 and any(lo <= start and end <= hi for lo, hi in windows)
    )


# -- the layer boundaries ---------------------------------------------------


def _count(name: str, measure: Callable[[tuple, dict, Any], int]) -> Hook:
    def hook(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
        tracer.counts[name] += measure(args, kwargs, result)

    return hook


def _hit_miss(kind: str) -> Hook:
    def hook(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
        tracer.counts[f"artifacts.{kind}.{'misses' if result is None else 'hits'}"] += 1

    return hook


def _plan_counts(tracer: Tracer, args: tuple, kwargs: dict, plan: Any) -> None:
    tracer.counts["sweep.points"] += len(args[0])
    tracer.counts["sweep.unique_points"] += len(plan.keys)
    tracer.counts["sweep.batches"] += len(plan.batches)
    tracer.counts["sweep.resolved_at_plan"] += len(plan.resolved)


_steps = _count("runtime.functional.dyn_instr", lambda a, k, r: r.steps)

_PASSES = {
    "strength": "reduce_strength",
    "livm": "merge_induction_variables",
    "regalloc": "allocate_registers",
    "ckpt_predict": "predict_checkpoint_defs",
    "regions": "partition_regions",
    "checkpoints": "insert_eager_checkpoints",
    "pruning": "prune_checkpoints",
    "licm": "sink_checkpoints",
    "scheduling": "schedule_program",
    "recovery": "build_recovery_map",
}
COMPILER_PASSES = (*_PASSES, "compile")

#: (span name, "module[:Class]", attribute, hook). A function bound
#: under several names is wrapped at every binding its callers use.
BOUNDARIES: list[tuple[str, str, str, Hook | None]] = [
    ("workloads.build", "repro.harness.runner", "build_workload", None),
    ("workloads.build", "repro.workloads.suites", "build_workload", None),
    *(
        ("compiler.compile", module, fn, None)
        for module in ("repro.compiler.pipeline", "repro.harness.runner")
        for fn in ("compile_program", "compile_baseline")
    ),
    *(
        (f"compiler.{name}", "repro.compiler.pipeline", fn, None)
        for name, fn in _PASSES.items()
    ),
    ("runtime.functional", "repro.harness.runner", "execute_fast", _steps),
    ("runtime.functional", "repro.harness.runner", "execute", _steps),
    ("runtime.functional", "repro.faults.campaign", "execute", _steps),
    ("runtime.functional", "repro.faults.injector", "execute", _steps),
    ("runtime.summary", "repro.harness.runner", "TraceSummary", None),
    (
        "multisim.decode", "repro.runtime.multisim", "decode_feed",
        _count("multisim.decode.feed_entries", lambda a, k, r: len(r[0])),
    ),
    (
        "multisim.lane", "repro.runtime.multisim", "run_lane",
        _count("multisim.lane.entries", lambda a, k, r: len(a[0])),
    ),
    ("sweep.plan", "repro.harness.sweep", "plan_sweep", _plan_counts),
    ("sweep.digest", "repro.runtime.codegen", "program_digest", None),
    *(
        (f"artifacts.{kind}.{op}", "repro.harness.artifacts:ArtifactCache",
         f"{op}_{kind}", _hit_miss(kind) if op == "load" else None)
        for kind in ("trace", "stats", "golden")
        for op in ("load", "store")
    ),
    (
        "arch.core", "repro.arch.core:InOrderCore", "run",
        _count("arch.core.instructions", lambda a, k, r: r.instructions),
    ),
    ("faults.context", "repro.faults.campaign", "_campaign_context", None),
    ("faults.golden_record", "repro.faults.campaign", "record_golden_run", None),
    ("faults.restore", "repro.faults.injector", "prepare_accelerated_run", None),
    ("faults.step", "repro.faults.campaign", "run_with_injection", None),
    ("service.submit", "repro.service.client:ServiceClient", "submit", None),
]


def _resolve(target: str) -> Any:
    module, _, cls = target.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary of the imported ``repro`` package."""
    for name, target, attr, hook in BOUNDARIES:
        owner = _resolve(target)
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), hook))

    # How each injected run ended, counted (not timed) at the machine's
    # run loop: a convergence splice surfaces as ConvergedExit.
    from repro.faults.snapshot import ConvergedExit
    from repro.runtime.machine import ResilientMachine

    machine_run = ResilientMachine.run

    @functools.wraps(machine_run)
    def counted_run(self: Any, *args: Any, **kwargs: Any) -> Any:
        if tracer.current != "faults.step":
            return machine_run(self, *args, **kwargs)
        try:
            result = machine_run(self, *args, **kwargs)
        except ConvergedExit:
            tracer.counts["faults.spliced"] += 1
            raise
        tracer.counts["faults.ran_to_end"] += 1
        return result

    ResilientMachine.run = counted_run


# -- per-layer metrics ------------------------------------------------------

SERVICE_METRICS = (
    "submit_rtt_p50_s", "submit_rtt_p95_s", "queue_wait_p50_s",
    "queue_wait_p95_s", "exec_p50_s", "exec_p95_s", "executions",
    "dedup_hits", "rejected",
)


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if "ns_per_" in name:
        return "ns"
    if name.endswith("us_per_run"):
        return "us"
    if name.endswith(("_ratio", "_frac", "lanes_per_decode")):
        return "ratio"
    return "count"


def is_counter(name: str) -> bool:
    """Deterministic work counters (everything but times and harness)."""
    return not name.startswith("harness.") and _unit(name) in ("count", "ratio")


def layer_metrics(
    tracer: Tracer,
    windows: Sequence[tuple[int, int]],
    service: dict[str, float] | None = None,
) -> dict[str, dict[str, Any]]:
    """Every per-layer metric, as ``name -> {"value", "unit"}``.

    Layers a workload never touches report 0, so every workload emits
    the same metric set.
    """
    agg = aggregate(tracer.spans)
    counts = tracer.counts

    def calls(span: str) -> int:
        return agg.get(span, [0, 0, 0])[0]

    def total_s(span: str) -> float:
        return agg.get(span, [0, 0, 0])[1] / 1e9

    def self_s(span: str) -> float:
        return agg.get(span, [0, 0, 0])[2] / 1e9

    def per(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    m: dict[str, float] = {}
    lane_entries = counts["multisim.lane.entries"]
    feed_entries = counts["multisim.decode.feed_entries"]
    m.update({
        "multisim.lane.calls": calls("multisim.lane"),
        "multisim.lane.self_s": self_s("multisim.lane"),
        "multisim.lane.entries": lane_entries,
        "multisim.lane.ns_per_entry": per(self_s("multisim.lane") * 1e9, lane_entries),
        "multisim.lanes_per_decode": per(
            calls("multisim.lane"), calls("multisim.decode")
        ),
        "multisim.decode.calls": calls("multisim.decode"),
        "multisim.decode.self_s": self_s("multisim.decode"),
        "multisim.decode.feed_entries": feed_entries,
        "multisim.decode.ns_per_entry": per(
            self_s("multisim.decode") * 1e9, feed_entries
        ),
    })
    dyn = counts["runtime.functional.dyn_instr"]
    m.update({
        "runtime.functional.calls": calls("runtime.functional"),
        "runtime.functional.self_s": self_s("runtime.functional"),
        "runtime.functional.dyn_instr": dyn,
        "runtime.functional.ns_per_instr": per(self_s("runtime.functional") * 1e9, dyn),
        "runtime.summary.calls": calls("runtime.summary"),
        "runtime.summary.self_s": self_s("runtime.summary"),
    })
    for name in COMPILER_PASSES:
        m[f"compiler.{name}.calls"] = calls(f"compiler.{name}")
        m[f"compiler.{name}.self_s"] = self_s(f"compiler.{name}")
    for kind in ("trace", "stats", "golden"):
        m[f"artifacts.{kind}.load_s"] = total_s(f"artifacts.{kind}.load")
        m[f"artifacts.{kind}.store_s"] = total_s(f"artifacts.{kind}.store")
        m[f"artifacts.{kind}.hits"] = counts[f"artifacts.{kind}.hits"]
        m[f"artifacts.{kind}.misses"] = counts[f"artifacts.{kind}.misses"]
        m[f"artifacts.{kind}.stores"] = calls(f"artifacts.{kind}.store")
    m["sweep.plan.self_s"] = self_s("sweep.plan")
    for name in ("points", "unique_points", "batches", "resolved_at_plan"):
        m[f"sweep.{name}"] = counts[f"sweep.{name}"]
    m["sweep.digest.calls"] = calls("sweep.digest")
    m["sweep.digest.self_s"] = self_s("sweep.digest")
    m.update({
        "arch.core.calls": calls("arch.core"),
        "arch.core.self_s": self_s("arch.core"),
        "arch.core.ns_per_instr": per(
            self_s("arch.core") * 1e9, counts["arch.core.instructions"]
        ),
    })
    runs = calls("faults.step")
    m.update({
        "faults.context.self_s": self_s("faults.context"),
        "faults.golden_record.calls": calls("faults.golden_record"),
        "faults.golden_record.self_s": self_s("faults.golden_record"),
        "faults.restore.calls": calls("faults.restore"),
        "faults.restore.self_s": self_s("faults.restore"),
        "faults.step.self_s": self_s("faults.step"),
        "faults.runs": runs,
        "faults.spliced": counts["faults.spliced"],
        "faults.ran_to_end": counts["faults.ran_to_end"],
        "faults.splice_ratio": per(counts["faults.spliced"], runs),
        "faults.us_per_run": per(total_s("faults.step") * 1e6, runs),
    })
    for name in SERVICE_METRICS:
        m[f"service.{name}"] = (service or {}).get(name, 0)
    wall_ns = sum(hi - lo for lo, hi in windows)
    unattributed = (wall_ns - top_level_ns(tracer.spans, windows)) / 1e9
    m.update({
        "workloads.build.calls": calls("workloads.build"),
        "workloads.build.self_s": self_s("workloads.build"),
        "harness.wall_s": wall_ns / 1e9,
        "harness.unattributed_s": unattributed,
        "harness.attributed_frac": per(wall_ns / 1e9 - unattributed, wall_ns / 1e9),
    })
    return {name: {"value": value, "unit": _unit(name)} for name, value in m.items()}


def share_view(layers: dict[str, dict[str, Any]]) -> dict[str, dict[str, Any]]:
    """The per-layer set with every layer time as a share of the wall.

    A layer a workload never enters has a time of exactly 0 on every
    run; as a share of ``harness.wall_s`` it stays a measured ratio.
    Per-unit costs and the service's latency percentiles, which are 0
    off their layer, are left out; counters and ``harness.*`` stay.
    """
    wall = layers["harness.wall_s"]["value"]
    out = {}
    for name, layer in layers.items():
        if layer["unit"] in ("count", "ratio") or name.startswith("harness."):
            out[name] = layer
        elif name.endswith(("self_s", "load_s", "store_s")):
            share = layer["value"] / wall
            out[name[:-2] + "_share"] = {"value": share, "unit": "ratio"}
    return out
