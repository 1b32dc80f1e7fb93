"""The layered benchmark: four workloads, one command.

End-to-end metrics come from untraced runs; one separate traced run
gives the per-layer numbers and the tracing overhead. Every run is a
fresh child interpreter (``workloads.py``) with its own artifact cache
and temp dir under ``.bench_out/``, run one at a time::

    python benchmarks/perf/bench.py [--workload NAME|all] [--seed 2024]
        [--repeat 5] [--trace] [--write [DIR]]
    python benchmarks/perf/bench.py --workload NAME --seed N --seconds S --trace 0|1
    python benchmarks/perf/bench.py --check [--workload NAME|all]
    python benchmarks/perf/bench.py --compare PARENT.json CHANGE.json
    python benchmarks/perf/bench.py --selftest

The first form prints every metric per workload and, with ``--write``,
stores ``BENCH_<workload>.json``. ``--seconds`` runs for at least S
timed seconds and prints one JSON line (end-to-end metrics, or with
``--trace 1`` the per-layer ones, layer times given as shares of the
traced wall-clock). ``--check`` reruns each workload
traced at its committed seed and fails on any work-counter drift from
its committed BENCH file; wall-clock is reported, never judged.
``--compare`` judges one workload's two BENCH files metric by metric.
Any failed output check makes the command exit nonzero. Times are in
reference seconds: wall-clock corrected for the host CPU's drifting
speed (``speed.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from tracer import aggregate, is_counter, share_view, top_level_ns
from workloads import PAPER_GEOMEANS, WORKLOADS, percentile, tail

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
CHILD = HERE / "workloads.py"
CHILD_TIMEOUT_S = 600
SETUP_REPEATS = 3
DEFAULT_SEED = 2024


@dataclass(frozen=True)
class Metric:
    unit: str
    better: str  # "lower" or "higher"
    bound: float  # allowed worsening of the median, as a share of it


#: The end-to-end metrics every workload reports (BENCHMARK.json's list).
END_TO_END = {
    "setup_s": Metric("s", "lower", 0.25),
    "items_per_s": Metric("1/s", "higher", 0.25),
    "latency_p50_s": Metric("s", "lower", 0.25),
    "latency_tail_s": Metric("s", "lower", 0.25),
    "peak_rss_mb": Metric("MB", "lower", 0.10),
}
#: Recorded in BENCH files too, but outside BENCHMARK.json: error_frac
#: is 0 on correct code, the acc.* metrics exist on figure-cold only.
#: Both are deterministic, so any worsening counts.
RECORDED = {
    "error_frac": Metric("ratio", "lower", 0.0),
    **{f"acc.{stem}_err": Metric("ratio", "lower", 0.0) for stem in PAPER_GEOMEANS},
}
METRICS = {**END_TO_END, **RECORDED}


class BenchError(RuntimeError):
    """A run crashed, hung or produced no result."""


# -- statistics and the comparison rule -----------------------------------


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def classify(metric: Metric, parent: list[float], change: list[float]) -> str:
    """improved / unchanged / unresolved / regressed for one metric.

    Regressed: the change's median is worse than the parent's by more
    than the bound. Improved: the change wins at least 9/10 of the run
    pairs and the medians differ by more than the parent's interquartile
    range. Unresolved: neither, and the parent's own spread is wider
    than the bound, unless every change run beats every parent run.
    """
    sign = 1 if metric.better == "higher" else -1
    p_med, c_med = statistics.median(parent), statistics.median(change)
    worse = sign * (p_med - c_med)
    if worse > metric.bound * abs(p_med):
        return "regressed"
    q1, q3 = quartiles(parent)
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    if pairs and wins >= 0.9 * len(pairs) and -worse > q3 - q1:
        return "improved"
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if (q3 - q1) > metric.bound * abs(p_med) and not all_better:
        return "unresolved"
    return "unchanged"


# -- child runs --------------------------------------------------------------


def _kill_group(pgid_file: Path) -> None:
    try:
        os.killpg(int(pgid_file.read_text()), signal.SIGKILL)
    except (OSError, ValueError):
        pass


def run_child(workload: str, seed: int, phase: str = "full", trace: bool = False,
              spans: Path | None = None) -> dict[str, Any]:
    """One run in a fresh interpreter; returns its result record."""
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT / "tmp"))
    result_path = tmp / "result.json"
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")])),
        REPRO_CACHE_DIR=str(tmp / "cache"),
        REPRO_SERVICE_DIR=str(tmp / "service"),
        TMPDIR=str(tmp),
    )
    argv = [sys.executable, str(CHILD), "--workload", workload, "--seed", str(seed),
            "--phase", phase, "--trace", str(int(trace)), "--result", str(result_path)]
    if spans is not None:
        argv += ["--spans", str(spans)]
    spawned = time.monotonic()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=sys.stderr,
                            start_new_session=True)
    try:
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        if code != 0:
            raise BenchError(f"{workload} {phase} run exited with code {code}")
        result = json.loads(result_path.read_text())
    except BaseException:
        _kill_group(tmp / "server.pgid")
        raise
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    # Spawn to ready, in reference seconds (see speed.py).
    result["setup_s"] = (result["ready"] - spawned) * result["setup_speed"]
    return result


def machine_info() -> dict[str, Any]:
    cpu = platform.processor() or "unknown"
    fs, best = "unknown", ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
        with open("/proc/mounts") as fh:
            for line in fh:
                mount, kind = line.split()[1:3]
                if str(OUT).startswith(mount) and len(mount) > len(best):
                    fs, best = kind, mount
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "tmp_fs": fs}


# -- modes ---------------------------------------------------------------------


def driver_run(workload: str, seed: int, seconds: int, trace: bool) -> int:
    """At least ``seconds`` of timed runs; one JSON line of medians."""
    runs: list[dict[str, Any]] = []
    while not runs or sum(r["timed_s"] for r in runs) < seconds:
        runs.append(run_child(workload, seed, trace=trace))
    if trace:
        views = [share_view(r["layers"]) for r in runs]
        metrics = {
            name: {"value": statistics.median(v[name]["value"] for v in views),
                   "unit": layer["unit"]}
            for name, layer in views[0].items()
        }
    else:
        setups = [r["setup_s"] for r in runs]
        while len(setups) < SETUP_REPEATS:
            setups.append(run_child(workload, seed, phase="setup")["setup_s"])
        values = {name: statistics.median(r["metrics"][name] for r in runs)
                  for name in END_TO_END if name != "setup_s"}
        values["setup_s"] = statistics.median(setups)
        metrics = {name: {"value": values[name], "unit": m.unit}
                   for name, m in END_TO_END.items()}
    failed = sum(r["failed"] for r in runs)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": failed,
        "metrics": metrics,
    }))
    return 1 if failed else 0


def summarize(workload: str, seed: int, runs: list[dict[str, Any]],
              traced: dict[str, Any] | None) -> dict[str, Any]:
    """The BENCH record of one workload."""
    w = WORKLOADS[workload]
    per_run = [{"setup_s": r["setup_s"], **r["metrics"]} for r in runs]
    end_to_end = {}
    for name, metric in METRICS.items():
        values = [v[name] for v in per_run if name in v]
        if not values:
            continue
        q1, q3 = quartiles(values)
        end_to_end[name] = {
            "unit": metric.unit, "better": metric.better, "bound": metric.bound,
            "median": statistics.median(values), "q1": q1, "q3": q3, "runs": values,
        }
    every = runs + ([traced] if traced else [])
    record: dict[str, Any] = {
        "workload": workload,
        "why": w.why,
        "items": w.items,
        "request": w.request,
        "seed": seed,
        "machine": machine_info(),
        "untraced_runs": len(runs),
        "speed": [r["speed"] for r in runs],
        "end_to_end": end_to_end,
        "checks": {
            "attempted": sum(r["attempted"] for r in every),
            "failed": sum(r["failed"] for r in every),
            "failures": [f for r in every for f in r["failures"]][:20],
        },
    }
    if traced is not None:
        untraced = statistics.median(r["timed_s"] * r["speed"] for r in runs)
        wall = traced["timed_s"] * traced["speed"]
        record["traced"] = {
            "wall_s": wall,
            "untraced_wall_s": untraced,
            "overhead_s": wall - untraced,
            "overhead_frac": (wall - untraced) / untraced,
        }
        record["layers"] = traced["layers"]
        record["counters"] = {name: layer["value"]
                              for name, layer in traced["layers"].items()
                              if is_counter(name)}
    return record


def _alias(workload: str, name: str) -> str:
    if name == "items_per_s":
        return WORKLOADS[workload].alias
    if workload == "service-batch" and name.startswith("latency_"):
        return {"latency_p50_s": "job_turnaround_p50_s",
                "latency_tail_s": "job_turnaround_p95_s"}[name]
    return ""


def print_record(record: dict[str, Any]) -> None:
    w = record["workload"]
    print(f"\n== {w} (seed {record['seed']}, {record['untraced_runs']} untraced runs)"
          f"  items: {record['items']}; request: {record['request']}")
    for name, m in record["end_to_end"].items():
        alias = _alias(w, name)
        print(f"  {name:<22} {m['median']:>12.6g} {m['unit']:<6}"
              f" q1 {m['q1']:.6g}  q3 {m['q3']:.6g}"
              + (f"   = {alias}" if alias else ""))
    checks = record["checks"]
    print(f"  speed factor (reference s per wall s): median "
          f"{statistics.median(record['speed']):.3f}, "
          f"range {min(record['speed']):.3f}-{max(record['speed']):.3f}")
    print(f"  checks: {checks['failed']} of {checks['attempted']} failed")
    for failure in checks["failures"]:
        print(f"    FAILED {failure}")
    traced = record.get("traced")
    if traced:
        print(f"  tracing overhead: {traced['overhead_s']:+.3f} s "
              f"({traced['overhead_frac']:+.1%}) on {traced['untraced_wall_s']:.3f} s")
        print("  per-layer (traced run; zeros omitted):")
        for name, layer in record["layers"].items():
            if layer["value"]:
                print(f"    {name:<34} {layer['value']:>14.6g} {layer['unit']}")


def report(args: argparse.Namespace, names: list[str]) -> int:
    failed = 0
    for workload in names:
        runs = [run_child(workload, args.seed) for _ in range(args.repeat)]
        traced = None
        if args.trace:
            OUT.mkdir(exist_ok=True)
            traced = run_child(workload, args.seed, trace=True,
                               spans=OUT / f"trace_{workload}.json")
        record = summarize(workload, args.seed, runs, traced)
        print_record(record)
        failed += record["checks"]["failed"]
        if args.write is not None:
            path = Path(args.write) / f"BENCH_{workload}.json"
            path.write_text(json.dumps(record, indent=1) + "\n")
            print(f"  wrote {path}")
    return 1 if failed else 0


def check(names: list[str]) -> int:
    """Rerun each workload traced; fail on any work-counter drift."""
    bad = 0
    for workload in names:
        committed = json.loads((HERE / f"BENCH_{workload}.json").read_text())
        run = run_child(workload, committed["seed"], trace=True)
        drift = [(name, value, run["layers"].get(name, {}).get("value"))
                 for name, value in committed["counters"].items()
                 if run["layers"].get(name, {}).get("value") != value]
        was = committed["traced"]["wall_s"]
        print(f"{workload}: {len(committed['counters'])} counters, "
              f"{len(drift)} drifted; {run['failed']} of {run['attempted']} "
              f"checks failed; traced wall {run['timed_s'] * run['speed']:.2f} "
              f"reference s (committed {was:.2f}, not judged)")
        for name, old, new in drift:
            print(f"  DRIFT {name}: committed {old}, now {new}")
        for failure in run["failures"]:
            print(f"  FAILED {failure}")
        bad += len(drift) + run["failed"]
    return 1 if bad else 0


def compare(parent_path: str, change_path: str) -> int:
    parent = json.loads(Path(parent_path).read_text())
    change = json.loads(Path(change_path).read_text())
    if parent["workload"] != change["workload"]:
        print("compare: the two files hold different workloads", file=sys.stderr)
        return 2
    print(f"{parent['workload']}: parent {parent_path} vs change {change_path}")
    regressed = 0
    for name, p in parent["end_to_end"].items():
        c = change["end_to_end"].get(name)
        if c is None:
            continue
        metric = Metric(p["unit"], p["better"], p["bound"])
        status = classify(metric, p["runs"], c["runs"])
        regressed += status == "regressed"
        delta = (c["median"] - p["median"]) / p["median"] if p["median"] else 0.0
        print(f"  {name:<22} {p['median']:>12.6g} -> {c['median']:<12.6g} "
              f"{delta:+7.1%}  (parent q1-q3 {p['q1']:.6g}-{p['q3']:.6g}, "
              f"bound {metric.bound:.0%})  {status}")
    p_counters, c_counters = parent.get("counters", {}), change.get("counters", {})
    drift = sorted(n for n in p_counters if c_counters.get(n) != p_counters[n])
    print(f"  counters: {len(p_counters) - len(drift)} of {len(p_counters)} equal")
    for name in drift:
        print(f"    drift {name}: {p_counters[name]} -> {c_counters.get(name)}")
    return 1 if regressed else 0


def selftest() -> int:
    """Check the harness's own arithmetic on synthetic inputs."""
    failures = []

    def expect(label: str, got: Any, want: Any) -> None:
        if got != want:
            failures.append(f"{label}: got {got!r}, want {want!r}")

    spans = [["a", 0, 100, -1], ["b", 10, 40, 0], ["c", 50, 70, 0],
             ["d", 15, 25, 1], ["a", 200, 210, -1]]
    agg = aggregate(spans)
    expect("self time a", agg["a"], [2, 110, 60])
    expect("self time b", agg["b"], [1, 30, 20])
    expect("self time c", agg["c"], [1, 20, 20])
    expect("self time d", agg["d"], [1, 10, 10])
    expect("top level in one window", top_level_ns(spans, [(0, 150)]), 100)
    expect("top level in two windows", top_level_ns(spans, [(0, 150), (190, 220)]), 110)

    ramp = [float(v) for v in range(20, 0, -1)]
    expect("p50 of 1..20", percentile(ramp, 50), 10.0)
    expect("p95 of 1..20", percentile(ramp, 95), 19.0)
    expect("p100 of 1..20", percentile(ramp, 100), 20.0)
    expect("p95 of one sample", percentile([7.0], 95), 7.0)
    expect("p50 of 216", percentile([float(v) for v in range(216)], 50), 107.0)
    expect("p95 of 216", percentile([float(v) for v in range(216)], 95), 205.0)
    expect("tail of 216 is p95", tail([float(v) for v in range(216)]), 205.0)
    expect("tail of 75", tail([float(v) for v in range(75)]), 64.0)
    expect("tail of 30", tail([float(v) for v in range(30, 0, -1)]), 20.0)
    expect("tail of one sample", tail([7.0]), 7.0)

    rate = Metric("1/s", "higher", 0.10)
    base = [100.0, 101.0, 99.0, 100.0, 102.0, 98.0, 100.0, 101.0, 99.0, 100.0]
    expect("clear gain", classify(rate, base, [v * 1.2 for v in base]), "improved")
    expect("same runs", classify(rate, base, list(base)), "unchanged")
    expect("within bound", classify(rate, base, [v * 0.95 for v in base]), "unchanged")
    expect("beyond bound", classify(rate, base, [v * 0.85 for v in base]), "regressed")
    wins8 = [v * 1.05 for v in base[:8]] + [v * 0.9 for v in base[8:]]
    expect("8/10 pair wins", classify(rate, base, wins8), "unchanged")
    wide = [70.0, 130.0, 100.0, 80.0, 120.0, 90.0, 110.0, 75.0, 125.0, 100.0]
    expect("wide spread", classify(rate, wide, [v * 0.97 for v in wide]), "unresolved")
    expect("wide spread, all better", classify(rate, wide, [200.0] * 10), "improved")
    latency = Metric("s", "lower", 0.15)
    expect("lower is better", classify(latency, base, [v * 0.8 for v in base]),
           "improved")
    expect("latency regression", classify(latency, base, [v * 1.2 for v in base]),
           "regressed")
    exact = Metric("ratio", "lower", 0.0)
    expect("deterministic, any worsening", classify(exact, [0.1] * 5, [0.1001] * 5),
           "regressed")
    expect("deterministic, equal", classify(exact, [0.1] * 5, [0.1] * 5), "unchanged")

    for failure in failures:
        print(f"FAILED {failure}")
    print(f"selftest: {len(failures)} failed")
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter, epilog=__doc__)
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--repeat", type=int, default=5,
                        help="untraced runs per workload (default 5)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="add a traced run (per-layer metrics)")
    parser.add_argument("--write", nargs="?", const=str(HERE), default=None,
                        metavar="DIR", help="write BENCH_<workload>.json "
                        "(default: next to this script)")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--seconds", type=int,
                      help="measure at least this long; print one JSON line")
    mode.add_argument("--check", action="store_true",
                      help="fail on work-counter drift from the BENCH files")
    mode.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    mode.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    if args.repeat < 1 or (args.seconds is not None and args.seconds < 1):
        parser.error("--repeat and --seconds must be at least 1")

    if args.selftest:
        return selftest()
    if args.compare:
        return compare(*args.compare)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench: no repro package under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        if args.seconds is not None:
            if len(names) != 1:
                parser.error("--seconds needs one --workload")
            return driver_run(names[0], args.seed, args.seconds, bool(args.trace))
        if args.check:
            return check(names)
        if args.write is not None and not args.trace:
            parser.error("--write needs --trace (BENCH files hold the layers)")
        return report(args, names)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
