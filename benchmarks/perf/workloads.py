"""The benchmark's four workloads, each run in a fresh child interpreter.

``bench.py`` starts this file once per run, with a fresh
``REPRO_CACHE_DIR`` and ``TMPDIR`` inside the run's temp directory, so
no module-level memo (``GLOBAL_CACHE``, ``_GOLDEN_CACHE``,
``_WORKER_CACHE``) survives from one run into the next::

    python benchmarks/perf/workloads.py --workload NAME --seed N \\
        --phase full|setup --trace 0|1 --result PATH [--spans PATH]

A run sets up, marks itself ready (``bench.py`` times set-up from the
spawn to that mark), runs its timed phase, then checks every output
against the pinned oracles in ``expected.json``. ``--phase setup``
stops at the ready mark. ``--trace 1`` installs the span tracer after
set-up, so the per-layer numbers cover the timed phase only. Every run
samples the CPU's speed throughout (``speed.py``) and reports its times
in reference seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import math
import os
import random
import resource
import signal
import subprocess
import sys
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from speed import SpeedProbe
from tracer import Tracer, install, layer_metrics

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"

#: Figure 19/20 geomeans the paper reports, keyed by metric stem.
PAPER_GEOMEANS = {
    "fig19_dl10": 1.00,
    "fig19_dl50": 1.14,
    "fig20_dl10": 1.29,
    "fig20_dl50": 1.84,
}
INJECT_UID = "CPU2006.bzip2"
INJECT_COUNT = 600
PIN_SEED = 2024  # the seed the campaign aggregate digest is pinned at
WARM_PASSES = 30
SERVICE_WORKERS = 2
SERVICE_SCHEMES = ("turnstile", "turnpike")
SERVICE_WCDLS = (10, 30, 50)
POLL_S = 0.05


# -- digests and statistics ------------------------------------------------


def short(text: str) -> str:
    """64-bit hex digest of a text."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def stats_digest(stats: Any) -> str:
    return short(json.dumps(dataclasses.asdict(stats), sort_keys=True))


def canonical(obj: Any) -> Any:
    """JSON-able form of a figure result, floats kept exact."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return [type(obj).__name__] + [
            [f.name, canonical(getattr(obj, f.name))]
            for f in dataclasses.fields(obj)
        ]
    if isinstance(obj, dict):
        return [[canonical(k), canonical(v)] for k, v in obj.items()]
    if isinstance(obj, (list, tuple)):
        return [canonical(x) for x in obj]
    if isinstance(obj, float):
        return repr(obj)
    return obj


def result_digest(result: Any) -> str:
    return short(json.dumps(canonical(result)))


def point_label(uid: str, compiler: Any, hardware: Any) -> str:
    return f"{uid}|{short(repr((compiler, hardware)))}"


def service_specs(rng: random.Random | None = None) -> list[dict[str, Any]]:
    """The 216 distinct ``run`` jobs: every WCDL x uid x scheme.

    In sweep order: one WCDL at a time over every benchmark and scheme.
    ``rng`` shuffles the WCDLs and, per WCDL, its 72 jobs; every third
    of the burst then holds the same mix of benchmarks and schemes, so
    the seed moves the order but hardly the median job.
    """
    from repro.workloads.suites import all_profiles

    wcdls = list(SERVICE_WCDLS)
    if rng is not None:
        rng.shuffle(wcdls)
    specs = []
    for wcdl in wcdls:
        sweep = [{"uid": p.uid, "scheme": scheme, "wcdl": wcdl}
                 for p in all_profiles() for scheme in SERVICE_SCHEMES]
        if rng is not None:
            rng.shuffle(sweep)
        specs += sweep
    return specs


def service_label(spec: dict[str, Any]) -> str:
    return f"{spec['uid']}|{spec['scheme']}|{spec['wcdl']}"


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile: the smallest value with p% at or below."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1]


def tail(values: list[float]) -> float:
    """The highest nearest-rank percentile with ten samples beyond it.

    p95 of 216 samples, p67 of 30; a lone sample is its own.
    """
    ordered = sorted(values)
    return ordered[len(ordered) - 11] if len(ordered) > 10 else ordered[-1]


def load_expected() -> dict[str, Any]:
    return json.loads(EXPECTED_PATH.read_text())


# -- one run ---------------------------------------------------------------


class Run:
    """State of one child run: readiness, timed windows, output checks."""

    def __init__(self, seed: int, setup_only: bool, tracer: Tracer | None,
                 parallel: bool) -> None:
        self.seed = seed
        self.setup_only = setup_only
        self.tracer = tracer
        self.parallel = parallel
        self.rng = random.Random(seed)
        self.probe = SpeedProbe()
        self.started_ns = time.perf_counter_ns()
        self.ready_at: float | None = None
        self.setup_speed: float | None = None
        self.windows: list[tuple[int, int]] = []
        self.extra_windows: list[tuple[int, int]] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.service_layer: dict[str, float] | None = None

    def ready(self) -> bool:
        """Mark set-up done; False when this run is set-up only."""
        self.ready_at = time.monotonic()
        self.probe.sample()  # at least one sample inside set-up
        self.setup_speed = self.probe.factor(
            [(self.started_ns, time.perf_counter_ns())]
        )
        if self.setup_only:
            return False
        if self.parallel:
            self.probe.spread_over_cpus()
        if self.tracer is not None:
            install(self.tracer)
        return True

    def speed(self, windows: list[tuple[int, int]] | None = None) -> float:
        """Speed factor over some windows (default: all timed windows)."""
        factor = self.probe.factor(windows or self.windows)
        if factor is None:  # a window too short to hold a sample
            factor = self.probe.factor(self.windows) or 1.0
        return factor

    def reference_s(self, window: tuple[int, int]) -> float:
        """A timed window's length in reference seconds (see speed.py)."""
        return (window[1] - window[0]) / 1e9 * self.speed([window])

    @contextmanager
    def timed(self, extra: bool = False) -> Iterator[None]:
        """A timed window; ``extra`` ones are traced but not timed work."""
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            window = (start, time.perf_counter_ns())
            (self.extra_windows if extra else self.windows).append(window)

    @property
    def timed_s(self) -> float:
        return sum(hi - lo for lo, hi in self.windows) / 1e9

    def check(self, label: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(label)

    def span(self, name: str, fn: Callable[[], Any]) -> Any:
        """Call ``fn``, as a span when tracing."""
        return (self.tracer.wrap(name, fn) if self.tracer else fn)()

    @contextmanager
    def untraced(self) -> Iterator[None]:
        """Keep a block's spans and counts out of the layer metrics."""
        tracer = self.tracer
        if tracer is None:
            yield
            return
        mark = len(tracer.spans), tracer.counts.copy()
        try:
            yield
        finally:
            del tracer.spans[mark[0]:]
            tracer.counts = mark[1]


def _check_points(run: Run, cache: Any, uids: list[str], pairs: list,
                  expected: dict[str, str]) -> None:
    for uid in sorted(uids):
        for compiler, hardware in pairs:
            label = point_label(uid, compiler, hardware)
            stats = cache.peek_stats(uid, compiler, hardware)
            run.check(
                f"point {label}",
                stats is not None and stats_digest(stats) == expected.get(label),
            )


# -- workloads -------------------------------------------------------------


def figure_cold(run: Run) -> dict[str, float]:
    """``figure_suite`` over all 36 uids from an empty artifact cache."""
    from repro.harness.experiments import figure_suite, suite_pairs
    from repro.harness.runner import RunCache, default_benchmarks

    expected = load_expected()
    uids = default_benchmarks()
    run.rng.shuffle(uids)  # figure_suite sorts: inputs are seed-invariant
    cache = RunCache()
    if not run.ready():
        return {}
    with run.timed():
        result = figure_suite(uids, cache=cache)
    pairs = suite_pairs()
    _check_points(run, cache, uids, pairs, expected["figure_points"])
    run.check("figure_suite digest", result_digest(result) == expected["figure_suite"])
    elapsed = run.reference_s(run.windows[0])
    out = {
        "items_per_s": len(uids) * len(pairs) / elapsed,
        "latency_p50_s": elapsed,
        "latency_tail_s": elapsed,
    }
    for stem, paper in PAPER_GEOMEANS.items():
        figure, wcdl = stem.split("_dl")
        out[f"acc.{stem}_err"] = abs(result[figure][int(wcdl)].geomean - paper)
    return out


def figure_warm(run: Run) -> dict[str, float]:
    """Steady warm ``figure_suite`` passes over the quick subset."""
    from repro.harness.experiments import figure_suite, suite_pairs
    from repro.harness.runner import RunCache
    from repro.workloads.suites import quick_subset

    expected = load_expected()
    uids = [p.uid for p in quick_subset()]
    run.rng.shuffle(uids)
    figure_suite(uids, cache=RunCache())  # cold: fills the artifact cache
    figure_suite(uids, cache=RunCache())  # first warm pass back-fills traces
    if not run.ready():
        return {}
    pairs = suite_pairs()
    for _ in range(WARM_PASSES):
        cache = RunCache()
        with run.timed():
            result = figure_suite(uids, cache=cache)
        _check_points(run, cache, uids, pairs, expected["figure_points"])
        run.check("quick figure_suite digest",
                  result_digest(result) == expected["quick_suite"])
    passes = [run.reference_s(window) for window in run.windows]
    p50 = percentile(passes, 50)
    return {
        "items_per_s": len(uids) * len(pairs) / p50,
        "latency_p50_s": p50,
        "latency_tail_s": tail(passes),
    }


def inject_campaign(run: Run) -> dict[str, float]:
    """One accelerated 600-injection bzip2 campaign, golden runs included."""
    from repro.faults.campaign import AccelOptions, CampaignRunner, CampaignSpec

    spec = CampaignSpec(INJECT_UID, count=INJECT_COUNT, seed=run.seed)
    if not run.ready():
        return {}
    marks = [time.perf_counter_ns()]
    with run.timed():
        report = CampaignRunner(spec).run(
            progress=lambda done, total: marks.append(time.perf_counter_ns())
        )
    safe = [v for v in spec.variants if v != "unsafe"]
    for record in report.records:
        for variant in safe:
            kind = record["outcomes"][variant]["kind"]
            run.check(f"injection {record['index']} {variant}: {kind}",
                      kind not in ("sdc", "protocol_bug"))
    with run.untraced():
        reference = CampaignRunner(spec, accel=AccelOptions(enabled=False)).run(
            only_shards={0}
        )
    run.check("shard 0 accel on == off",
              reference.records == report.records[: len(reference.records)])
    if run.seed == PIN_SEED:
        run.check("aggregate digest",
                  short(report.to_json()) == load_expected()["inject_aggregate"])
    # Shards are 8 injections x 4 variants; the first also records the
    # golden runs. Later shards count at most 3x the median one: normal
    # shards stay under ~2.7x, while a rare injection that livelocks the
    # unsafe variant until the 4M-step watchdog makes its shard ~40x,
    # which would let the seed, not the code, set the spread.
    shards = [run.reference_s(window) for window in zip(marks, marks[1:])]
    cap = 3 * percentile(shards[1:], 50)
    campaign = shards[0] + sum(min(shard, cap) for shard in shards[1:])
    return {
        "items_per_s": spec.count * len(spec.variants) / campaign,
        "latency_p50_s": campaign,
        "latency_tail_s": campaign,
    }


def _start_server(journal: Path) -> subprocess.Popen:
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--journal", str(journal),
         "--port", "0", "--workers", str(SERVICE_WORKERS)],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    # bench.py kills this process group if the run dies before reaping it.
    (journal.parent / "server.pgid").write_text(str(proc.pid))
    deadline = time.monotonic() + 60
    while not (journal / "endpoint").exists():
        if proc.poll() is not None or time.monotonic() > deadline:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise RuntimeError("repro serve did not come up")
        time.sleep(0.01)
    return proc


def _stop_server(proc: subprocess.Popen, client: Any) -> None:
    try:
        if client is not None:
            client.shutdown()
        proc.wait(timeout=60)
    except (OSError, RuntimeError, subprocess.TimeoutExpired):
        # Refused drain or a hung server: take down its whole group.
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()


def service_batch(run: Run) -> dict[str, float]:
    """216 distinct run jobs through a private 2-worker ``repro serve``."""
    from repro.service.client import ServiceClient

    expected = load_expected()
    journal = Path(os.environ["TMPDIR"]) / "journal"
    proc = _start_server(journal)
    client = None
    try:
        client = ServiceClient(journal_dir=str(journal), client_name="bench")
        client.handshake()
        if not run.ready():
            return {}
        specs = service_specs(run.rng)
        ids: dict[str, str] = {}
        rtts = []
        with run.timed():
            for spec in specs:
                start = time.perf_counter()
                job, _deduped = client.submit("run", spec)
                rtts.append(time.perf_counter() - start)
                ids[service_label(spec)] = job["id"]
            twin = ServiceClient(endpoint=f"{client.host}:{client.port}",
                                 client_name="bench-twin")
            twin_dedup = sum(twin.submit("run", spec)[1] for spec in specs)

            def drain() -> None:
                while True:
                    jobs = client.metrics()["jobs"]
                    ended = jobs["completed"] + jobs["failed"] + jobs["timeout"]
                    if ended >= len(specs):
                        return
                    time.sleep(POLL_S)

            run.span("service.wait", drain)
        records = {job["id"]: job for job in client.jobs()}
        stdout = {
            label: client.result(jid)["result"].get("stdout", "")
            for label, jid in ids.items()
        }
        metrics = client.metrics()
    finally:
        _stop_server(proc, client)

    for label, text in stdout.items():
        run.check(f"job {label} stdout",
                  short(text) == expected["service_stdout"].get(label))
    run.check("stdout digest over all jobs",
              short("".join(stdout[k] for k in sorted(stdout)))
              == expected["service_all"])
    run.check(f"twin dedup {twin_dedup}/{len(specs)}", twin_dedup == len(specs))
    executions = metrics["jobs"]["completed"]
    run.check(f"{executions} executions", executions == len(specs))

    jobs = [records[jid] for jid in ids.values()]
    submitted = [j["submitted_at"] for j in jobs]
    started = [j["started_at"] or j["finished_at"] for j in jobs]
    finished = [j["finished_at"] for j in jobs]
    turnaround = [f - s for s, f in zip(submitted, finished)]
    queue_wait = [b - s for s, b in zip(submitted, started)]
    execution = [f - b for b, f in zip(started, finished)]
    run.service_layer = {
        "submit_rtt_p50_s": percentile(rtts, 50),
        "submit_rtt_p95_s": percentile(rtts, 95),
        "queue_wait_p50_s": percentile(queue_wait, 50),
        "queue_wait_p95_s": percentile(queue_wait, 95),
        "exec_p50_s": percentile(execution, 50),
        "exec_p95_s": percentile(execution, 95),
        "executions": executions,
        "dedup_hits": metrics["dedup"]["hits"],
        "rejected": metrics["jobs"]["rejected_backpressure"],
    }
    if run.tracer is not None:
        # The jobs ran in the server's pool, out of the tracer's reach:
        # replay the same specs in-process for the core/compiler layers.
        from repro.harness.runner import run_report_text

        with run.timed(extra=True):
            replayed = {
                service_label(spec): run_report_text(
                    spec["uid"], scheme=spec["scheme"], wcdl=spec["wcdl"]
                ) + "\n"
                for spec in specs
            }
        for label, text in replayed.items():
            run.check(f"replay {label}", text == stdout[label])
    speed = run.speed()
    return {
        "items_per_s": len(specs) / ((max(finished) - min(submitted)) * speed),
        "latency_p50_s": percentile(turnaround, 50) * speed,
        "latency_tail_s": tail(turnaround) * speed,
    }


@dataclass(frozen=True)
class Workload:
    name: str
    fn: Callable[[Run], dict[str, float]]
    why: str
    items: str  # what items_per_s counts
    request: str  # what one latency sample is
    alias: str  # the throughput metric's workload-specific name
    parallel: bool = False  # the work runs in other processes, on every CPU


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "figure-cold", figure_cold,
            "full figure lattice from an empty cache: what every src edit "
            "costs; lanes, decode, functional, compiler and artifact writes",
            "design points", "one cold figure_suite pass", "points_per_s",
        ),
        Workload(
            "figure-warm", figure_warm,
            "quick subset over a filled cache: artifact reads, repeat "
            "compiles and the planner; lanes and functional do no work",
            "design points", "one warm figure_suite pass", "points_per_s",
        ),
        Workload(
            "inject-campaign", inject_campaign,
            "accelerated bzip2 fault campaign: the only workload that "
            "runs golden recording, snapshot restore, stepping and splicing",
            "injected runs", "one whole campaign", "inj_per_s",
        ),
        Workload(
            "service-batch", service_batch,
            "216-job burst through repro serve with 2 workers: scheduler, "
            "journal, pool, dedup and the CLI run path",
            "jobs", "one job's turnaround", "jobs_per_s", parallel=True,
        ),
    )
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--phase", choices=("full", "setup"), default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    run = Run(args.seed, args.phase == "setup", tracer, workload.parallel)
    run.probe.start()
    try:
        metrics = workload.fn(run)
    finally:
        run.probe.stop()
    out: dict[str, Any] = {"ready": run.ready_at, "setup_speed": run.setup_speed,
                           "timed_s": run.timed_s}
    if args.phase == "full":
        out["speed"] = run.speed()
        peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                      resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        metrics["peak_rss_mb"] = peak_kb / 1024
        metrics["error_frac"] = run.failed / max(1, run.attempted)
        out.update(metrics=metrics, attempted=run.attempted,
                   failed=run.failed, failures=run.failures)
    if tracer is not None and args.phase == "full":
        windows = run.windows + run.extra_windows
        out["layers"] = layer_metrics(tracer, windows, run.service_layer)
        if args.spans is not None:
            args.spans.write_text(json.dumps({
                "workload": args.workload,
                "seed": args.seed,
                "windows": windows,
                "spans": tracer.spans,
            }))
    args.result.write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
