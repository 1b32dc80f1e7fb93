"""Unit tests for the batch service: spec canonicalisation and dedup
keys, the fair scheduler's discipline, metrics, the crash-safe journal,
and the asyncio server driven end-to-end over real sockets with a stub
worker pool (no simulation work — these tests exercise queueing,
backpressure, dedup, retry/backoff, per-job timeout, cancellation,
re-adoption, graceful drain, the client's job filter, and stale-endpoint
takeover, all in milliseconds)."""

from __future__ import annotations

import asyncio
import concurrent.futures
import contextlib
import json
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import BrokenExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.__main__ import build_parser
from repro.ecc.codes import CODE_NAMES
from repro.ecc.faultmodel import PATTERN_NAMES
from repro.ecc.layout import STRUCTURES
from repro.harness.experiments import FIGURE_SUITE
from repro.service.client import (
    ServiceClient,
    StaleEndpointError,
    resolve_endpoint,
)
from repro.service.jobs import (
    _SCHEMAS,
    JOB_KINDS,
    REQUIRED,
    JobRecord,
    JobSpec,
    JobState,
    job_key,
    params_from_args,
)
from repro.service.journal import Journal
from repro.service.metrics import LatencyHistogram, ServiceMetrics
from repro.service.scheduler import FairScheduler, QueueFull
from repro.service.server import JobService, ServiceConfig

UID = "CPU2006.gcc"
UID2 = "SPLASH3.radix"
UIDS = ("CPU2006.gcc", "CPU2006.mcf", "SPLASH3.radix", "CPU2017.lbm")


def _names(pool) -> st.SearchStrategy[str]:
    """A comma list drawn from ``pool``, repeats and any order allowed."""
    return st.lists(st.sampled_from(pool), min_size=1, max_size=4).map(
        ",".join
    )


#: The domain of every option that is neither a choice nor a bare flag.
DOMAINS = {
    "uid": st.sampled_from(UIDS),
    "wcdl": st.integers(1, 100),
    "sb": st.integers(1, 64),
    "count": st.integers(1, 500),
    "seed": st.integers(-(2**31), 2**31),
    "targets": _names(("register", "store_buffer", "clq", "coloring", "pc")),
    "variants": _names(("turnstile", "warfree", "turnpike", "unsafe")),
    "shard_size": st.integers(1, 64),
    "snapshot_interval": st.integers(-8, 4096),
    "ecc": st.sampled_from(CODE_NAMES),
    "upset": st.sampled_from(PATTERN_NAMES),
    "upset_model": st.sampled_from(PATTERN_NAMES),
    "figures": _names(FIGURE_SUITE + ("fig4", "FIG14", "Fig15")),
    "benchmarks": _names(UIDS),
    "codes": _names(CODE_NAMES),
    "structures": _names(tuple(STRUCTURES)),
    "patterns": _names(PATTERN_NAMES),
    "trials": st.integers(1, 5000),
}

#: Options of ``repro <kind>`` that are no job field.
CLI_ONLY = {
    "run": set(),
    "inject": {"workers", "manifest", "resume", "export", "sample",
               "ci_width", "confidence", "token_rate"},
    "lint": {"output", "max_per_rule", "workers"},
    "vuln": {"no_cache", "validate", "seed", "ci_width"},
    "sweep": {"workers", "ecc_codes", "ecc_uid", "ecc_count", "ecc_seed",
              "ecc_wcdl", "ecc_targets", "ecc_variants", "ecc_upset"},
    "ecc": set(),
}

#: Options of every ``repro submit <kind>`` that are no job field.
SUBMIT_ONLY = {"endpoint", "journal", "client", "no_handshake", "priority",
               "job_timeout", "wait", "wait_timeout"}


@st.composite
def job_params(draw, kind: str) -> dict:
    """Parameters of one ``kind`` job: each option given or omitted."""
    params = {}
    for opt in _SCHEMAS[kind]:
        if opt.choices:
            values = st.sampled_from(opt.choices)
        elif opt.const is not None:
            values = st.sampled_from((opt.default, opt.const))
        else:
            values = DOMAINS[opt.name]
        if opt.default is REQUIRED or draw(st.booleans()):
            params[opt.name] = draw(values)
    if kind == "lint":  # a uid or all=true, not both
        if params.get("all"):
            params.pop("uid", None)
        else:
            params.setdefault("uid", UID)
    return params


def _job(client="a", priority=10, uid=UID, seed=None):
    spec = JobSpec.create(
        "inject", {"uid": uid, "seed": seed} if seed is not None else {"uid": uid}
    )
    _job.counter = getattr(_job, "counter", 0) + 1
    return JobRecord(
        id=f"j{_job.counter:06d}",
        spec=spec,
        key=f"key{_job.counter}",
        client=client,
        priority=priority,
    )


class TestJobSpec:
    def test_defaults_and_spelling_dedupe(self):
        bare = JobSpec.create("run", {"uid": UID})
        spelled = JobSpec.create(
            "run", {"uid": UID, "wcdl": 10, "sb": 4, "scheme": "turnpike"}
        )
        assert bare == spelled
        assert job_key(bare) == job_key(spelled)

    def test_bare_and_spelled_submissions_collect_one_spec(self):
        parser = build_parser()
        specs = {
            JobSpec.create("run", params_from_args("run", parser.parse_args(
                ["submit", "run", "CPU2006.mcf", *flags]
            )))
            for flags in ([], ["--wcdl", "10", "--scheme", "turnpike"])
        }
        assert len(specs) == 1

    def test_different_specs_different_keys(self):
        a = JobSpec.create("run", {"uid": UID})
        b = JobSpec.create("run", {"uid": UID, "wcdl": 20})
        c = JobSpec.create("lint", {"uid": UID})
        assert len({job_key(a), job_key(b), job_key(c)}) == 3

    def test_key_embeds_code_digest(self, monkeypatch):
        spec = JobSpec.create("run", {"uid": UID})
        before = job_key(spec)
        monkeypatch.setattr(
            "repro.service.jobs.code_digest", lambda: "different"
        )
        assert job_key(spec) != before

    def test_unknown_kind_and_params_rejected(self):
        with pytest.raises(ValueError, match="unknown job kind"):
            JobSpec.create("frobnicate", {})
        with pytest.raises(ValueError, match="unknown run parameter"):
            JobSpec.create("run", {"uid": UID, "bogus": 1})
        with pytest.raises(ValueError, match="required"):
            JobSpec.create("run", {})
        with pytest.raises(ValueError, match="unknown benchmark uid"):
            JobSpec.create("run", {"uid": "NOPE.nope"})
        with pytest.raises(ValueError, match="expected an integer"):
            JobSpec.create("run", {"uid": UID, "wcdl": "ten"})
        with pytest.raises(ValueError, match=r"unknown run parameter\(s\): backend"):
            JobSpec.create("run", {"uid": UID, "backend": "fast"})

    def test_figure_aliases_canonicalise(self):
        for alias in ("fig4", "FIG04"):
            spec = JobSpec.create("sweep", {"figures": alias})
            assert spec.as_dict()["figures"] == "fig04"
        spec = JobSpec.create("sweep", {"figures": "fig18,Fig15,fig14"})
        assert spec.as_dict()["figures"] == "fig14_15,fig18"
        args = build_parser().parse_args(["submit", "sweep", "fig4"])
        assert params_from_args("sweep", args) == {"figures": "fig04"}

    def test_lint_uid_xor_all(self):
        with pytest.raises(ValueError, match="uid or all"):
            JobSpec.create("lint", {})
        with pytest.raises(ValueError, match="not both"):
            JobSpec.create("lint", {"uid": UID, "all": True})
        JobSpec.create("lint", {"all": True})  # ok

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_argv_round_trips_through_cli_parser(self, data):
        """Every kind's canonical argv parses back to the spec it came
        from, through ``repro <kind>`` and through ``repro submit
        <kind>`` (which takes the same job flags)."""
        parser = build_parser()
        for kind in JOB_KINDS:
            spec = JobSpec.create(kind, data.draw(job_params(kind), label=kind))
            argv = spec.to_argv()
            args = parser.parse_args(argv)
            assert JobSpec.create(kind, params_from_args(kind, args)) == spec
            if "--workers" in argv:  # pinned for the worker, no job field
                at = argv.index("--workers")
                del argv[at:at + 2]
            args = parser.parse_args(["submit", *argv])
            assert JobSpec.create(kind, params_from_args(kind, args)) == spec

    @pytest.mark.parametrize("kind", JOB_KINDS)
    def test_cli_options_are_rows_or_listed(self, kind):
        """A flag added to argparse alone, not to the job table, fails."""
        argv = [kind, UID] if kind == "run" else [kind]
        rows = {opt.name for opt in _SCHEMAS[kind]}
        cli = set(vars(build_parser().parse_args(argv))) - {"command"}
        assert cli == rows | CLI_ONLY[kind]
        submit = set(vars(build_parser().parse_args(["submit", *argv])))
        assert submit - {"command", "kind"} == rows | SUBMIT_ONLY

    def test_record_round_trip(self):
        job = _job()
        job.state = JobState.DONE
        job.exit_code = 0
        clone = JobRecord.from_dict(json.loads(json.dumps(job.to_dict())))
        assert clone.to_dict() == job.to_dict()

    def test_journaled_run_with_retired_backend_replays(self, tmp_path):
        """Runs journaled while ``run.backend`` existed hold "fast"."""
        spec = JobSpec.create("run", {"uid": UID, "wcdl": 30})
        job = JobRecord(id="j000001", spec=spec, key="k", client="a")
        record = job.to_dict()
        record["spec"]["backend"] = "fast"
        journal = Journal(tmp_path)
        journal.append({"ev": "submit", "job": record})
        journal.close()
        jobs = Journal(tmp_path).replay()
        assert jobs["j000001"].spec == spec
        assert jobs["j000001"].to_dict() == job.to_dict()


class TestFairScheduler:
    def test_priority_order(self):
        sched = FairScheduler()
        low = _job(priority=20)
        high = _job(priority=1)
        mid = _job(priority=10)
        for job in (low, mid, high):
            sched.push(job)
        assert [sched.pop() for _ in range(3)] == [high, mid, low]
        assert sched.pop() is None

    def test_round_robin_across_clients(self):
        sched = FairScheduler()
        heavy = [_job(client="heavy") for _ in range(4)]
        light = [_job(client="light") for _ in range(2)]
        for job in heavy[:4]:
            sched.push(job)
        for job in light:
            sched.push(job)
        order = [sched.pop().client for _ in range(6)]
        # light's two jobs are interleaved, not stuck behind heavy's four
        assert order == ["heavy", "light", "heavy", "light", "heavy", "heavy"]

    def test_fifo_within_client(self):
        sched = FairScheduler()
        jobs = [_job(client="a") for _ in range(3)]
        for job in jobs:
            sched.push(job)
        assert [sched.pop() for _ in range(3)] == jobs

    def test_backpressure(self):
        sched = FairScheduler(limit=2)
        sched.push(_job())
        sched.push(_job())
        with pytest.raises(QueueFull):
            sched.push(_job())
        assert sched.depth == 2

    def test_cancelled_jobs_skipped(self):
        sched = FairScheduler()
        first, second = _job(client="a"), _job(client="a")
        sched.push(first)
        sched.push(second)
        first.state = JobState.CANCELLED
        sched.discard(first)
        assert sched.depth == 1
        assert sched.pop() is second
        assert sched.pop() is None
        assert sched.depth == 0


class TestMetrics:
    def test_histogram_buckets(self):
        hist = LatencyHistogram()
        for value in (0.005, 0.2, 0.2, 100.0, 1e9):
            hist.observe(value)
        data = hist.to_dict()
        assert data["count"] == 5
        assert data["buckets"]["le_0.01s"] == 1
        assert data["buckets"]["le_0.25s"] == 2
        assert data["buckets"]["le_300s"] == 1
        assert data["buckets"]["le_inf"] == 1

    def test_snapshot_shape_and_dedup_ratio(self):
        metrics = ServiceMetrics()
        metrics.inc("submitted", 4)
        metrics.inc("deduped_cached", 1)
        metrics.inc("deduped_in_flight", 1)
        metrics.observe_exec("run", 0.1)
        snap = metrics.snapshot(queue_depth=3, in_flight=1, workers=2)
        assert snap["queue_depth"] == 3
        assert snap["dedup"] == {"hits": 2, "hit_ratio": 0.5}
        assert snap["latency"]["exec"]["run"]["count"] == 1
        # deterministic key order for diffable output
        assert json.dumps(snap, sort_keys=True)


class TestJournal:
    def test_replay_round_trip(self, tmp_path):
        journal = Journal(tmp_path)
        job = _job()
        journal.record_submit(job)
        job.state = JobState.RUNNING
        job.attempts = 1
        journal.record_state(job)
        replayed = journal.replay()
        assert set(replayed) == {job.id}
        assert replayed[job.id].state is JobState.RUNNING
        assert replayed[job.id].attempts == 1
        assert replayed[job.id].spec == job.spec

    def test_torn_final_line_tolerated(self, tmp_path):
        journal = Journal(tmp_path)
        job = _job()
        journal.record_submit(job)
        journal.close()
        with open(journal.log_path, "a") as fh:
            fh.write('{"ev": "state", "id": "' + job.id + '", "sta')  # torn
        replayed = journal.replay()
        assert set(replayed) == {job.id}
        assert replayed[job.id].state is JobState.QUEUED

    def test_compact_rewrites_to_one_line_per_job(self, tmp_path):
        journal = Journal(tmp_path)
        jobs = {}
        for _ in range(2):
            job = _job()
            jobs[job.id] = job
            journal.record_submit(job)
            job.state = JobState.DONE
            journal.record_state(job)
        journal.compact(jobs)
        lines = journal.log_path.read_text().splitlines()
        assert len(lines) == 2
        assert journal.replay()[job.id].state is JobState.DONE

    def test_result_store_round_trip(self, tmp_path):
        journal = Journal(tmp_path)
        assert journal.load_result("abc") is None
        journal.store_result("abc", {"exit_code": 0, "stdout": "hi"})
        assert journal.load_result("abc")["stdout"] == "hi"

    def test_endpoint_file(self, tmp_path):
        journal = Journal(tmp_path)
        assert journal.read_endpoint() is None
        journal.write_endpoint("127.0.0.1", 4321)
        assert journal.read_endpoint() == ("127.0.0.1", 4321)
        journal.clear_endpoint()
        assert journal.read_endpoint() is None


# -- asyncio server with a stub pool ----------------------------------------


class StubPool:
    """WorkerPool lookalike: instant (or delayed) canned results."""

    def __init__(self, workers=2, delay=0.0, fail_first=0):
        self.workers = workers
        self.delay = delay
        self.fail_first = fail_first
        self.restarts = 0
        self.executed: list[list[str]] = []
        self.lock = threading.Lock()

    def submit(self, argv):
        fut: concurrent.futures.Future = concurrent.futures.Future()
        with self.lock:
            if self.fail_first > 0:
                self.fail_first -= 1
                fut.set_exception(BrokenExecutor("worker died (stub)"))
                return fut

        def work():
            time.sleep(self.delay)
            with self.lock:
                self.executed.append(argv)
            if not fut.cancelled():
                fut.set_result(
                    {
                        "exit_code": 0,
                        "stdout": f"ran {' '.join(argv)}\n",
                        "stderr": "",
                    }
                )

        threading.Thread(target=work, daemon=True).start()
        return fut

    def restart(self):
        self.restarts += 1

    def shutdown(self, wait=True):
        pass


@contextlib.asynccontextmanager
async def running_service(tmp_path, pool=None, **overrides):
    config = ServiceConfig(
        journal_dir=tmp_path / "journal",
        install_signal_handlers=False,
        pool_factory=lambda workers: pool or StubPool(workers),
        retry_base=0.01,
        **overrides,
    )
    service = JobService(config)
    await service.start()
    try:
        yield service
    finally:
        service.begin_drain()
        with contextlib.suppress(asyncio.TimeoutError):
            await asyncio.wait_for(service._stopped.wait(), 5.0)
        await service._shutdown()


async def http(service, method, path, payload=None):
    host, port = service.address
    reader, writer = await asyncio.open_connection(host, port)
    body = json.dumps(payload).encode() if payload is not None else b""
    writer.write(
        (
            f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode()
        + body
    )
    await writer.drain()
    raw = await reader.read(-1)
    writer.close()
    head, _, data = raw.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(data or b"{}")


async def wait_state(service, job_id, *states, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if service.jobs[job_id].state.value in states:
            return service.jobs[job_id]
        await asyncio.sleep(0.01)
    raise AssertionError(
        f"job {job_id} stuck in {service.jobs[job_id].state}"
    )


RUN_SPEC = {"kind": "run", "spec": {"uid": UID}, "client": "t"}


class TestServiceEndToEnd:
    def test_submit_execute_result_and_dedup(self, tmp_path):
        async def scenario():
            pool = StubPool()
            async with running_service(tmp_path, pool=pool) as service:
                status, health = await http(service, "GET", "/healthz")
                assert status == 200 and health["status"] == "ok"
                assert health["protocol"] == 1

                status, reply = await http(service, "POST", "/jobs", RUN_SPEC)
                assert status == 201 and reply["deduped"] is False
                jid = reply["job"]["id"]

                # identical submission from another client: same job
                other = dict(RUN_SPEC, client="other")
                status, reply2 = await http(service, "POST", "/jobs", other)
                assert status == 200 and reply2["deduped"] is True
                assert reply2["job"]["id"] == jid

                await wait_state(service, jid, "done")
                status, payload = await http(
                    service, "GET", f"/jobs/{jid}/result"
                )
                assert status == 200
                assert payload["result"]["exit_code"] == 0
                assert payload["result"]["stdout"].startswith("ran run")

                # the work executed exactly once
                assert len(pool.executed) == 1

                # a fresh identical submission is a cached dedup hit
                status, reply3 = await http(service, "POST", "/jobs", RUN_SPEC)
                assert status == 200 and reply3["deduped"] is True
                assert len(pool.executed) == 1

                status, metrics = await http(service, "GET", "/metrics")
                assert metrics["jobs"]["submitted"] == 3
                assert metrics["jobs"]["completed"] == 1
                assert metrics["dedup"]["hits"] == 2

        asyncio.run(scenario())

    def test_bad_submissions(self, tmp_path):
        async def scenario():
            async with running_service(tmp_path) as service:
                status, reply = await http(
                    service, "POST", "/jobs", {"kind": "nope", "spec": {}}
                )
                assert status == 400 and "unknown job kind" in reply["error"]
                status, reply = await http(
                    service,
                    "POST",
                    "/jobs",
                    {"kind": "run", "spec": {"uid": "NOPE"}},
                )
                assert status == 400
                status, _ = await http(service, "GET", "/jobs/zzz")
                assert status == 404
                status, _ = await http(service, "GET", "/nothing")
                assert status == 404

        asyncio.run(scenario())

    @pytest.mark.parametrize("timeout", ["abc", -1, 0, True, float("inf")])
    def test_bad_timeout_rejected_before_registration(self, tmp_path, timeout):
        """A timeout that is not finite seconds > 0 is a 400: it never
        reaches the dispatcher, so it can neither strand a job (and its
        dedup key) in ``running`` nor time out at once and restart the
        pool under sibling jobs."""

        async def scenario():
            pool = StubPool()
            async with running_service(tmp_path, pool=pool) as service:
                payload = dict(RUN_SPEC, timeout=timeout)
                status, reply = await http(service, "POST", "/jobs", payload)
                assert status == 400 and "timeout" in reply["error"]
                assert service.jobs == {}
                status, reply = await http(service, "POST", "/jobs", RUN_SPEC)
                assert status == 201 and reply["deduped"] is False
                await wait_state(service, reply["job"]["id"], "done")
                assert pool.restarts == 0

        asyncio.run(scenario())

    def test_client_filter_round_trips_any_name(self, tmp_path):
        """``jobs(client=...)`` selects exactly that client's jobs, even
        for names with a space or a query delimiter in them."""
        names = ("alice bob", "team&x", "team")

        async def scenario():
            async with running_service(tmp_path) as service:
                ids = {}
                for name, uid in zip(names, (UID, UID2, "CPU2006.mcf")):
                    job, _ = service.submit("run", {"uid": uid}, client=name)
                    ids[name] = job.id
                host, port = service.address
                client = ServiceClient(endpoint=f"{host}:{port}")
                for name in names:
                    jobs = await asyncio.to_thread(client.jobs, name)
                    assert [job["id"] for job in jobs] == [ids[name]], name

        asyncio.run(scenario())

    def test_metrics_and_healthz_key_sets(self, tmp_path):
        """The benchmark and CI read these keys; renaming one breaks them."""

        async def scenario():
            async with running_service(tmp_path) as service:
                status, snap = await http(service, "GET", "/metrics")
                assert status == 200
                assert set(snap) == {
                    "uptime_s", "queue_depth", "in_flight", "workers",
                    "worker_restarts", "stale_endpoint_replaced", "jobs",
                    "dedup", "latency",
                }
                assert set(snap["jobs"]) == {
                    "submitted", "accepted", "rejected_backpressure",
                    "deduped_in_flight", "deduped_cached", "readopted",
                    "completed", "failed", "cancelled", "timeout", "retries",
                }
                assert set(snap["dedup"]) == {"hits", "hit_ratio"}
                status, health = await http(service, "GET", "/healthz")
                assert status == 200
                assert set(health) == {
                    "status", "version", "protocol", "code_digest", "jobs",
                    "queue_depth", "in_flight",
                }

        asyncio.run(scenario())

    def test_backpressure_429(self, tmp_path):
        async def scenario():
            pool = StubPool(delay=5.0)
            async with running_service(
                tmp_path, pool=pool, workers=1, queue_limit=1
            ) as service:
                seen = set()
                for seed in (1, 2, 3):
                    payload = {
                        "kind": "inject",
                        "spec": {"uid": UID2, "seed": seed},
                        "client": "t",
                    }
                    status, reply = await http(service, "POST", "/jobs", payload)
                    seen.add(status)
                    # give the dispatcher a tick so job 1 leaves the queue
                    await asyncio.sleep(0.05)
                # first accepted+running, second queued, third rejected
                assert seen == {201, 429}
                status, metrics = await http(service, "GET", "/metrics")
                assert metrics["jobs"]["rejected_backpressure"] == 1
                # drain must not hang on the still-sleeping stub thread:
                # cancel the queued job and time out the running one
                for job in list(service.jobs.values()):
                    service.cancel(job)
                for job in list(service.jobs.values()):
                    if not job.state.terminal:
                        job.timeout = 0.01

        asyncio.run(scenario())

    def test_per_job_timeout(self, tmp_path):
        async def scenario():
            pool = StubPool(delay=5.0)
            async with running_service(tmp_path, pool=pool, workers=1) as service:
                payload = dict(RUN_SPEC, timeout=0.05)
                status, reply = await http(service, "POST", "/jobs", payload)
                assert status == 201
                jid = reply["job"]["id"]
                job = await wait_state(service, jid, "timeout")
                assert "timeout" in job.error
                assert pool.restarts == 1
                status, payload = await http(
                    service, "GET", f"/jobs/{jid}/result"
                )
                assert status == 200
                assert payload["result"]["state"] == "timeout"
                # a timed-out job is not cached: resubmission re-queues
                status, reply = await http(service, "POST", "/jobs", RUN_SPEC)
                assert status == 201 and reply["deduped"] is False

        asyncio.run(scenario())

    def test_retry_with_backoff_after_worker_death(self, tmp_path):
        async def scenario():
            pool = StubPool(fail_first=2)
            async with running_service(
                tmp_path, pool=pool, max_retries=2
            ) as service:
                job, deduped = service.submit("run", {"uid": UID}, client="t")
                done = await wait_state(service, job.id, "done")
                assert done.attempts == 3
                status, metrics = await http(service, "GET", "/metrics")
                assert metrics["jobs"]["retries"] == 2
                assert metrics["jobs"]["completed"] == 1

        asyncio.run(scenario())

    def test_retries_exhausted_fails(self, tmp_path):
        async def scenario():
            pool = StubPool(fail_first=99)
            async with running_service(
                tmp_path, pool=pool, max_retries=1
            ) as service:
                job, _ = service.submit("run", {"uid": UID}, client="t")
                failed = await wait_state(service, job.id, "failed")
                assert "worker died" in failed.error
                # failures are not cached: resubmitting re-executes
                pool.fail_first = 0
                job2, deduped = service.submit("run", {"uid": UID}, client="t")
                assert not deduped and job2.id != job.id
                await wait_state(service, job2.id, "done")

        asyncio.run(scenario())

    def test_cancel_queued_job(self, tmp_path):
        async def scenario():
            pool = StubPool(delay=0.3)
            async with running_service(tmp_path, pool=pool, workers=1) as service:
                first, _ = service.submit("run", {"uid": UID}, client="t")
                second, _ = service.submit("run", {"uid": UID2}, client="t")
                await asyncio.sleep(0.05)  # first starts, second queued
                status, reply = await http(
                    service, "POST", f"/jobs/{second.id}/cancel"
                )
                assert status == 200
                assert service.jobs[second.id].state is JobState.CANCELLED
                # running jobs refuse to cancel
                status, _ = await http(
                    service, "POST", f"/jobs/{first.id}/cancel"
                )
                assert status == 409
                await wait_state(service, first.id, "done")

        asyncio.run(scenario())

    def test_graceful_drain_finishes_queue(self, tmp_path):
        async def scenario():
            pool = StubPool(delay=0.05)
            config_jobs = []
            async with running_service(tmp_path, pool=pool, workers=1) as service:
                for uid in (UID, UID2):
                    job, _ = service.submit("run", {"uid": uid}, client="t")
                    config_jobs.append(job.id)
                service.begin_drain()
                # draining refuses new work with 503
                status, _ = await http(service, "POST", "/jobs", RUN_SPEC)
                assert status == 503
                await asyncio.wait_for(service._stopped.wait(), 5.0)
                for jid in config_jobs:
                    assert service.jobs[jid].state is JobState.DONE
            # after shutdown: journal compacted, endpoint file removed
            journal = Journal(tmp_path / "journal")
            assert journal.read_endpoint() is None
            replayed = journal.replay()
            assert {j.state for j in replayed.values()} == {JobState.DONE}

        asyncio.run(scenario())

    def test_crash_readoption_requeues_interrupted_jobs(self, tmp_path):
        async def scenario():
            # First server "crashes" mid-job: simulate by journaling a
            # submit + running state and never finishing.
            journal = Journal(tmp_path / "journal")
            spec = JobSpec.create("run", {"uid": UID})
            crashed = JobRecord(
                id="j000007", spec=spec, key=job_key(spec), client="t"
            )
            journal.record_submit(crashed)
            crashed.state = JobState.RUNNING
            crashed.attempts = 1
            journal.record_state(crashed)
            journal.close()

            pool = StubPool()
            async with running_service(tmp_path, pool=pool) as service:
                assert "j000007" in service.jobs
                job = await wait_state(service, "j000007", "done")
                assert job.exit_code == 0
                # new ids continue after the re-adopted one
                newer, _ = service.submit("run", {"uid": UID2}, client="t")
                assert int(newer.id[1:]) > 7
                status, metrics = await http(service, "GET", "/metrics")
                assert metrics["jobs"]["readopted"] == 1

        asyncio.run(scenario())

    def test_done_jobs_dedupe_across_restart(self, tmp_path):
        async def scenario():
            pool = StubPool()
            async with running_service(tmp_path, pool=pool) as service:
                job, _ = service.submit("run", {"uid": UID}, client="t")
                await wait_state(service, job.id, "done")
                first_id = job.id
            # second server, same journal: the result is served from
            # the store without executing anything
            pool2 = StubPool()
            async with running_service(tmp_path, pool=pool2) as service:
                job2, deduped = service.submit("run", {"uid": UID}, client="x")
                assert deduped and job2.id == first_id
                assert job2.state is JobState.DONE
                assert pool2.executed == []

        asyncio.run(scenario())


class TestJobTimeoutFlag:
    """``serve --job-timeout`` and ``submit --job-timeout`` follow the
    submission rule: finite seconds > 0, else exit 2 with a message."""

    @pytest.mark.parametrize("value", ["-1", "0", "inf", "nan", "abc"])
    @pytest.mark.parametrize(
        "argv",
        [["serve", "--port", "0"], ["submit", "run", UID]],
        ids=["serve", "submit"],
    )
    def test_bad_value_exits_2(self, argv, value, capsys):
        from repro.__main__ import build_parser

        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([*argv, f"--job-timeout={value}"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--job-timeout" in err and repr(value) in err

    def test_good_value_parses_to_seconds(self):
        from repro.__main__ import build_parser

        args = build_parser().parse_args(["serve", "--job-timeout", "2.5"])
        assert args.job_timeout == 2.5
        assert build_parser().parse_args(["serve"]).job_timeout is None


# -- stale endpoint takeover -------------------------------------------------


class TestStaleEndpoint:
    def _dead_pid(self):
        proc = subprocess.Popen([sys.executable, "-c", "pass"])
        proc.wait()
        return proc.pid

    def test_successor_replaces_stale_endpoint(self, tmp_path):
        async def scenario():
            root = tmp_path / "journal"
            Journal(root).write_endpoint(
                "127.0.0.1", 59999, pid=self._dead_pid()
            )
            config = ServiceConfig(
                journal_dir=root,
                install_signal_handlers=False,
                pool_factory=lambda workers: StubPool(workers),
            )
            service = JobService(config)
            await service.start()
            try:
                status, snap = await http(service, "GET", "/metrics")
                assert status == 200
                assert snap["stale_endpoint_replaced"] == 1
                journal = Journal(root)
                assert journal.endpoint_status() == "live"
                assert journal.read_endpoint() == service.address
            finally:
                service.begin_drain()
                await asyncio.wait_for(service._stopped.wait(), 5.0)
                await service._shutdown()

        asyncio.run(scenario())

    def test_refuses_to_usurp_live_server(self, tmp_path):
        async def scenario():
            root = tmp_path / "journal"
            # A *live* foreign PID owns the endpoint (use our own parent).
            Journal(root).write_endpoint(
                "127.0.0.1", 59999, pid=os.getppid()
            )
            service = JobService(
                ServiceConfig(
                    journal_dir=root,
                    install_signal_handlers=False,
                    pool_factory=lambda workers: StubPool(workers),
                )
            )
            with pytest.raises(RuntimeError, match="already served"):
                await service.start()

        asyncio.run(scenario())

    def test_client_reports_stale_endpoint(self, tmp_path):
        root = tmp_path / "journal"
        Journal(root).write_endpoint("127.0.0.1", 59999, pid=self._dead_pid())
        with pytest.raises(StaleEndpointError, match="stale endpoint"):
            resolve_endpoint(journal_dir=str(root))

    def test_absent_endpoint_still_plain_error(self, tmp_path):
        with pytest.raises(ValueError, match="no service endpoint"):
            resolve_endpoint(journal_dir=str(tmp_path / "nowhere"))
