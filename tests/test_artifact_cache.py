"""The persistent artifact cache, RunCache layering, and sharding.

Covers the tentpole's storage/concurrency contract:

* ArtifactCache round-trips traces, stats and program facts, tolerates
  corrupt files, counts and clears every artifact kind, and honours the
  ``REPRO_CACHE_DIR`` disable switch;
* a warm persistent cache serves RunCache without recompiling,
  re-simulating or re-tallying anything (monkeypatched builders raise if
  touched);
* ``prepared()`` under thread contention with interleaved ``clear()``
  never corrupts state, and ``clear()`` leaves the disk layer intact;
* ``warm_suite`` fills the persistent layer through the sweep engine;
* shard-merge arithmetic (``SimStats.merge`` / ``merge_stats`` /
  ``CLQStats.merge``) is exact.
"""

from __future__ import annotations

import json
import multiprocessing
import threading

import pytest

from repro.arch.clq import CLQStats
from repro.arch.config import CoreConfig, ResilienceHardwareConfig
from repro.arch.stats import SimStats, merge_stats
from repro.harness import artifacts
from repro.harness.artifacts import ArtifactCache, ProgramFacts
from repro.harness.runner import (
    RunCache,
    _baseline_config,
    resolve_workers,
    turnpike_scheme,
    warm_suite,
)
from repro.runtime.trace import TraceSummary

UID = "CPU2006.mcf"
FACTS = ProgramFacts(
    code_size_bytes=96, committed=40, checkpoints=3, spill_stores=1,
    all_stores=9,
)


@pytest.fixture
def disk_cache(tmp_path):
    return ArtifactCache(tmp_path / "artifacts")


class TestArtifactCache:
    def test_trace_roundtrip(self, disk_cache):
        trace = [(0, 1, 2, 3, -1, -1, 0), (4, -1, 5, -1, 4096, 2, 1)]
        key = disk_cache.trace_key(UID, _baseline_config())
        assert disk_cache.load_trace(key) is None
        disk_cache.store_trace(key, trace)
        assert disk_cache.load_trace(key) == trace

    def test_stats_roundtrip(self, disk_cache):
        stats = SimStats(
            cycles=123.0, instructions=45, cache={"hits": 7, "misses": 2}
        )
        key = disk_cache.stats_key(
            UID, _baseline_config(), ResilienceHardwareConfig.baseline(),
            CoreConfig(),
        )
        assert disk_cache.load_stats(key) is None
        disk_cache.store_stats(key, stats)
        assert disk_cache.load_stats(key) == stats

    def test_facts_roundtrip(self, disk_cache):
        key = disk_cache.facts_key(UID, _baseline_config())
        assert disk_cache.load_facts(key) is None
        disk_cache.store_facts(key, FACTS)
        assert disk_cache.load_facts(key) == FACTS

    def test_corrupt_artifact_is_a_miss(self, disk_cache):
        trace_key = disk_cache.trace_key(UID, _baseline_config())
        stats_key = disk_cache.stats_key(
            UID, _baseline_config(), ResilienceHardwareConfig.baseline(),
            CoreConfig(),
        )
        facts_key = disk_cache.facts_key(UID, _baseline_config())
        (disk_cache.root / f"trace-{trace_key}.pkl").write_bytes(b"garbage")
        (disk_cache.root / f"stats-{stats_key}.json").write_text("{nope")
        assert disk_cache.load_trace(trace_key) is None
        assert disk_cache.load_stats(stats_key) is None
        facts_path = disk_cache.root / f"facts-{facts_key}.json"
        for text in ("{nope", "[1, 2]", '{"committed": 4}'):
            facts_path.write_text(text)
            assert disk_cache.load_facts(facts_key) is None

    def test_keys_depend_on_configs(self):
        base = _baseline_config()
        tp_c, tp_h = turnpike_scheme()
        assert ArtifactCache.trace_key(UID, base) != ArtifactCache.trace_key(
            UID, tp_c
        )
        assert ArtifactCache.stats_key(
            UID, tp_c, tp_h, CoreConfig()
        ) != ArtifactCache.stats_key(
            UID, tp_c, ResilienceHardwareConfig.baseline(), CoreConfig()
        )

    def test_clear_and_info(self, disk_cache):
        disk_cache.store_trace("abc", [(0, -1, -1, -1, -1, -1, 0)])
        info = disk_cache.info()
        assert info["artifacts"] == 1 and info["traces"] == 1
        assert disk_cache.clear() == 1
        assert disk_cache.artifact_paths() == []

    def test_every_kind_counted_and_cleared(self, disk_cache):
        writers = {
            "trace": lambda key: disk_cache.store_trace(
                key, [(0, -1, -1, -1, -1, -1, 0)]
            ),
            "stats": lambda key: disk_cache.store_stats(key, SimStats()),
            "facts": lambda key: disk_cache.store_facts(key, FACTS),
            "golden": lambda key: disk_cache.store_golden(key, {"g": key}),
            "vuln": lambda key: disk_cache.store_vuln(key, {"uid": UID}),
        }
        assert set(writers) == set(ArtifactCache.KINDS)
        # A distinct count per kind, so no kind is counted as another.
        want = {kind: n for n, kind in enumerate(ArtifactCache.KINDS, 1)}
        for kind, n in want.items():
            for i in range(n):
                writers[kind](f"{i}" * 40)
        disk_cache.generation_path.write_text("0\n")  # not an artifact
        info = disk_cache.info()
        assert {kind: info[artifacts.plural(kind)] for kind in want} == want
        assert info["artifacts"] == sum(want.values())
        assert set(info["bytes_by_kind"]) == set(want)
        assert disk_cache.clear() == sum(want.values())
        assert disk_cache.artifact_paths() == []
        assert disk_cache.generation_path.exists()

    def test_stale_codegen_modules_are_cleared(self, disk_cache):
        # Modules of the retired codegen backend are no artifact kind,
        # yet clear and a generation change must still reclaim them.
        def seed():
            (disk_cache.root / f"codegen-{'a' * 40}.py").write_text("# m\n")

        keep = disk_cache.root / "codegen-notes.py"
        keep.write_text("# not an artifact\n")
        seed()
        assert disk_cache.clear() == 1
        seed()
        disk_cache.generation_path.write_text("0\n")  # a dead generation
        assert disk_cache.sync_generation() == 1
        assert sorted(p.name for p in disk_cache.root.iterdir()) == [
            "GENERATION", "codegen-notes.py",
        ]

    def test_default_disabled_by_env(self, monkeypatch):
        for value in ("0", "off", "none", ""):
            monkeypatch.setenv("REPRO_CACHE_DIR", value)
            assert ArtifactCache.default() is None

    def test_default_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "c"))
        cache = ArtifactCache.default()
        assert cache is not None
        assert cache.root == tmp_path / "c"

    def test_code_digest_stable(self):
        assert artifacts.code_digest() == artifacts.code_digest()
        assert len(artifacts.code_digest()) == 64


def _hammer_stats(root: str, key: str, rounds: int) -> None:
    """Child-process body: repeatedly rewrite one stats key."""
    cache = ArtifactCache(root)
    for i in range(rounds):
        cache.store_stats(
            key, SimStats(cycles=float(i + 1), instructions=i, cache={})
        )


def _hammer_trace(root: str, key: str, rounds: int) -> None:
    """Child-process body: repeatedly rewrite one trace key."""
    cache = ArtifactCache(root)
    trace = [(i, -1, -1, -1, -1, -1, 0) for i in range(64)]
    for _ in range(rounds):
        cache.store_trace(key, trace)


class TestConcurrentAccess:
    """Multiple *processes* writing the same key must never corrupt it:
    every concurrent load observes either a miss or one writer's
    complete artifact, never interleaved bytes. This is the contract
    the service's shared worker pool (and ``repro serve`` generally)
    leans on."""

    def _spawn(self, target, root, key, procs=3, rounds=40):
        ctx = multiprocessing.get_context()
        children = [
            ctx.Process(target=target, args=(str(root), key, rounds))
            for _ in range(procs)
        ]
        for child in children:
            child.start()
        return children

    def test_same_key_stats_writers_never_corrupt(self, disk_cache):
        key = "f" * 40
        children = self._spawn(_hammer_stats, disk_cache.root, key)
        try:
            # hammer loads while the writers race each other
            for _ in range(300):
                stats = disk_cache.load_stats(key)
                if stats is not None:
                    assert stats.cycles == float(stats.instructions + 1)
                if not any(c.is_alive() for c in children):
                    break
        finally:
            for child in children:
                child.join(timeout=60)
        assert all(c.exitcode == 0 for c in children)
        final = disk_cache.load_stats(key)
        assert final is not None and final.cycles == 40.0
        # no temp-file litter left behind by the atomic-write protocol
        assert not list(disk_cache.root.glob(".tmp-*"))

    def test_same_key_trace_writers_never_corrupt(self, disk_cache):
        key = "e" * 40
        children = self._spawn(_hammer_trace, disk_cache.root, key, rounds=20)
        try:
            for _ in range(300):
                trace = disk_cache.load_trace(key)
                if trace is not None:
                    assert len(trace) == 64
                    assert trace[63][0] == 63
                if not any(c.is_alive() for c in children):
                    break
        finally:
            for child in children:
                child.join(timeout=60)
        assert all(c.exitcode == 0 for c in children)
        assert len(disk_cache.load_trace(key)) == 64


class TestEntriesAndInfoDeterminism:
    def test_entries_sorted_and_complete(self, disk_cache):
        # insertion order deliberately scrambled vs (kind, key) order
        disk_cache.store_trace("b" * 40, [(0, -1, -1, -1, -1, -1, 0)])
        disk_cache.store_stats("z" * 40, SimStats(cycles=1.0))
        disk_cache.store_stats("a" * 40, SimStats(cycles=2.0))
        entries = disk_cache.entries()
        assert [(k, key) for k, key, _ in entries] == [
            ("stats", "a" * 40),
            ("stats", "z" * 40),
            ("trace", "b" * 40),
        ]
        assert all(size > 0 for _, _, size in entries)
        assert entries == disk_cache.entries()  # stable across calls

    def test_cache_info_cli_is_diffable(self, monkeypatch, capsys, tmp_path):
        """`repro cache info --list --json` must emit byte-identical
        output across invocations so CI can diff it."""
        from repro.__main__ import main as cli_main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cli-cache"))
        cache = ArtifactCache.default()
        cache.store_stats("c" * 40, SimStats(cycles=3.0))
        cache.store_trace("d" * 40, [(1, -1, -1, -1, -1, -1, 0)])

        outputs = []
        for _ in range(2):
            assert cli_main(["cache", "info", "--list", "--json"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        payload = json.loads(outputs[0])
        assert [e["key"] for e in payload["entries"]] == ["c" * 40, "d" * 40]
        assert payload["artifacts"] == 2
        # and the plain-text listing is sorted the same way
        assert cli_main(["cache", "info", "--list"]) == 0
        text = capsys.readouterr().out
        assert text.index("c" * 40) < text.index("d" * 40)

    def test_cache_info_text_counts_every_kind(
        self, monkeypatch, capsys, tmp_path
    ):
        from repro.__main__ import main as cli_main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cli-cache"))
        cache = ArtifactCache.default()
        cache.store_facts("f" * 40, FACTS)
        cache.store_vuln("v" * 40, {"uid": UID})
        assert cli_main(["cache", "info"]) == 0
        assert (
            "artifacts: 2 (0 traces, 0 stats, 1 facts, 0 goldens, "
            "1 vulns)"
        ) in capsys.readouterr().out


class TestRunCachePersistence:
    def test_warm_disk_cache_skips_recompute(self, disk_cache, monkeypatch):
        config = _baseline_config()
        hardware = ResilienceHardwareConfig.baseline()
        cold = RunCache(persistent=disk_cache)
        want = cold.stats(UID, config, hardware)
        want_facts = cold.program_facts(UID, config)

        # A fresh in-process cache over the same disk layer must serve
        # the stats, the program facts and the prepared trace without
        # ever building a workload, compiling, tallying a trace or
        # running a timing lane again.
        import repro.harness.runner as runner_mod

        def boom(*args, **kwargs):
            raise AssertionError("recompute attempted on a warm cache")

        monkeypatch.setattr(runner_mod, "build_workload", boom)
        monkeypatch.setattr(runner_mod, "compile_baseline", boom)
        monkeypatch.setattr(runner_mod, "compile_program", boom)
        monkeypatch.setattr(runner_mod, "TraceSummary", boom)
        monkeypatch.setattr(runner_mod, "run_lanes", boom)
        warm = RunCache(persistent=disk_cache)
        assert warm.stats(UID, config, hardware) == want
        assert warm.program_facts(UID, config) == want_facts
        run = warm.prepared(UID, config)
        assert run.trace  # served from disk
        assert want_facts.committed == TraceSummary(run.trace).committed

    def test_program_facts_match_their_sources(self):
        cache = RunCache(persistent=None)
        config = turnpike_scheme()[0]
        facts = cache.program_facts(UID, config)
        summary = TraceSummary(cache.prepared(UID, config).trace)
        assert facts == ProgramFacts(
            code_size_bytes=cache.compiled_program(UID, config).code_size_bytes,
            committed=summary.committed,
            checkpoints=summary.checkpoints,
            spill_stores=summary.spill_stores,
            all_stores=summary.all_stores,
        )
        assert cache.program_facts(UID, config) is facts  # memoised
        cache.clear()
        assert not cache._facts

    def test_corrupt_facts_are_recomputed(self, disk_cache):
        config = _baseline_config()
        want = RunCache(persistent=disk_cache).program_facts(UID, config)
        path = disk_cache.root / f"facts-{disk_cache.facts_key(UID, config)}.json"
        path.write_text("{nope")
        assert RunCache(persistent=disk_cache).program_facts(UID, config) == want
        assert disk_cache.load_facts(disk_cache.facts_key(UID, config)) == want

    def test_clear_keeps_disk_layer(self, disk_cache):
        config = _baseline_config()
        cache = RunCache(persistent=disk_cache)
        cache.prepared(UID, config)
        n_artifacts = len(disk_cache.artifact_paths())
        assert n_artifacts > 0
        cache.clear()
        assert not cache._workloads
        assert not cache._prepared
        assert not cache._stats
        assert len(disk_cache.artifact_paths()) == n_artifacts

    def test_stats_returns_defensive_copies(self):
        cache = RunCache(persistent=None)
        config = _baseline_config()
        hardware = ResilienceHardwareConfig.baseline()
        first = cache.stats(UID, config, hardware)
        first.cycles = -1.0
        first.cache["poison"] = 1
        second = cache.stats(UID, config, hardware)
        assert second.cycles > 0
        assert "poison" not in second.cache

    def test_concurrent_prepared_and_clear(self, disk_cache):
        """Thread-hammer: concurrent prepared()/stats()/clear() must not
        corrupt the cache or produce divergent results."""
        cache = RunCache(persistent=disk_cache)
        config = _baseline_config()
        hardware = ResilienceHardwareConfig.baseline()
        want = cache.stats(UID, config, hardware)
        errors: list[BaseException] = []
        barrier = threading.Barrier(6)

        def worker():
            try:
                barrier.wait()
                for _ in range(5):
                    run = cache.prepared(UID, config)
                    assert run.uid == UID and run.trace
                    assert cache.stats(UID, config, hardware) == want
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        def clearer():
            try:
                barrier.wait()
                for _ in range(10):
                    cache.clear()
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(5)]
        threads.append(threading.Thread(target=clearer))
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors

    def test_prepared_identity_memoised(self):
        cache = RunCache(persistent=None)
        config = _baseline_config()
        assert cache.prepared(UID, config) is cache.prepared(UID, config)


class TestSharding:
    def test_resolve_workers(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers(None) == 1
        assert resolve_workers(3) == 3
        monkeypatch.setenv("REPRO_WORKERS", "5")
        assert resolve_workers(None) == 5
        assert resolve_workers(2) == 2
        monkeypatch.setenv("REPRO_WORKERS", "junk")
        assert resolve_workers(None) == 1
        assert resolve_workers(0) >= 1  # one per CPU

    def test_warm_suite_quick(self, monkeypatch, tmp_path):
        # GLOBAL_CACHE binds its persistent layer at import time, so the
        # sequential path needs the instance swapped, not just the env.
        import repro.harness.runner as runner_mod

        disk = ArtifactCache(tmp_path / "warm-cache")
        monkeypatch.setattr(
            runner_mod, "GLOBAL_CACHE", RunCache(persistent=disk)
        )
        results = warm_suite([UID], workers=1)
        assert set(results) == {
            (UID, "baseline"), (UID, "turnstile"), (UID, "turnpike")
        }
        assert all(s.cycles > 0 for s in results.values())
        # The persistent layer now holds every artefact: one trace per
        # scheme, and each point's stats under its sweep key and its
        # config key.
        info = disk.info()
        assert info["traces"] == 3 and info["stats"] == 6


class TestShardMerge:
    def test_simstats_merge_sums_and_weights(self):
        a = SimStats(
            cycles=100.0, instructions=50, sb_stall_cycles=4.0,
            stores_total=5, regions=10, clq_occupancy_avg=2.0,
            clq_occupancy_max=4, branch_mispredictions=3,
            cache={"hits": 10},
        )
        b = SimStats(
            cycles=50.0, instructions=25, sb_stall_cycles=1.0,
            stores_total=2, regions=30, clq_occupancy_avg=4.0,
            clq_occupancy_max=3, branch_mispredictions=1,
            cache={"hits": 5, "misses": 2},
        )
        merged = merge_stats([a, b])
        assert merged.cycles == 150.0
        assert merged.instructions == 75
        assert merged.sb_stall_cycles == 5.0
        assert merged.stores_total == 7
        assert merged.regions == 40
        # region-weighted: (2*10 + 4*30) / 40
        assert merged.clq_occupancy_avg == pytest.approx(3.5)
        assert merged.clq_occupancy_max == 4
        assert merged.branch_mispredictions == 4
        assert merged.cache == {"hits": 15, "misses": 2}
        # merge_stats builds a fresh object; inputs are untouched
        assert a.cycles == 100.0 and b.cycles == 50.0

    def test_merge_stats_empty_raises(self):
        with pytest.raises(ValueError):
            merge_stats([])

    def test_merge_in_place_returns_self(self):
        a, b = SimStats(cycles=1.0), SimStats(cycles=2.0)
        assert a.merge(b) is a
        assert a.cycles == 3.0

    def test_clq_stats_merge(self):
        a = CLQStats(
            loads_inserted=5, war_checks=3, war_conflicts=1,
            occupancy_samples=2, occupancy_sum=6, occupancy_max=4,
        )
        b = CLQStats(
            loads_inserted=1, war_checks=2, war_conflicts=2, overflows=1,
            occupancy_samples=3, occupancy_sum=3, occupancy_max=2,
        )
        merged = a.merge(b)
        assert merged is a
        assert merged.loads_inserted == 6
        assert merged.war_checks == 5
        assert merged.war_conflicts == 3
        assert merged.overflows == 1
        assert merged.occupancy_max == 4
        assert merged.occupancy_avg == pytest.approx(9 / 5)
