"""Parallel, resumable differential campaigns.

The determinism contract under test: every injection derives from
``(seed, index)`` alone, shards partition the index space statically,
and aggregation sorts by index — so worker count, shard interleaving,
and kill/resume cycles must all be invisible in the aggregate JSON
(byte-identical output).
"""

import json
import shutil
from collections import Counter

import pytest

import repro.faults.campaign as campaign_module
from repro.__main__ import main as cli_main
from repro.faults.campaign import (
    VARIANT_CONFIGS,
    AccelOptions,
    CampaignRunner,
    CampaignSpec,
    format_differential_report,
)
from repro.harness.artifacts import ArtifactCache

SPEC = CampaignSpec(
    uid="CPU2006.bzip2",
    wcdl=10,
    count=9,
    seed=77,
    targets=("register", "clq", "coloring"),
    shard_size=3,
)


@pytest.fixture(scope="module")
def report():
    """One serial, manifest-less run of the reference campaign."""
    return CampaignRunner(SPEC).run()


class TestDeterminism:
    def test_parallel_run_is_byte_identical_to_serial(self, report):
        parallel = CampaignRunner(SPEC).run(workers=2)
        assert parallel.to_json() == report.to_json()

    def test_resumed_run_is_byte_identical(self, report, tmp_path):
        manifest = tmp_path / "campaign.json"
        first = CampaignRunner(SPEC, manifest_path=manifest).run()
        assert first.to_json() == report.to_json()

        # Simulate a kill after some shards: drop one finished shard
        # from the manifest, then resume.
        state = json.loads(manifest.read_text())
        assert set(state["shards"]) == {"0", "1", "2"}
        del state["shards"]["1"]
        manifest.write_text(json.dumps(state))

        resumed = CampaignRunner(SPEC, manifest_path=manifest).run(resume=True)
        assert resumed.to_json() == report.to_json()

    def test_resume_refuses_mismatched_spec(self, tmp_path):
        manifest = tmp_path / "campaign.json"
        other = CampaignSpec(
            uid=SPEC.uid,
            wcdl=SPEC.wcdl,
            count=SPEC.count,
            seed=SPEC.seed + 1,
            targets=SPEC.targets,
            shard_size=SPEC.shard_size,
        )
        manifest.write_text(json.dumps({"spec": other.to_dict(), "shards": {}}))
        with pytest.raises(ValueError, match="refusing to resume"):
            CampaignRunner(SPEC, manifest_path=manifest).run(resume=True)

    def test_progress_callback_sees_every_shard(self, tmp_path):
        calls = []
        CampaignRunner(SPEC).run(progress=lambda d, t: calls.append((d, t)))
        assert calls == [(1, 3), (2, 3), (3, 3)]


class TestAccelInvisibility:
    """Snapshot acceleration must be observationally invisible: the
    aggregate JSON may not depend on whether acceleration was on, what
    snapshot interval was used, or when the campaign was interrupted.
    (The module-scope ``report`` fixture runs with the default
    ``AccelOptions()``, i.e. acceleration ON.)"""

    def test_accel_off_is_byte_identical(self, report):
        off = CampaignRunner(SPEC, accel=AccelOptions(enabled=False)).run()
        assert off.to_json() == report.to_json()

    def test_odd_snapshot_interval_is_byte_identical(self, report):
        odd = CampaignRunner(
            SPEC, accel=AccelOptions(snapshot_interval=37)
        ).run()
        assert odd.to_json() == report.to_json()

    def test_fingerprints_only_is_byte_identical(self, report):
        # interval <= 0: convergence early-exit without fast-forward.
        fp_only = CampaignRunner(
            SPEC, accel=AccelOptions(snapshot_interval=0)
        ).run()
        assert fp_only.to_json() == report.to_json()

    def test_killed_accelerated_campaign_resumes_identically(
        self, report, tmp_path
    ):
        manifest = tmp_path / "campaign.json"
        first = CampaignRunner(SPEC, manifest_path=manifest).run()
        assert first.to_json() == report.to_json()

        state = json.loads(manifest.read_text())
        del state["shards"]["2"]
        manifest.write_text(json.dumps(state))

        # Resume with a *different* accel setting than the original run:
        # the manifest does not record acceleration (it cannot affect
        # outcomes), so this must still be byte-identical.
        resumed = CampaignRunner(
            SPEC,
            manifest_path=manifest,
            accel=AccelOptions(enabled=False),
        ).run(resume=True)
        assert resumed.to_json() == report.to_json()

    def test_tiny_step_budget_degrades_identically(self):
        # A budget below the fault-free run length means no golden record
        # can be built; acceleration must silently fall back to the
        # from-scratch path rather than crash during prewarm.
        tiny = CampaignSpec(
            uid=SPEC.uid,
            wcdl=SPEC.wcdl,
            count=3,
            seed=SPEC.seed,
            targets=("register",),
            shard_size=3,
            max_steps=50,
        )
        on = CampaignRunner(tiny).run()
        off = CampaignRunner(tiny, accel=AccelOptions(enabled=False)).run()
        assert on.to_json() == off.to_json()
        assert all(
            hist["timeout"] == 3 for hist in on.per_variant().values()
        )


class TestGoldenStreams:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_stream_per_program_and_step_budget(
        self, monkeypatch, tmp_path, workers
    ):
        """A campaign records one full golden stream per (uid, max_steps)
        and feeds it to every other variant's recording; forked workers
        record nothing. Recordings are logged to a file, which the
        workers' appends reach too."""
        log = tmp_path / "recordings.log"
        record = campaign_module.record_golden_run

        def logged(*args, stream=None, **kwargs):
            with open(log, "a") as fh:
                kind = "full" if stream is None else "fed"
                fh.write(f"{kind} {kwargs['max_steps']}\n")
            return record(*args, stream=stream, **kwargs)

        monkeypatch.setattr(campaign_module, "record_golden_run", logged)
        monkeypatch.setattr(campaign_module, "_GOLDEN_CACHE", {})
        monkeypatch.setenv("REPRO_CACHE_DIR", "off")
        budgets = (4_000_000, 3_000_000)
        for max_steps in budgets:
            spec = CampaignSpec(
                uid=SPEC.uid,
                count=4,
                seed=SPEC.seed,
                targets=("register",),
                shard_size=2,
                max_steps=max_steps,
            )
            CampaignRunner(spec).run(workers=workers)
        variants = len(SPEC.variants)
        assert Counter(log.read_text().splitlines()) == {
            line: count
            for max_steps in budgets
            for line, count in (
                (f"full {max_steps}", 1), (f"fed {max_steps}", variants - 1)
            )
        }


@pytest.fixture(scope="module")
def filled_cache(tmp_path_factory):
    """An artifact cache filled by `repro inject CPU2006.bzip2 --count 4
    --seed 7`: one golden-*.pkl per variant."""
    root = tmp_path_factory.mktemp("filled-cache")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_CACHE_DIR", str(root))
        mp.setattr(campaign_module, "_GOLDEN_CACHE", {})
        args = ["inject", "CPU2006.bzip2", "--count", "4", "--seed", "7"]
        assert cli_main(args) == 0
    assert len(list(root.glob("golden-*.pkl"))) == len(SPEC.variants)
    return root


class TestLoadedGoldenRecords:
    SPEC = CampaignSpec(uid="CPU2006.bzip2", count=4, seed=7)
    STREAM_FIELDS = (
        "align_index", "reg_hashes", "tick_steps", "mem_hashes", "loads",
        "stores",
    )

    @pytest.fixture
    def cache(self, filled_cache, tmp_path, monkeypatch, capsys):
        """A copy of the filled cache, an empty per-process memo, and a
        log of the golden recordings made."""
        root = tmp_path / "cache"
        shutil.copytree(filled_cache, root)
        capsys.readouterr()
        monkeypatch.setenv("REPRO_CACHE_DIR", str(root))
        monkeypatch.setattr(campaign_module, "_GOLDEN_CACHE", {})
        self.recorded = []
        record = campaign_module.record_golden_run

        def logged(*args, stream=None, **kwargs):
            self.recorded.append(stream)
            return record(*args, stream=stream, **kwargs)

        monkeypatch.setattr(campaign_module, "record_golden_run", logged)
        return ArtifactCache(root)

    def load(self, variant):
        return campaign_module._golden_record(
            self.SPEC, variant, AccelOptions().snapshot_interval
        )

    def test_records_loaded_from_disk_share_one_stream(self, cache):
        first, *others = map(self.load, self.SPEC.variants)
        assert self.recorded == []
        for record in others:
            assert record.tick_steps is first.tick_steps
            for name in self.STREAM_FIELDS:
                assert getattr(record, name) is getattr(first, name)
            assert record.snapshots is not first.snapshots

    def test_loaded_record_with_another_stream_is_rebuilt(self, cache):
        first_variant, variant = self.SPEC.variants[:2]
        key = ArtifactCache.golden_key(
            self.SPEC.uid,
            VARIANT_CONFIGS[variant](self.SPEC.wcdl),
            AccelOptions().snapshot_interval,
            self.SPEC.max_steps,
        )
        foreign = cache.load_golden(key)
        foreign.mem_hashes[5] ^= 1
        cache.store_golden(key, foreign)

        first = self.load(first_variant)
        rebuilt = self.load(variant)
        assert len(self.recorded) == 1 and self.recorded[0] is first
        assert rebuilt.mem_hashes is first.mem_hashes
        assert cache.load_golden(key).mem_hashes == first.mem_hashes


class TestDifferentialResults:
    def test_turnpike_contains_every_strike(self, report):
        hist = report.per_variant()["turnpike"]
        assert hist["sdc"] == 0
        assert hist["protocol_bug"] == 0
        assert hist["timeout"] == 0

    def test_unsafe_variant_shows_figure16_sdc(self, report):
        assert report.per_variant()["unsafe"]["sdc"] > 0

    def test_divergences_isolate_the_protocol_difference(self, report):
        divergent = report.divergences()
        assert divergent, "safe and unsafe variants should diverge"
        for entry in divergent:
            kinds = set(entry["kinds"].values())
            assert len(kinds) > 1
            assert 0 <= entry["index"] < SPEC.count

    def test_per_target_covers_requested_structures(self, report):
        per_target = report.per_target()
        assert set(per_target) == set(SPEC.targets)
        for variant_hists in per_target.values():
            assert set(variant_hists) == set(SPEC.variants)
        total = sum(
            sum(hist.values())
            for variant_hists in per_target.values()
            for hist in variant_hists.values()
        )
        assert total == SPEC.count * len(SPEC.variants)

    def test_format_report_mentions_variants_and_structures(self, report):
        text = format_differential_report(report)
        for variant in SPEC.variants:
            assert variant in text
        assert "per-structure" in text
        assert "divergent" in text


class TestSpecValidation:
    def test_unknown_target_rejected(self):
        with pytest.raises(ValueError):
            CampaignSpec(uid="CPU2006.bzip2", targets=("flux_capacitor",))

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="variant"):
            CampaignSpec(uid="CPU2006.bzip2", variants=("turnpikee",))

    def test_degenerate_counts_rejected(self):
        with pytest.raises(ValueError):
            CampaignSpec(uid="CPU2006.bzip2", count=0)
        with pytest.raises(ValueError):
            CampaignSpec(uid="CPU2006.bzip2", shard_size=0)

    def test_spec_round_trips_through_dict(self):
        assert CampaignSpec.from_dict(SPEC.to_dict()) == SPEC

    def test_shards_partition_the_index_space(self):
        shards = SPEC.shards()
        flat = [i for shard in shards for i in shard]
        assert flat == list(range(SPEC.count))
        assert all(len(shard) <= SPEC.shard_size for shard in shards)


class TestInjectCLI:
    def test_inject_with_manifest_and_export(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        export = tmp_path / "agg.json"
        rc = cli_main(
            [
                "inject", "CPU2006.bzip2",
                "--count", "3", "--seed", "7",
                "--targets", "register",
                "--variants", "turnpike,unsafe",
                "--shard-size", "2",
                "--manifest", str(manifest),
                "--export", str(export),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "turnpike" in out and "unsafe" in out
        aggregate = json.loads(export.read_text())
        assert aggregate["spec"]["count"] == 3
        assert set(aggregate["per_variant"]) == {"turnpike", "unsafe"}
        # Re-running with --resume finds everything done in the manifest.
        rc = cli_main(
            [
                "inject", "CPU2006.bzip2",
                "--count", "3", "--seed", "7",
                "--targets", "register",
                "--variants", "turnpike,unsafe",
                "--shard-size", "2",
                "--manifest", str(manifest),
                "--resume",
                "--export", str(export),
            ]
        )
        assert rc == 0
        assert json.loads(export.read_text()) == aggregate

    def test_resume_without_manifest_is_an_error(self):
        assert cli_main(["inject", "CPU2006.bzip2", "--resume"]) == 2

    def test_unknown_target_is_an_error(self):
        assert cli_main(["inject", "--targets", "flux_capacitor"]) == 2
