"""Command-line interface: ``python -m repro <command> ...``.

Commands:
  list                       — list the 36 benchmarks
  run <uid> [--wcdl N] [--sb N] [--scheme turnpike|turnstile|baseline]
      [--backend fast|reference]
                             — compile + simulate one benchmark
  inject [uid] [--count N] [--wcdl N] [--targets a,b] [--workers N]
         [--manifest PATH] [--resume] [--export PATH]
         [--accel on|off] [--snapshot-interval N]
         [--sample] [--ci-width W] [--confidence C] [--token-rate N]
                             — differential fault-injection campaign
                               across protocol variants (parallel,
                               resumable via the manifest; snapshot
                               acceleration on by default and
                               observationally invisible; --sample
                               switches to stratified importance
                               sampling over the vulnerability map,
                               reporting AVF with a confidence interval
                               instead of per-index records)
  vuln [uid] [--scheme S] [--wcdl N] [--variants a,b]
       [--format text|json] [--no-cache]
       [--validate [--seed N] [--ci-width W]]
                             — bit-level vulnerability analysis: the
                               masked/vulnerable/unknown breakdown per
                               structure, or (--validate) the
                               sampled-vs-exhaustive cross-check on
                               quick benchmarks
  lint <uid>|--all [--scheme S] [--sb N] [--format text|json|sarif]
       [--no-differential] [--strict] [--output PATH] [--workers N]
                             — static resilience verifier over compiled
                               benchmarks (exit 0 clean, 1 findings,
                               2 usage); --workers shards --all across
                               processes
  figure <id>                — regenerate one figure/table on the full
                               suite (fig4, fig14, fig15, fig18, fig19,
                               fig20, fig21, fig22, fig23, fig24, fig25,
                               fig26, table1)
  cache info|clear|warm|prune [--workers N] [--list] [--json]
                             — inspect, empty, pre-populate, or
                               generation-sync the persistent
                               simulation artifact cache (info output
                               is deterministically ordered; --list
                               enumerates artifacts sorted by key;
                               prune drops artifacts from dead source
                               generations)
  sensors [--clock GHZ]      — sensor-count vs WCDL table
  serve [--port P] [--workers N] [--queue-limit N] [--journal DIR]
                             — run the async batch job service
                               (HTTP/JSON; queue + dedup + crash-safe
                               journal; drains gracefully on SIGTERM)
  submit run|inject|lint|vuln ... [--wait] [--priority P]
         [--endpoint H:P]   — submit a job to a running service
  jobs [--json] [--mine]     — list service jobs
  result <job-id> [--wait]   — fetch a job's output (exits with the
                               job's own exit code)
"""

from __future__ import annotations

import argparse
import sys


def _cmd_list(_args) -> int:
    from repro.workloads.suites import all_profiles

    for prof in all_profiles():
        print(f"{prof.uid:24s} {prof.notes}")
    return 0


def _cmd_run(args) -> int:
    from repro.harness.runner import run_report_text

    print(
        run_report_text(
            args.uid,
            scheme=args.scheme,
            wcdl=args.wcdl,
            sb_size=args.sb,
            backend=args.backend,
        )
    )
    return 0


def _cmd_inject(args) -> int:
    from repro.faults.campaign import (
        AccelOptions,
        CampaignSpec,
        execute_campaign,
    )

    targets = tuple(t.strip() for t in args.targets.split(",") if t.strip())
    variants = tuple(v.strip() for v in args.variants.split(",") if v.strip())
    try:
        spec = CampaignSpec(
            uid=args.uid,
            wcdl=args.wcdl,
            count=args.count,
            seed=args.seed,
            targets=targets,
            variants=variants,
            shard_size=args.shard_size,
            ecc=args.ecc,
            upset=args.upset,
        )
    except ValueError as exc:
        print(f"invalid campaign: {exc}", file=sys.stderr)
        return 2
    if args.resume and args.manifest is None:
        print("--resume requires --manifest", file=sys.stderr)
        return 2

    if args.snapshot_interval is None:
        accel = AccelOptions(enabled=args.accel == "on")
    else:
        accel = AccelOptions(
            enabled=args.accel == "on",
            snapshot_interval=args.snapshot_interval,
        )
    sampling = None
    if args.sample:
        if args.resume or args.manifest:
            print(
                "inject: --sample is adaptive and incompatible with "
                "--resume/--manifest",
                file=sys.stderr,
            )
            return 2
        from repro.faults.sampling import SamplingOptions

        try:
            sampling = SamplingOptions(
                enabled=True,
                ci_width=args.ci_width,
                confidence=args.confidence,
                token_rate=args.token_rate,
            )
        except ValueError as exc:
            print(f"invalid sampling options: {exc}", file=sys.stderr)
            return 2
    try:
        _report, text = execute_campaign(
            spec,
            manifest_path=args.manifest,
            accel=accel,
            workers=args.workers,
            resume=args.resume,
            export_path=args.export,
            progress=lambda done, total: print(
                f"  shard {done}/{total} done", file=sys.stderr
            ),
            sampling=sampling,
        )
    except ValueError as exc:  # e.g. manifest/spec mismatch on --resume
        print(f"cannot run campaign: {exc}", file=sys.stderr)
        return 2
    print(text)
    if args.export:
        print(f"aggregate written to {args.export}", file=sys.stderr)
    return 0


_VALIDATE_QUICK = ("SPLASH3.radix", "CPU2006.gcc", "CPU2017.exchange2")


def _cmd_vuln(args) -> int:
    import json as _json

    if args.validate:
        from repro.faults.sampling import validate_benchmark

        uids = [args.uid] if args.uid else list(_VALIDATE_QUICK)
        results = []
        for uid in uids:
            try:
                result = validate_benchmark(
                    uid,
                    wcdl=args.wcdl,
                    seed=args.seed,
                    ci_width=args.ci_width,
                    use_cache=not args.no_cache,
                )
            except (KeyError, ValueError) as exc:
                print(f"vuln: cannot validate {uid}: {exc}", file=sys.stderr)
                return 2
            results.append(result)
        if args.format == "json":
            print(_json.dumps(
                {"results": [r.to_dict() for r in results],
                 "ok": all(r.ok for r in results)},
                indent=2, sort_keys=True,
            ))
        else:
            for result in results:
                print(result.render_text())
        return 0 if all(r.ok for r in results) else 1

    if not args.uid:
        print("vuln: need a benchmark uid (or --validate)", file=sys.stderr)
        return 2
    from repro.verify.vuln import vulnerability_map

    variants = tuple(
        v.strip() for v in args.variants.split(",") if v.strip()
    )
    try:
        vmap = vulnerability_map(
            args.uid,
            scheme=args.scheme,
            wcdl=args.wcdl,
            variants=variants,
            use_cache=not args.no_cache,
        )
    except (KeyError, ValueError) as exc:
        print(f"vuln: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(_json.dumps(vmap.to_dict(), indent=2, sort_keys=True))
    else:
        print(vmap.render_text())
    return 0


def _cmd_lint(args) -> int:
    from repro.verify.lint import run_lint

    return run_lint(args)


def _cmd_figure(args) -> int:
    from repro.harness import experiments as exp
    from repro.harness import reporting as rep

    fid = args.id.lower()
    if fid in ("fig4", "fig04"):
        result = exp.fig04_checkpoint_ratio()
        print(rep.format_series_table(
            [result[40], result[4]], value_format="{:.3f}", aggregate="mean",
            title="Figure 4 - checkpoint ratio vs SB size"))
    elif fid in ("fig14", "fig15"):
        result = exp.fig14_fig15_clq_designs()
        key = "overhead" if fid == "fig14" else "warfree_ratio"
        print(rep.format_series_table(
            [result[key]["ideal"], result[key]["compact"]],
            value_format="{:.3f}",
            title=f"Figure {fid[3:]} - ideal vs compact CLQ"))
    elif fid == "fig18":
        for clock, points in exp.fig18_sensor_latency().items():
            print(f"{clock} GHz: " + "  ".join(f"{n}->{lat:.1f}cy" for n, lat in points))
    elif fid == "fig19":
        result = exp.fig19_turnpike_wcdl()
        print(rep.format_series_table(
            [result[w] for w in sorted(result)],
            title="Figure 19 - Turnpike overhead vs WCDL"))
    elif fid == "fig20":
        result = exp.fig20_turnstile_wcdl()
        print(rep.format_series_table(
            [result[w] for w in sorted(result)],
            title="Figure 20 - Turnstile overhead vs WCDL"))
    elif fid == "fig21":
        print(rep.format_series_table(
            exp.fig21_ablation(), title="Figure 21 - optimization ablation"))
    elif fid == "fig22":
        result = exp.fig22_sb_sensitivity()
        series = [result["turnstile"][s] for s in sorted(result["turnstile"])]
        series += [result["turnpike"][s] for s in sorted(result["turnpike"])]
        print(rep.format_series_table(series, title="Figure 22 - SB sensitivity"))
    elif fid == "fig23":
        breakdown = exp.fig23_store_breakdown()
        print(rep.format_breakdown_table(breakdown))
        means = exp.breakdown_means(breakdown)
        print("means:", "  ".join(f"{k}={100 * v:.1f}%" for k, v in means.items()))
    elif fid == "fig24":
        print(rep.format_mapping_table(
            exp.fig24_clq_occupancy(), headers=("average", "maximum"),
            title="Figure 24 - CLQ occupancy"))
    elif fid == "fig25":
        result = exp.fig25_clq_size()
        print(rep.format_series_table(
            [result[2], result[4]], value_format="{:.3f}",
            title="Figure 25 - CLQ-2 vs CLQ-4"))
    elif fid == "fig26":
        data = exp.fig26_region_codesize()
        print(rep.format_mapping_table(
            {k: (v[0], 100 * v[1]) for k, v in data.items()},
            headers=("region size", "growth %"),
            title="Figure 26 - region size / code growth"))
    elif fid == "table1":
        print(rep.format_table1(exp.table1_hw_cost()))
    else:
        print(f"unknown figure id {args.id!r}", file=sys.stderr)
        return 2
    return 0


_SWEEP_ALIASES = {
    "fig4": "fig04", "fig14": "fig14_15", "fig15": "fig14_15",
}


def _sweep_json(name: str, result) -> object:
    """Plain-data projection of one figure result for --json output."""
    from repro.harness.experiments import Series

    def plain(value):
        if isinstance(value, Series):
            return {
                "name": value.name,
                "per_benchmark": value.per_benchmark,
                "geomean": value.geomean,
            }
        if isinstance(value, dict):
            return {str(k): plain(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [plain(v) for v in value]
        if hasattr(value, "__dict__") and not isinstance(value, (int, float, str)):
            return {k: plain(v) for k, v in vars(value).items()}
        return value

    return plain(result)


def _sweep_ecc_fan(args) -> int:
    import json as _json
    import time

    from repro.faults.campaign import CampaignSpec
    from repro.harness.runner import resolve_workers
    from repro.harness.sweep import run_campaign_fan

    if args.figures:
        print(
            "sweep: --ecc-codes fans a fault campaign across codes; "
            "figure ids do not apply",
            file=sys.stderr,
        )
        return 2
    codes = tuple(c.strip() for c in args.ecc_codes.split(",") if c.strip())
    try:
        spec = CampaignSpec(
            uid=args.ecc_uid,
            wcdl=args.ecc_wcdl,
            count=args.ecc_count,
            seed=args.ecc_seed,
            targets=tuple(
                t.strip() for t in args.ecc_targets.split(",") if t.strip()
            ),
            variants=tuple(
                v.strip() for v in args.ecc_variants.split(",") if v.strip()
            ),
            upset=args.ecc_upset,
        )
    except ValueError as exc:
        print(f"sweep: invalid campaign: {exc}", file=sys.stderr)
        return 2
    workers = resolve_workers(args.workers)
    started = time.perf_counter()
    try:
        results = run_campaign_fan(
            spec,
            codes,
            workers=workers,
            progress=lambda label, done, total: print(
                f"  [{label}] shard {done}/{total} done", file=sys.stderr
            ),
        )
    except ValueError as exc:
        print(f"sweep: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - started
    if args.json:
        payload: dict = {
            label: {
                "spec": report.spec.to_dict(),
                "per_variant": report.per_variant(),
                "per_target": report.per_target(),
            }
            for label, (report, _text) in results.items()
        }
        payload["elapsed_seconds"] = round(elapsed, 3)
        print(_json.dumps(payload, indent=2, sort_keys=True))
        return 0
    for label, (_report, text) in results.items():
        print(f"=== code axis: {label} ===")
        print(text)
        print()
    print(
        f"fanned {len(results)} code point(s) in {elapsed:.1f}s "
        f"with {workers} worker(s)"
    )
    return 0


def _cmd_sweep(args) -> int:
    import json as _json
    import time

    from repro.harness import experiments as exp
    from repro.harness import reporting as rep
    from repro.harness.runner import resolve_workers

    if args.ecc_codes:
        return _sweep_ecc_fan(args)
    wanted = None
    if args.figures:
        wanted = tuple(
            dict.fromkeys(
                _SWEEP_ALIASES.get(fid.lower(), fid.lower())
                for fid in args.figures
            )
        )
    benchmarks = args.benchmarks.split(",") if args.benchmarks else None
    workers = resolve_workers(args.workers)
    started = time.perf_counter()
    try:
        results = exp.figure_suite(
            benchmarks, figures=wanted, workers=workers
        )
    except ValueError as exc:
        print(f"sweep: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - started
    if args.json:
        payload = {
            name: _sweep_json(name, result)
            for name, result in results.items()
        }
        payload["elapsed_seconds"] = round(elapsed, 3)
        print(_json.dumps(payload, indent=2, sort_keys=True, default=str))
        return 0
    print(rep.format_figure_suite(results), end="")
    print(
        f"swept {len(results)} figure(s) in {elapsed:.1f}s "
        f"with {workers} worker(s)"
    )
    return 0


def _cmd_ecc(args) -> int:
    from repro.ecc.explorer import (
        default_codes,
        default_structures,
        explore,
        format_points,
        pareto_frontier,
        points_to_json,
    )
    from repro.ecc.faultmodel import parse_patterns

    codes = (
        tuple(c.strip() for c in args.codes.split(",") if c.strip())
        if args.codes
        else default_codes()
    )
    structures = (
        tuple(s.strip() for s in args.structure.split(",") if s.strip())
        if args.structure
        else default_structures()
    )
    try:
        patterns = parse_patterns(args.patterns)
        interleave = (False, True) if args.interleave else (False,)
        points = explore(
            codes,
            structures,
            patterns,
            seed=args.seed,
            trials=args.trials,
            interleave_options=interleave,
        )
    except ValueError as exc:
        print(f"ecc: {exc}", file=sys.stderr)
        return 2
    frontier = pareto_frontier(points) if args.pareto else None
    if args.format == "json":
        print(points_to_json(points, frontier))
    else:
        print(format_points(points, frontier))
    return 0


def _cmd_cache(args) -> int:
    import json as _json

    from repro.harness.artifacts import ArtifactCache

    cache = ArtifactCache.default()
    if cache is None:
        print("persistent cache disabled (REPRO_CACHE_DIR=0)", file=sys.stderr)
        return 2
    if args.action == "info":
        info = cache.info()
        if args.json:
            if args.list:
                info["entries"] = [
                    {"kind": kind, "key": key, "bytes": size}
                    for kind, key, size in cache.entries()
                ]
            print(_json.dumps(info, indent=2, sort_keys=True))
            return 0
        from repro.harness.artifacts import human_size, plural

        by_kind = info["bytes_by_kind"]
        counts = ", ".join(
            f"{info[plural(kind)]} {plural(kind)}" for kind in cache.KINDS
        )
        print(f"location:  {info['root']}")
        print(f"artifacts: {info['artifacts']} ({counts})")
        for kind, size in by_kind.items():
            print(f"  {kind + ':':<9} {human_size(size)}")
        print(f"code hash: {info['code_digest']}")
        print(
            f"footprint: {human_size(info['bytes'])} total in "
            f"{info['artifacts']} artifact(s) at {info['root']}"
        )
        if args.list:
            for kind, key, size in cache.entries():
                print(f"{kind:<8} {key}  {human_size(size)}")
    elif args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached artifact(s) from {cache.root}")
    elif args.action == "prune":
        removed = cache.sync_generation()
        print(
            f"pruned {removed} dead-generation artifact(s) from "
            f"{cache.root} (generation {cache.info()['code_digest']})"
        )
    elif args.action == "warm":
        from repro.harness.runner import resolve_workers, warm_suite

        workers = resolve_workers(args.workers)
        print(
            f"warming benchmark x scheme matrix with {workers} worker(s)...",
            file=sys.stderr,
        )
        results = warm_suite(workers=workers)
        info = cache.info()
        print(
            f"warmed {len(results)} (benchmark, scheme) pairs; cache now "
            f"holds {info['artifacts']} artifacts "
            f"({info['bytes'] / 1024:.1f} KiB)"
        )
    return 0


def _cmd_sensors(args) -> int:
    from repro.sensors import (
        area_overhead_percent,
        detection_latency_cycles,
        sensors_for_wcdl,
    )

    print(f"{'WCDL (cycles)':>14}{'sensors':>9}{'area overhead':>15}")
    for wcdl in (10, 15, 20, 30, 40, 50):
        n = sensors_for_wcdl(float(wcdl), clock_ghz=args.clock)
        print(f"{wcdl:>14}{n:>9}{area_overhead_percent(n):>14.2f}%")
    print(
        f"\n(300 sensors -> {detection_latency_cycles(300, args.clock):.1f} "
        f"cycles at {args.clock} GHz)"
    )
    return 0


def _cmd_serve(args) -> int:
    from repro.service.server import serve

    return serve(args)


def _cmd_submit(args) -> int:
    from repro.service.client import cmd_submit

    return cmd_submit(args)


def _cmd_jobs(args) -> int:
    from repro.service.client import cmd_jobs

    return cmd_jobs(args)


def _cmd_result(args) -> int:
    from repro.service.client import cmd_result

    return cmd_result(args)


def _add_client_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--endpoint",
        default=None,
        help="service endpoint host:port (default: REPRO_SERVICE env or "
        "the endpoint file in the journal directory)",
    )
    parser.add_argument(
        "--journal",
        default=None,
        help="service journal directory used for endpoint discovery "
        "(default: REPRO_SERVICE_DIR or ~/.cache/repro-turnpike/service)",
    )
    parser.add_argument(
        "--client",
        default=None,
        help="client name for fairness/accounting (default: host:pid)",
    )
    parser.add_argument(
        "--no-handshake",
        action="store_true",
        help="skip the version/digest compatibility handshake warning",
    )


def build_parser() -> argparse.ArgumentParser:
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro", description="Turnpike reproduction toolkit"
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list benchmarks")

    run_p = sub.add_parser("run", help="compile + simulate one benchmark")
    run_p.add_argument("uid")
    run_p.add_argument("--wcdl", type=int, default=10)
    run_p.add_argument("--sb", type=int, default=4)
    run_p.add_argument(
        "--scheme",
        choices=("turnpike", "turnstile", "baseline"),
        default="turnpike",
    )
    run_p.add_argument(
        "--backend",
        choices=("fast", "reference"),
        default="fast",
        help="functional simulation backend (fast: compiled basic-block "
        "replay; reference: the golden interpreter)",
    )

    inj_p = sub.add_parser("inject", help="fault-injection campaign")
    inj_p.add_argument("uid", nargs="?", default="SPLASH3.radix")
    inj_p.add_argument("--count", type=int, default=30)
    inj_p.add_argument("--wcdl", type=int, default=10)
    inj_p.add_argument("--seed", type=int, default=2024)
    inj_p.add_argument(
        "--targets",
        default="register,store_buffer,clq,coloring",
        help="comma-separated structures to strike (register, store_buffer,"
        " clq, coloring, checkpoint, pc, memory)",
    )
    inj_p.add_argument(
        "--variants",
        default="turnstile,warfree,turnpike,unsafe",
        help="comma-separated protocol variants to diff",
    )
    inj_p.add_argument(
        "--workers", type=int, default=1, help="worker processes for shards"
    )
    inj_p.add_argument(
        "--shard-size", type=int, default=8, help="injections per shard"
    )
    inj_p.add_argument(
        "--manifest",
        default=None,
        help="JSON manifest checkpointed after every shard (enables resume)",
    )
    inj_p.add_argument(
        "--resume",
        action="store_true",
        help="resume an interrupted campaign from --manifest",
    )
    inj_p.add_argument(
        "--export", default=None, help="write the aggregate JSON to this path"
    )
    inj_p.add_argument(
        "--accel",
        choices=("on", "off"),
        default="on",
        help="snapshot acceleration: golden-run memoization, injection "
        "fast-forward, and convergence early-exit (observationally "
        "invisible; aggregate JSON is byte-identical either way)",
    )
    inj_p.add_argument(
        "--snapshot-interval",
        type=int,
        default=None,
        help="ticks between golden-run snapshots (<= 0: fingerprints only, "
        "no fast-forward)",
    )
    inj_p.add_argument(
        "--sample",
        action="store_true",
        help="stratified importance sampling over the vulnerability map: "
        "masked strata audited at a token rate (any failure aborts "
        "loudly), vulnerable strata sampled adaptively until the "
        "Wilson interval is tighter than --ci-width; reports AVF "
        "with a confidence interval instead of per-index records",
    )
    inj_p.add_argument(
        "--ci-width",
        type=float,
        default=0.05,
        help="--sample: target half-width of each stratum's weighted "
        "confidence interval",
    )
    inj_p.add_argument(
        "--confidence",
        type=float,
        default=0.95,
        help="--sample: confidence level for the Wilson intervals",
    )
    inj_p.add_argument(
        "--token-rate",
        type=int,
        default=8,
        help="--sample: injections per masked stratum spent cross-checking "
        "the static masked claim",
    )
    inj_p.add_argument(
        "--ecc",
        default=None,
        metavar="CODE",
        help="decode struck words through a real ECC (parity, sec, secded, "
        "secdaec, bch) instead of the abstract parity fail-safe; "
        "miscorrections substitute the wrong value and surface as the "
        "'miscorrected' outcome",
    )
    inj_p.add_argument(
        "--upset",
        default=None,
        metavar="PATTERN",
        help="multi-bit upset shape per strike (single, adjacent-double, "
        "burst<k>, random<k>, column<k>; default: the historical "
        "single/double draw)",
    )

    vuln_p = sub.add_parser(
        "vuln", help="bit-level vulnerability analysis"
    )
    vuln_p.add_argument("uid", nargs="?", default=None)
    vuln_p.add_argument(
        "--scheme", choices=("turnpike", "turnstile"), default="turnpike"
    )
    vuln_p.add_argument("--wcdl", type=int, default=10)
    vuln_p.add_argument(
        "--variants",
        default="turnstile,warfree,turnpike",
        help="comma-separated protocol variants to classify under",
    )
    vuln_p.add_argument(
        "--format", choices=("text", "json"), default="text"
    )
    vuln_p.add_argument(
        "--no-cache",
        action="store_true",
        help="rebuild the map even when a cached artifact exists",
    )
    vuln_p.add_argument(
        "--validate",
        action="store_true",
        help="cross-check the sampled estimator against an exhaustive "
        "audit (default: the quick benchmark trio; exit 1 on any "
        "misclassified masked cell or uncovered interval)",
    )
    vuln_p.add_argument(
        "--seed", type=int, default=1234, help="--validate: RNG seed"
    )
    vuln_p.add_argument(
        "--ci-width",
        type=float,
        default=0.05,
        help="--validate: target weighted interval half-width",
    )

    lint_p = sub.add_parser(
        "lint", help="statically verify compiled benchmarks"
    )
    lint_p.add_argument("uid", nargs="?", default=None)
    lint_p.add_argument(
        "--all", action="store_true", help="lint every benchmark"
    )
    lint_p.add_argument(
        "--scheme", choices=("turnpike", "turnstile"), default="turnpike"
    )
    lint_p.add_argument("--sb", type=int, default=4)
    lint_p.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text"
    )
    lint_p.add_argument(
        "--no-differential",
        action="store_true",
        help="skip the dynamic WAR cross-check (static rules only)",
    )
    lint_p.add_argument(
        "--strict",
        action="store_true",
        help="treat warnings as failures",
    )
    lint_p.add_argument(
        "--max-per-rule",
        type=int,
        default=8,
        help="text output: findings shown per rule/severity (-1: all)",
    )
    lint_p.add_argument(
        "--output", default=None, help="write the report to this path"
    )
    lint_p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for --all (default: REPRO_WORKERS or 1; "
        "0 means one per CPU)",
    )
    lint_p.add_argument(
        "--upset-model",
        default="single",
        metavar="PATTERN",
        help="fault model R9 checks the declared protection codes "
        "against (single, adjacent-double, burst<k>, random<k>, "
        "column<k>; default single)",
    )

    fig_p = sub.add_parser("figure", help="regenerate a figure/table")
    fig_p.add_argument("id")

    sweep_p = sub.add_parser(
        "sweep",
        help="evaluate figure lattices through the multi-lane sweep engine",
    )
    sweep_p.add_argument(
        "figures",
        nargs="*",
        help="figure ids to sweep (default: the whole suite); shared "
        "design points are evaluated once",
    )
    sweep_p.add_argument(
        "--benchmarks",
        default=None,
        help="comma-separated benchmark uids (default: all 36)",
    )
    sweep_p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for lane batches (default: REPRO_WORKERS "
        "or 1; 0 means one per CPU)",
    )
    sweep_p.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable JSON instead of tables",
    )
    sweep_p.add_argument(
        "--ecc-codes",
        default=None,
        metavar="CODES",
        help="fan one fault campaign across a comma-separated code axis "
        "(parity, sec, secded, secdaec, bch; 'off' = abstract fail-safe) "
        "instead of sweeping figures; duplicate codes dedup in order",
    )
    sweep_p.add_argument(
        "--ecc-uid",
        default="SPLASH3.radix",
        help="--ecc-codes: benchmark to strike",
    )
    sweep_p.add_argument(
        "--ecc-count", type=int, default=24,
        help="--ecc-codes: injections per code point",
    )
    sweep_p.add_argument(
        "--ecc-seed", type=int, default=2024,
        help="--ecc-codes: campaign seed (shared across the axis)",
    )
    sweep_p.add_argument(
        "--ecc-wcdl", type=int, default=10,
        help="--ecc-codes: worst-case detection latency",
    )
    sweep_p.add_argument(
        "--ecc-targets",
        default="register,store_buffer,clq,coloring",
        help="--ecc-codes: comma-separated structures to strike",
    )
    sweep_p.add_argument(
        "--ecc-variants",
        default="turnstile,warfree,turnpike,unsafe",
        help="--ecc-codes: comma-separated protocol variants to diff",
    )
    sweep_p.add_argument(
        "--ecc-upset",
        default=None,
        metavar="PATTERN",
        help="--ecc-codes: multi-bit upset shape per strike (default: "
        "the historical single/double draw)",
    )

    ecc_p = sub.add_parser(
        "ecc",
        help="explore the ECC design space (codes x structures x upsets)",
    )
    ecc_p.add_argument(
        "--codes",
        default=None,
        metavar="CODES",
        help="comma-separated codes to evaluate (parity, sec, secded, "
        "secdaec, bch; default: all)",
    )
    ecc_p.add_argument(
        "--structure",
        default=None,
        metavar="NAMES",
        help="comma-separated protected structures (sb, clq, checkpoint; "
        "default: all)",
    )
    ecc_p.add_argument(
        "--patterns",
        default="single,adjacent-double,burst3",
        metavar="PATTERNS",
        help="comma-separated upset shapes (single, adjacent-double, "
        "burst<k>, random<k>, column<k>)",
    )
    ecc_p.add_argument(
        "--pareto",
        action="store_true",
        help="mark the per-structure Pareto frontier (coverage up, "
        "area/energy down)",
    )
    ecc_p.add_argument(
        "--interleave",
        action="store_true",
        help="also evaluate bit-interleaved codeword layouts",
    )
    ecc_p.add_argument(
        "--trials",
        type=int,
        default=2000,
        help="Monte-Carlo trials per (layout, pattern) when the instance "
        "set is too large to enumerate",
    )
    ecc_p.add_argument("--seed", type=int, default=0)
    ecc_p.add_argument(
        "--format", choices=("text", "json"), default="text"
    )

    cache_p = sub.add_parser(
        "cache", help="manage the persistent simulation artifact cache"
    )
    cache_p.add_argument(
        "action", choices=("info", "clear", "warm", "prune")
    )
    cache_p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for warm (default: REPRO_WORKERS or 1; "
        "0 means one per CPU)",
    )
    cache_p.add_argument(
        "--list",
        action="store_true",
        help="info: enumerate every artifact, sorted by (kind, key)",
    )
    cache_p.add_argument(
        "--json",
        action="store_true",
        help="info: emit machine-readable JSON (sorted keys)",
    )

    sen_p = sub.add_parser("sensors", help="sensor sizing table")
    sen_p.add_argument("--clock", type=float, default=2.5)

    serve_p = sub.add_parser(
        "serve", help="run the async batch simulation service"
    )
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument(
        "--port", type=int, default=0, help="TCP port (0: pick a free one)"
    )
    serve_p.add_argument(
        "--workers", type=int, default=2, help="worker processes in the pool"
    )
    serve_p.add_argument(
        "--queue-limit",
        type=int,
        default=256,
        help="bounded queue size; submissions beyond it get HTTP 429",
    )
    serve_p.add_argument(
        "--max-retries",
        type=int,
        default=2,
        help="retries (with exponential backoff) after a worker death",
    )
    serve_p.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        help="default per-job timeout in seconds (none by default)",
    )
    serve_p.add_argument(
        "--journal",
        default=None,
        help="journal directory (crash-safe job log, result store, "
        "campaign manifests; default REPRO_SERVICE_DIR or "
        "~/.cache/repro-turnpike/service)",
    )

    submit_p = sub.add_parser(
        "submit", help="submit a job to a running service"
    )
    kind_sub = submit_p.add_subparsers(dest="kind", required=True)
    for kind in ("run", "inject", "lint", "vuln", "sweep", "ecc"):
        kp = kind_sub.add_parser(kind, help=f"submit a {kind} job")
        _add_client_flags(kp)
        kp.add_argument(
            "--priority",
            type=int,
            default=10,
            help="scheduling priority (lower runs first; default 10)",
        )
        kp.add_argument(
            "--job-timeout",
            type=float,
            default=None,
            help="per-job timeout in seconds",
        )
        kp.add_argument(
            "--wait",
            action="store_true",
            help="block until done, print the job's stdout, exit with "
            "the job's exit code",
        )
        kp.add_argument("--wait-timeout", type=float, default=None)
        if kind == "run":
            kp.add_argument("uid")
            kp.add_argument("--wcdl", type=int, default=None)
            kp.add_argument("--sb", type=int, default=None)
            kp.add_argument(
                "--scheme",
                choices=("turnpike", "turnstile", "baseline"),
                default=None,
            )
            kp.add_argument(
                "--backend",
                choices=("fast", "reference"),
                default=None,
            )
        elif kind == "inject":
            kp.add_argument("uid", nargs="?", default=None)
            kp.add_argument("--count", type=int, default=None)
            kp.add_argument("--wcdl", type=int, default=None)
            kp.add_argument("--seed", type=int, default=None)
            kp.add_argument("--targets", default=None)
            kp.add_argument("--variants", default=None)
            kp.add_argument(
                "--shard-size", dest="shard_size", type=int, default=None
            )
            kp.add_argument("--accel", choices=("on", "off"), default=None)
            kp.add_argument(
                "--snapshot-interval",
                dest="snapshot_interval",
                type=int,
                default=None,
            )
            kp.add_argument("--ecc", default=None, metavar="CODE")
            kp.add_argument("--upset", default=None, metavar="PATTERN")
        elif kind == "lint":
            kp.add_argument("uid", nargs="?", default=None)
            kp.add_argument("--all", action="store_true")
            kp.add_argument(
                "--scheme", choices=("turnpike", "turnstile"), default=None
            )
            kp.add_argument("--sb", type=int, default=None)
            kp.add_argument(
                "--format", choices=("text", "json", "sarif"), default=None
            )
            kp.add_argument("--no-differential", action="store_true")
            kp.add_argument("--strict", action="store_true")
            kp.add_argument(
                "--upset-model",
                dest="upset_model",
                default=None,
                metavar="PATTERN",
            )
        elif kind == "vuln":
            kp.add_argument("uid")
            kp.add_argument("--wcdl", type=int, default=None)
            kp.add_argument(
                "--scheme", choices=("turnpike", "turnstile"), default=None
            )
            kp.add_argument("--variants", default=None)
            kp.add_argument(
                "--format", choices=("text", "json"), default=None
            )
        elif kind == "sweep":
            kp.add_argument(
                "--figures",
                default=None,
                help="comma-separated figure ids (default: whole suite)",
            )
            kp.add_argument(
                "--benchmarks",
                default=None,
                help="comma-separated benchmark uids (default: all 36)",
            )
            kp.add_argument(
                "--format", choices=("text", "json"), default=None
            )
        else:  # ecc
            kp.add_argument("--codes", default=None, metavar="CODES")
            kp.add_argument(
                "--structure",
                dest="structures",
                default=None,
                metavar="NAMES",
            )
            kp.add_argument("--patterns", default=None, metavar="PATTERNS")
            kp.add_argument("--pareto", action="store_true")
            kp.add_argument("--interleave", action="store_true")
            kp.add_argument("--trials", type=int, default=None)
            kp.add_argument("--seed", type=int, default=None)
            kp.add_argument(
                "--format", choices=("text", "json"), default=None
            )

    jobs_p = sub.add_parser("jobs", help="list jobs on a running service")
    _add_client_flags(jobs_p)
    jobs_p.add_argument("--json", action="store_true")
    jobs_p.add_argument(
        "--mine", action="store_true", help="only this client's jobs"
    )

    result_p = sub.add_parser("result", help="fetch one job's output")
    _add_client_flags(result_p)
    result_p.add_argument("job_id")
    result_p.add_argument("--wait", action="store_true")
    result_p.add_argument("--wait-timeout", type=float, default=None)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "list": _cmd_list,
        "run": _cmd_run,
        "inject": _cmd_inject,
        "vuln": _cmd_vuln,
        "lint": _cmd_lint,
        "figure": _cmd_figure,
        "sweep": _cmd_sweep,
        "ecc": _cmd_ecc,
        "cache": _cmd_cache,
        "sensors": _cmd_sensors,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
        "jobs": _cmd_jobs,
        "result": _cmd_result,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
