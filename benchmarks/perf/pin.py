"""Regenerate the benchmark's pinned output oracles (``expected.json``).

Every oracle comes from a reference path that the timed workloads do
not use, so a regression in the fast path cannot pin itself:

* design-point digests: the solo ``simulate`` / ``InOrderCore`` path,
  one point at a time, no multi-lane engine and no artifact cache;
* figure-suite digests: ``figure_suite`` resolving every point from
  those solo stats;
* the campaign aggregate: an ``accel off`` campaign at seed 2024;
* service stdout: ``run_report_text`` in-process, exactly what
  ``repro run`` prints.

Run only when the simulator's output is meant to change (a few
minutes)::

    python benchmarks/perf/pin.py
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))
os.environ["REPRO_CACHE_DIR"] = "off"  # read when repro is first imported

from workloads import (  # noqa: E402
    EXPECTED_PATH,
    INJECT_COUNT,
    INJECT_UID,
    PIN_SEED,
    point_label,
    result_digest,
    service_label,
    service_specs,
    short,
    stats_digest,
)


def main() -> int:
    from repro.faults.campaign import AccelOptions, CampaignRunner, CampaignSpec
    from repro.harness.experiments import figure_suite, suite_pairs
    from repro.harness.runner import (
        RunCache,
        default_benchmarks,
        run_report_text,
        simulate,
    )
    from repro.workloads.suites import quick_subset

    start = time.perf_counter()
    cache = RunCache(persistent=None)
    points = {}
    for uid in sorted(default_benchmarks()):
        for compiler, hardware in suite_pairs():
            stats = simulate(uid, compiler, hardware, cache=cache)
            points[point_label(uid, compiler, hardware)] = stats_digest(stats)
    print(f"{len(points)} solo design points ({time.perf_counter() - start:.0f}s)")
    suite = result_digest(figure_suite(cache=cache))
    quick = result_digest(figure_suite([p.uid for p in quick_subset()], cache=cache))

    spec = CampaignSpec(INJECT_UID, count=INJECT_COUNT, seed=PIN_SEED)
    report = CampaignRunner(spec, accel=AccelOptions(enabled=False)).run()
    print(f"accel-off campaign ({time.perf_counter() - start:.0f}s)")

    stdout = {
        service_label(s): run_report_text(s["uid"], scheme=s["scheme"],
                                          wcdl=s["wcdl"]) + "\n"
        for s in service_specs()
    }
    print(f"{len(stdout)} run reports ({time.perf_counter() - start:.0f}s)")

    expected = {
        "figure_points": dict(sorted(points.items())),
        "figure_suite": suite,
        "quick_suite": quick,
        "inject_aggregate": short(report.to_json()),
        "service_stdout": {k: short(v) for k, v in sorted(stdout.items())},
        "service_all": short("".join(stdout[k] for k in sorted(stdout))),
    }
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1) + "\n")
    print(f"wrote {EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
