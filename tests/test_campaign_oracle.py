"""Whole-campaign behaviour oracle.

The accelerated 600-injection bzip2 campaign at seed 2024 must export
exactly the aggregate the benchmark pinned from the unaccelerated run:
acceleration (snapshot fast-forward, exact and delta convergence exits)
may change how long a campaign takes, never what it reports. The digest
is read from the benchmark's ``expected.json``, so the repository keeps
one pinned copy of it.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.faults.campaign import CampaignRunner, CampaignSpec

EXPECTED = (
    Path(__file__).resolve().parents[1] / "benchmarks" / "perf" / "expected.json"
)


def test_bzip2_campaign_matches_pinned_aggregate():
    report = CampaignRunner(
        CampaignSpec("CPU2006.bzip2", count=600, seed=2024)
    ).run()
    digest = hashlib.sha256(report.to_json().encode()).hexdigest()[:16]
    assert digest == json.loads(EXPECTED.read_text())["inject_aggregate"]
