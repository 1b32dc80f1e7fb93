"""Golden-trace regression fixtures.

For six representative benchmarks (the quick subset) this test pins a
compact :class:`~repro.runtime.trace.TraceSummary` snapshot — dynamic
instruction mix, store disposition, region count, step total — for both
the baseline and the Turnpike build. Any compiler or interpreter change
that shifts dynamic behaviour shows up as a readable JSON diff here
instead of as a silent drift in the figure sweeps.

To regenerate after an *intentional* change::

    PYTHONPATH=src python -m pytest tests/test_goldens.py --update-goldens

then review and commit the changed files under tests/fixtures/goldens/.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.compiler.config import turnpike_config
from repro.compiler.pipeline import compile_baseline, compile_program
from repro.runtime.fastsim import execute_fast
from repro.runtime.trace import TraceSummary
from repro.workloads.generator import build_workload
from repro.workloads.suites import profile, quick_subset

GOLDEN_DIR = Path(__file__).resolve().parent / "fixtures" / "goldens"
GOLDEN_UIDS = [p.uid for p in quick_subset()]


def _summarize(trace, steps: int) -> dict:
    summary = TraceSummary(trace)
    return {
        "steps": steps,
        "total": summary.total,
        "committed": summary.committed,
        "by_kind": summary.by_kind,
        "loads": summary.loads,
        "regular_stores": summary.regular_stores,
        "app_stores": summary.app_stores,
        "spill_stores": summary.spill_stores,
        "checkpoints": summary.checkpoints,
        "boundaries": summary.boundaries,
    }


def build_snapshot(uid: str) -> dict:
    """The golden content for one benchmark (deterministic)."""
    workload = build_workload(profile(uid))
    snapshot: dict[str, dict] = {}
    for scheme, compiled in (
        ("baseline", compile_baseline(workload.program)),
        ("turnpike", compile_program(workload.program, turnpike_config())),
    ):
        result = execute_fast(
            compiled.program, workload.fresh_memory(), collect_trace=True
        )
        snapshot[scheme] = _summarize(result.trace, result.steps)
    return snapshot


def _golden_path(uid: str) -> Path:
    return GOLDEN_DIR / f"{uid}.json"


@pytest.mark.parametrize("uid", GOLDEN_UIDS)
def test_golden_trace_summary(uid, update_goldens):
    snapshot = build_snapshot(uid)
    path = _golden_path(uid)
    if update_goldens:
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
        return
    assert path.exists(), (
        f"missing golden fixture {path.name}; run pytest with "
        f"--update-goldens to create it"
    )
    golden = json.loads(path.read_text())
    assert snapshot == golden, (
        f"{uid}: dynamic behaviour diverged from the golden snapshot; "
        f"if intentional, regenerate with --update-goldens and commit"
    )


def test_goldens_cover_quick_subset():
    """Every quick-subset benchmark has a fixture and nothing extra."""
    have = {p.stem for p in GOLDEN_DIR.glob("*.json")}
    assert have == set(GOLDEN_UIDS)
