"""Lint findings and the ECC frontier, pinned byte for byte.

Two of the artifacts that fix the system's observable behaviour: the
``repro lint <uid>`` text of every quick-subset benchmark, and the
``repro ecc --pareto --format json`` frontier. Each is diffed against a
fixture under ``tests/fixtures/oracle/``. To regenerate after an
*intentional* change::

    PYTHONPATH=src python -m pytest tests/test_lint_ecc_oracle.py --update-goldens

then review and commit the changed files.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.__main__ import main
from repro.workloads.suites import load_workload, quick_subset

ORACLE_DIR = Path(__file__).resolve().parent / "fixtures" / "oracle"
QUICK_UIDS = [p.uid for p in quick_subset()]


def _cli_stdout(capsys, argv: list[str]) -> str:
    assert main(argv) == 0, argv
    return capsys.readouterr().out


def _check(path: Path, text: str, update: bool) -> None:
    if update:
        ORACLE_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        return
    assert path.exists(), (
        f"missing oracle fixture {path.name}; run pytest with "
        f"--update-goldens to create it"
    )
    assert text == path.read_text(), (
        f"{path.name}: output diverged from the pinned oracle; if "
        f"intentional, regenerate with --update-goldens and commit"
    )


@pytest.mark.parametrize("uid", QUICK_UIDS)
def test_lint_text_matches_oracle(uid, capsys, update_goldens):
    text = _cli_stdout(capsys, ["lint", uid])
    _check(ORACLE_DIR / f"lint-{uid}.txt", text, update_goldens)


def test_ecc_pareto_matches_oracle(capsys, update_goldens):
    text = _cli_stdout(capsys, ["ecc", "--pareto", "--format", "json"])
    _check(ORACLE_DIR / "ecc-pareto.json", text, update_goldens)


def test_lint_json_is_process_invariant(capsys):
    """Building another program first must not change lint JSON (a
    service worker lints after whatever it ran before)."""
    argv = ["lint", "SPLASH3.radix", "--format", "json"]
    fresh = _cli_stdout(capsys, argv)
    load_workload("CPU2006.gcc")
    assert _cli_stdout(capsys, argv) == fresh
