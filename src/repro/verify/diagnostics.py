"""Diagnostic model for the static resilience verifier.

A :class:`Diagnostic` is one finding produced by a verifier rule: a rule
id (``R1``..``R6``), a severity, a program location, a human-readable
message, and an optional fix hint. :class:`VerificationReport` aggregates
the findings of one verification run and knows how to render itself as
text or JSON (SARIF rendering lives in :mod:`repro.verify.sarif`).

Severity semantics follow the lint exit-code contract:

* ``ERROR``   — a protocol invariant is violated; the compiled program is
  not soft-error safe as claimed.  ``repro lint`` exits 1.
* ``WARNING`` — the invariant holds only conditionally (e.g. a region
  whose store traffic fits the SB only while the colour pool is not
  exhausted) or a performance hazard was proven.  Exit 0 unless
  ``--strict``.
* ``INFO``    — advisory context (e.g. a register whose checkpoint
  colours rotate around a loop and therefore cannot be bounded
  statically).  Never affects the exit code.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Severity(enum.Enum):
    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def rank(self) -> int:
        return {"error": 2, "warning": 1, "info": 0}[self.value]


@dataclass(frozen=True)
class Location:
    """A program point: block label plus instruction index.

    ``index`` is the position within the block (``-1`` for findings that
    apply to the block or program as a whole). ``uid`` carries the
    instruction's uid when one exists, so rules can key findings by
    instruction. Uids come from a process-global counter, so serialized
    reports leave them out: block and index locate the instruction.
    """

    program: str
    block: str = ""
    index: int = -1
    uid: int | None = None

    def render(self) -> str:
        if not self.block:
            return self.program
        if self.index < 0:
            return f"{self.program}/{self.block}"
        return f"{self.program}/{self.block}:{self.index}"

    def artifact_uri(self) -> str:
        """A stable pseudo-URI for SARIF artifact locations."""
        return f"repro://{self.program}/{self.block or '-'}"


@dataclass(frozen=True)
class Diagnostic:
    """One finding from one verifier rule."""

    rule: str
    severity: Severity
    location: Location
    message: str
    hint: str = ""

    def render(self) -> str:
        text = (
            f"{self.severity.value}[{self.rule}] "
            f"{self.location.render()}: {self.message}"
        )
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text

    def to_dict(self) -> dict[str, object]:
        out: dict[str, object] = {
            "rule": self.rule,
            "severity": self.severity.value,
            "program": self.location.program,
            "block": self.location.block,
            "index": self.location.index,
            "message": self.message,
        }
        if self.hint:
            out["hint"] = self.hint
        return out


@dataclass
class VerificationReport:
    """All diagnostics from verifying one compiled program."""

    program: str
    diagnostics: list[Diagnostic] = field(default_factory=list)
    rules_run: list[str] = field(default_factory=list)

    def extend(self, diags: list[Diagnostic]) -> None:
        self.diagnostics.extend(diags)

    def by_severity(self, severity: Severity) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is severity]

    def by_rule(self, rule: str) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.rule == rule]

    @property
    def errors(self) -> list[Diagnostic]:
        return self.by_severity(Severity.ERROR)

    @property
    def warnings(self) -> list[Diagnostic]:
        return self.by_severity(Severity.WARNING)

    @property
    def ok(self) -> bool:
        """True when no error-severity finding is present."""
        return not self.errors

    def sorted_diagnostics(self) -> list[Diagnostic]:
        return sorted(
            self.diagnostics,
            key=lambda d: (
                -d.severity.rank,
                d.rule,
                d.location.block,
                d.location.index,
            ),
        )

    def render_text(self, max_per_rule: int = 8) -> str:
        """Human-readable report; long rule groups are elided."""
        lines: list[str] = []
        shown: dict[str, int] = {}
        elided: dict[str, int] = {}
        for diag in self.sorted_diagnostics():
            key = f"{diag.rule}/{diag.severity.value}"
            count = shown.get(key, 0)
            if max_per_rule >= 0 and count >= max_per_rule:
                elided[key] = elided.get(key, 0) + 1
                continue
            shown[key] = count + 1
            lines.append("  " + diag.render().replace("\n", "\n  "))
        for key, count in sorted(elided.items()):
            lines.append(f"  ... {count} more {key} finding(s) elided")
        counts = self.summary_counts()
        summary = (
            f"{self.program}: {counts['error']} error(s), "
            f"{counts['warning']} warning(s), {counts['info']} info"
        )
        if not lines:
            return summary
        return summary + "\n" + "\n".join(lines)

    def summary_counts(self) -> dict[str, int]:
        counts = {"error": 0, "warning": 0, "info": 0}
        for diag in self.diagnostics:
            counts[diag.severity.value] += 1
        return counts

    def to_dict(self) -> dict[str, object]:
        return {
            "program": self.program,
            "rules_run": list(self.rules_run),
            "counts": self.summary_counts(),
            "ok": self.ok,
            "diagnostics": [
                d.to_dict() for d in self.sorted_diagnostics()
            ],
        }


class VerificationError(Exception):
    """Raised by ``compile_program(..., verify=True)`` on error findings."""

    def __init__(self, report: VerificationReport):
        self.report = report
        errors = report.errors
        head = "; ".join(d.render() for d in errors[:3])
        more = f" (+{len(errors) - 3} more)" if len(errors) > 3 else ""
        super().__init__(
            f"verification failed for {report.program}: {head}{more}"
        )
