"""Typed job specs, lifecycle states, and content-addressed identity.

A job is one CLI-equivalent unit of work (``run`` / ``inject`` /
``lint`` / ``vuln`` / ``sweep`` / ``ecc``). Its :class:`JobSpec` is
normalised at construction — unknown
parameters rejected, defaults filled in, choices validated — so that two
submissions meaning the same thing always produce the same canonical
parameter dict, the same canonical argv, and therefore the same dedup
key no matter how the client spelled them.

Identity follows the artifact cache's discipline
(:mod:`repro.harness.artifacts`): the dedup key digests the whole
``repro`` source tree *plus* the canonical spec, so results cached by a
previous server generation can never be served after the simulator's
semantics change.
"""

from __future__ import annotations

import enum
import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.harness.artifacts import code_digest

#: Parameter schema per job kind: name -> (default, validator).
#: ``REQUIRED`` marks parameters that must be supplied by the client.
REQUIRED = object()


def _str_choice(*choices: str):
    def check(value: Any) -> str:
        if not isinstance(value, str) or value not in choices:
            raise ValueError(f"expected one of {choices}, got {value!r}")
        return value

    return check


def _int(minimum: int | None = None):
    def check(value: Any) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"expected an integer, got {value!r}")
        if minimum is not None and value < minimum:
            raise ValueError(f"expected >= {minimum}, got {value}")
        return value

    return check


def _opt_int(value: Any) -> int | None:
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"expected an integer or null, got {value!r}")
    return value


def _bool(value: Any) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"expected a boolean, got {value!r}")
    return value


def _uid(value: Any) -> str:
    if not isinstance(value, str) or not value:
        raise ValueError(f"expected a benchmark uid, got {value!r}")
    from repro.workloads.suites import all_profiles

    known = {p.uid for p in all_profiles()}
    if value not in known:
        raise ValueError(f"unknown benchmark uid {value!r}")
    return value


def _opt_uid(value: Any) -> str | None:
    return None if value is None else _uid(value)


def _csv(value: Any) -> str:
    if not isinstance(value, str) or not value.strip():
        raise ValueError(f"expected a comma-separated list, got {value!r}")
    return ",".join(part.strip() for part in value.split(",") if part.strip())


def _opt_figures(value: Any) -> str | None:
    """Comma-separated figure ids, canonicalised to suite order."""
    if value is None:
        return None
    from repro.harness.experiments import FIGURE_SUITE

    names = set(_csv(value).split(","))
    unknown = sorted(names - set(FIGURE_SUITE))
    if unknown:
        raise ValueError(
            f"unknown figure id(s): {', '.join(unknown)} "
            f"(expected from {', '.join(FIGURE_SUITE)})"
        )
    return ",".join(name for name in FIGURE_SUITE if name in names)


def _opt_uids(value: Any) -> str | None:
    """Comma-separated benchmark uids, canonicalised to sorted order."""
    if value is None:
        return None
    names = sorted(set(_csv(value).split(",")))
    for name in names:
        _uid(name)
    return ",".join(names)


def _opt_ecc_code(value: Any) -> str | None:
    if value is None:
        return None
    if not isinstance(value, str) or not value.strip():
        raise ValueError(f"expected an ECC code name, got {value!r}")
    from repro.ecc.codes import make_code

    make_code(value.strip(), 32)  # raises ValueError on unknown names
    return value.strip()


def _opt_upset(value: Any) -> str | None:
    if value is None:
        return None
    if not isinstance(value, str) or not value.strip():
        raise ValueError(f"expected an upset pattern name, got {value!r}")
    from repro.ecc.faultmodel import pattern

    pattern(value.strip())  # raises ValueError on unknown names
    return value.strip()


def _upset(value: Any) -> str:
    out = _opt_upset(value)
    if out is None:
        raise ValueError("expected an upset pattern name")
    return out


def _opt_ecc_codes(value: Any) -> str | None:
    """Comma-separated code names, validated and order-preserved."""
    if value is None:
        return None
    names = _csv(value).split(",")
    for name in names:
        _opt_ecc_code(name)
    return ",".join(dict.fromkeys(names))


def _opt_structures(value: Any) -> str | None:
    if value is None:
        return None
    from repro.ecc.layout import STRUCTURES

    names = _csv(value).split(",")
    unknown = sorted(set(names) - set(STRUCTURES))
    if unknown:
        raise ValueError(
            f"unknown structure(s): {', '.join(unknown)} "
            f"(expected from {', '.join(STRUCTURES)})"
        )
    return ",".join(dict.fromkeys(names))


def _patterns(value: Any) -> str:
    from repro.ecc.faultmodel import parse_patterns

    if not isinstance(value, str):
        raise ValueError(f"expected a pattern list, got {value!r}")
    return ",".join(p.name for p in parse_patterns(value))


_SCHEMAS: dict[str, dict[str, tuple[Any, Any]]] = {
    "run": {
        "uid": (REQUIRED, _uid),
        "wcdl": (10, _int(1)),
        "sb": (4, _int(1)),
        "scheme": ("turnpike", _str_choice("turnpike", "turnstile", "baseline")),
        "backend": ("fast", _str_choice("fast", "reference")),
    },
    "inject": {
        "uid": ("SPLASH3.radix", _uid),
        "count": (30, _int(1)),
        "wcdl": (10, _int(1)),
        "seed": (2024, _int()),
        "targets": ("register,store_buffer,clq,coloring", _csv),
        "variants": ("turnstile,warfree,turnpike,unsafe", _csv),
        "shard_size": (8, _int(1)),
        "accel": ("on", _str_choice("on", "off")),
        "snapshot_interval": (None, _opt_int),
        "ecc": (None, _opt_ecc_code),
        "upset": (None, _opt_upset),
    },
    "lint": {
        "uid": (None, _opt_uid),
        "all": (False, _bool),
        "scheme": ("turnpike", _str_choice("turnpike", "turnstile")),
        "sb": (4, _int(1)),
        "format": ("text", _str_choice("text", "json", "sarif")),
        "differential": (True, _bool),
        "strict": (False, _bool),
        "upset_model": ("single", _upset),
    },
    "vuln": {
        "uid": (REQUIRED, _uid),
        "scheme": ("turnpike", _str_choice("turnpike", "turnstile")),
        "wcdl": (10, _int(1)),
        "variants": ("turnstile,warfree,turnpike", _csv),
        "format": ("text", _str_choice("text", "json")),
    },
    "sweep": {
        "figures": (None, _opt_figures),
        "benchmarks": (None, _opt_uids),
        "format": ("text", _str_choice("text", "json")),
    },
    "ecc": {
        "codes": (None, _opt_ecc_codes),
        "structures": (None, _opt_structures),
        "patterns": ("single,adjacent-double,burst3", _patterns),
        "trials": (2000, _int(1)),
        "seed": (0, _int()),
        "pareto": (False, _bool),
        "interleave": (False, _bool),
        "format": ("text", _str_choice("text", "json")),
    },
}

JOB_KINDS = tuple(_SCHEMAS)


@dataclass(frozen=True)
class JobSpec:
    """A normalised, validated job description."""

    kind: str
    params: tuple[tuple[str, Any], ...]

    @classmethod
    def create(cls, kind: str, params: Mapping[str, Any] | None = None) -> "JobSpec":
        if kind not in _SCHEMAS:
            raise ValueError(
                f"unknown job kind {kind!r} (expected one of {JOB_KINDS})"
            )
        schema = _SCHEMAS[kind]
        params = dict(params or {})
        unknown = sorted(set(params) - set(schema))
        if unknown:
            raise ValueError(f"unknown {kind} parameter(s): {', '.join(unknown)}")
        normal: dict[str, Any] = {}
        for name, (default, check) in schema.items():
            if name in params:
                try:
                    normal[name] = check(params[name])
                except ValueError as exc:
                    raise ValueError(f"{kind}.{name}: {exc}") from None
            elif default is REQUIRED:
                raise ValueError(f"{kind}.{name} is required")
            else:
                normal[name] = default
        if kind == "lint" and normal["uid"] is None and not normal["all"]:
            raise ValueError("lint needs a benchmark uid or all=true")
        if kind == "lint" and normal["uid"] is not None and normal["all"]:
            raise ValueError("lint takes a uid or all=true, not both")
        # Canonical order: the schema's declaration order, always fully
        # materialised — submissions that differ only in spelling or in
        # which defaults they omitted become identical specs.
        return cls(kind, tuple((name, normal[name]) for name in schema))

    def as_dict(self) -> dict[str, Any]:
        return dict(self.params)

    def to_argv(self) -> list[str]:
        """The canonical ``repro`` argv this job executes.

        Workers run jobs through the real CLI entry point, so service
        results are byte-identical to direct invocations by
        construction. Parallelism flags are pinned to one worker: the
        service's own pool is the unit of concurrency.
        """
        p = self.as_dict()
        if self.kind == "run":
            return [
                "run", p["uid"],
                "--wcdl", str(p["wcdl"]),
                "--sb", str(p["sb"]),
                "--scheme", p["scheme"],
                "--backend", p["backend"],
            ]
        if self.kind == "inject":
            argv = [
                "inject", p["uid"],
                "--count", str(p["count"]),
                "--wcdl", str(p["wcdl"]),
                "--seed", str(p["seed"]),
                "--targets", p["targets"],
                "--variants", p["variants"],
                "--shard-size", str(p["shard_size"]),
                "--workers", "1",
                "--accel", p["accel"],
            ]
            if p["snapshot_interval"] is not None:
                argv += ["--snapshot-interval", str(p["snapshot_interval"])]
            if p["ecc"] is not None:
                argv += ["--ecc", p["ecc"]]
            if p["upset"] is not None:
                argv += ["--upset", p["upset"]]
            return argv
        if self.kind == "vuln":
            return [
                "vuln", p["uid"],
                "--scheme", p["scheme"],
                "--wcdl", str(p["wcdl"]),
                "--variants", p["variants"],
                "--format", p["format"],
            ]
        if self.kind == "ecc":
            argv = ["ecc"]
            if p["codes"] is not None:
                argv += ["--codes", p["codes"]]
            if p["structures"] is not None:
                argv += ["--structure", p["structures"]]
            argv += [
                "--patterns", p["patterns"],
                "--trials", str(p["trials"]),
                "--seed", str(p["seed"]),
            ]
            if p["pareto"]:
                argv.append("--pareto")
            if p["interleave"]:
                argv.append("--interleave")
            argv += ["--format", p["format"]]
            return argv
        if self.kind == "sweep":
            argv = ["sweep"]
            if p["figures"] is not None:
                argv += p["figures"].split(",")
            if p["benchmarks"] is not None:
                argv += ["--benchmarks", p["benchmarks"]]
            argv += ["--workers", "1"]
            if p["format"] == "json":
                argv.append("--json")
            return argv
        argv = ["lint"]
        argv += ["--all"] if p["all"] else [p["uid"]]
        argv += [
            "--scheme", p["scheme"],
            "--sb", str(p["sb"]),
            "--format", p["format"],
            "--workers", "1",
            "--upset-model", p["upset_model"],
        ]
        if not p["differential"]:
            argv.append("--no-differential")
        if p["strict"]:
            argv.append("--strict")
        return argv


def job_key(spec: JobSpec) -> str:
    """Content-addressed dedup key: source digest + canonical spec.

    Shares the artifact cache's invalidation property — any edit under
    ``src/repro`` changes :func:`code_digest` and therefore every key,
    so stale results are unreachable rather than merely unlikely.
    """
    text = "|".join(
        [
            code_digest(),
            spec.kind,
            json.dumps(spec.as_dict(), sort_keys=True),
        ]
    )
    return hashlib.sha256(text.encode()).hexdigest()[:40]


class JobState(str, enum.Enum):
    """Job lifecycle: queued -> running -> done/failed/cancelled/timeout."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"
    TIMEOUT = "timeout"

    @property
    def terminal(self) -> bool:
        return self in (
            JobState.DONE,
            JobState.FAILED,
            JobState.CANCELLED,
            JobState.TIMEOUT,
        )


@dataclass
class JobRecord:
    """One job's mutable lifecycle, as tracked by the registry/journal."""

    id: str
    spec: JobSpec
    key: str
    client: str
    priority: int = 10
    timeout: float | None = None
    state: JobState = JobState.QUEUED
    attempts: int = 0
    clients: list[str] = field(default_factory=list)
    submitted_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    exit_code: int | None = None
    error: str | None = None

    def __post_init__(self) -> None:
        if not self.clients:
            self.clients = [self.client]

    def to_dict(self) -> dict[str, Any]:
        return {
            "id": self.id,
            "kind": self.spec.kind,
            "spec": self.spec.as_dict(),
            "key": self.key,
            "client": self.client,
            "clients": list(self.clients),
            "priority": self.priority,
            "timeout": self.timeout,
            "state": self.state.value,
            "attempts": self.attempts,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "exit_code": self.exit_code,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "JobRecord":
        spec = JobSpec.create(data["kind"], data["spec"])
        rec = cls(
            id=data["id"],
            spec=spec,
            key=data["key"],
            client=data["client"],
            priority=data.get("priority", 10),
            timeout=data.get("timeout"),
            state=JobState(data.get("state", "queued")),
            attempts=data.get("attempts", 0),
            clients=list(data.get("clients") or [data["client"]]),
            submitted_at=data.get("submitted_at", 0.0),
        )
        rec.started_at = data.get("started_at")
        rec.finished_at = data.get("finished_at")
        rec.exit_code = data.get("exit_code")
        rec.error = data.get("error")
        return rec
