"""Typed job specs, lifecycle states, and content-addressed identity.

A job is one CLI-equivalent unit of work (``run`` / ``inject`` /
``lint`` / ``vuln`` / ``sweep`` / ``ecc``). Each of its options is one
:class:`Option` row of ``_SCHEMAS``, which declares the option once for
both front ends: the rows build the job options of ``repro <kind>`` and
the whole ``repro submit <kind>`` parser (:func:`add_job_options`),
collect a parsed command line back into parameters
(:func:`params_from_args`), validate a submission
(:meth:`JobSpec.create`) and spell the argv a worker runs
(:meth:`JobSpec.to_argv`). A value is checked by the same rule whether
it arrives as CLI text or as JSON.

A :class:`JobSpec` is normalised at construction — unknown parameters
rejected, defaults filled in, values canonicalised — so that two
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

import argparse
import enum
import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.harness.artifacts import code_digest

#: ``default`` of a parameter that must be supplied by the client.
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


#: Figure ids also accepted for suite entries, in any case.
_FIGURE_ALIASES = {"fig4": "fig04", "fig14": "fig14_15", "fig15": "fig14_15"}


def _opt_figures(value: Any) -> str | None:
    """Comma-separated figure ids, canonicalised to suite order."""
    if value is None:
        return None
    from repro.harness.experiments import FIGURE_SUITE

    names = {
        _FIGURE_ALIASES.get(name, name)
        for name in _csv(value).lower().split(",")
    }
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


@dataclass(frozen=True)
class Option:
    """One job option: its job field, its check and its CLI spelling.

    ``name`` is the job field and the argparse ``dest``; ``default`` is
    a JSON value or :data:`REQUIRED`; ``check`` turns a JSON value into
    its canonical value or raises ``ValueError``. ``flag`` is the CLI
    flag (``None``: a positional), ``parse`` turns CLI text into a JSON
    value, and ``const`` is the value a bare flag sets. A positional
    with ``nargs="*"`` is stored as a comma list.
    """

    name: str
    default: Any
    check: Callable[[Any], Any]
    flag: str | None = None
    parse: Callable[[str], Any] = str
    const: Any = None
    nargs: str | None = None
    choices: tuple[str, ...] | None = None
    metavar: str | None = None
    help: str | None = None

    def from_text(self, text: str) -> Any:
        """argparse ``type=``: the canonical value of one CLI word."""
        try:
            value = self.parse(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {self.parse.__name__} value: {text!r}"
            ) from None
        try:
            return self.check(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None


def _choice(
    name: str, flag: str, *choices: str, help: str | None = None
) -> Option:
    """A flag taking one of ``choices``; the first is the default."""
    return Option(name, choices[0], _str_choice(*choices), flag,
                  choices=choices, help=help)


_WCDL = Option("wcdl", 10, _int(1), "--wcdl", int)
_SB = Option("sb", 4, _int(1), "--sb", int)
_SCHEME = _choice("scheme", "--scheme", "turnpike", "turnstile")
_FORMAT = _choice("format", "--format", "text", "json")
#: Also the id of ``repro figure``.
FIGURES = Option(
    "figures", None, _opt_figures, nargs="*",
    help="figure ids to sweep (default: the whole suite); shared design "
    "points are evaluated once",
)

#: Every job kind's options, in canonical field order.
_SCHEMAS: dict[str, tuple[Option, ...]] = {
    "run": (
        Option("uid", REQUIRED, _uid),
        _WCDL,
        _SB,
        _choice("scheme", "--scheme", "turnpike", "turnstile", "baseline"),
    ),
    "inject": (
        Option("uid", "SPLASH3.radix", _uid, nargs="?"),
        Option("count", 30, _int(1), "--count", int),
        _WCDL,
        Option("seed", 2024, _int(), "--seed", int),
        Option(
            "targets", "register,store_buffer,clq,coloring", _csv, "--targets",
            help="comma-separated structures to strike (register, "
            "store_buffer, clq, coloring, checkpoint, pc, memory)",
        ),
        Option(
            "variants", "turnstile,warfree,turnpike,unsafe", _csv,
            "--variants", help="comma-separated protocol variants to diff",
        ),
        Option("shard_size", 8, _int(1), "--shard-size", int,
               help="injections per shard"),
        _choice(
            "accel", "--accel", "on", "off",
            help="snapshot acceleration: golden-run memoization, injection "
            "fast-forward, and convergence early-exit (observationally "
            "invisible; aggregate JSON is byte-identical either way)",
        ),
        Option(
            "snapshot_interval", None, _opt_int, "--snapshot-interval", int,
            help="ticks between golden-run snapshots (<= 0: fingerprints "
            "only, no fast-forward)",
        ),
        Option(
            "ecc", None, _opt_ecc_code, "--ecc", metavar="CODE",
            help="decode struck words through a real ECC (parity, sec, "
            "secded, secdaec, bch) instead of the abstract parity "
            "fail-safe; miscorrections substitute the wrong value and "
            "surface as the 'miscorrected' outcome",
        ),
        Option(
            "upset", None, _opt_upset, "--upset", metavar="PATTERN",
            help="multi-bit upset shape per strike (single, "
            "adjacent-double, burst<k>, random<k>, column<k>; default: "
            "the historical single/double draw)",
        ),
    ),
    "lint": (
        Option("uid", None, _opt_uid, nargs="?"),
        Option("all", False, _bool, "--all", const=True,
               help="lint every benchmark"),
        _SCHEME,
        _SB,
        _choice("format", "--format", "text", "json", "sarif"),
        Option(
            "differential", True, _bool, "--no-differential", const=False,
            help="skip the dynamic WAR cross-check (static rules only)",
        ),
        Option("strict", False, _bool, "--strict", const=True,
               help="treat warnings as failures"),
        Option(
            "upset_model", "single", _upset, "--upset-model",
            metavar="PATTERN",
            help="fault model R9 checks the declared protection codes "
            "against (single, adjacent-double, burst<k>, random<k>, "
            "column<k>; default single)",
        ),
    ),
    "vuln": (
        Option("uid", REQUIRED, _uid, nargs="?"),
        _SCHEME,
        _WCDL,
        Option(
            "variants", "turnstile,warfree,turnpike", _csv, "--variants",
            help="comma-separated protocol variants to classify under",
        ),
        _FORMAT,
    ),
    "sweep": (
        FIGURES,
        Option("benchmarks", None, _opt_uids, "--benchmarks",
               help="comma-separated benchmark uids (default: all 36)"),
        Option(
            "format", "text", _str_choice("text", "json"), "--json",
            const="json",
            help="emit machine-readable JSON instead of tables",
        ),
    ),
    "ecc": (
        Option(
            "codes", None, _opt_ecc_codes, "--codes", metavar="CODES",
            help="comma-separated codes to evaluate (parity, sec, secded, "
            "secdaec, bch; default: all)",
        ),
        Option(
            "structures", None, _opt_structures, "--structure",
            metavar="NAMES",
            help="comma-separated protected structures (sb, clq, "
            "checkpoint; default: all)",
        ),
        Option(
            "patterns", "single,adjacent-double,burst3", _patterns,
            "--patterns", metavar="PATTERNS",
            help="comma-separated upset shapes (single, adjacent-double, "
            "burst<k>, random<k>, column<k>)",
        ),
        Option(
            "trials", 2000, _int(1), "--trials", int,
            help="Monte-Carlo trials per (layout, pattern) when the "
            "instance set is too large to enumerate",
        ),
        Option("seed", 0, _int(), "--seed", int),
        Option(
            "pareto", False, _bool, "--pareto", const=True,
            help="mark the per-structure Pareto frontier (coverage up, "
            "area/energy down)",
        ),
        Option("interleave", False, _bool, "--interleave", const=True,
               help="also evaluate bit-interleaved codeword layouts"),
        _FORMAT,
    ),
}

JOB_KINDS = tuple(_SCHEMAS)

#: Kinds whose jobs run on one worker process: the service's own pool
#: is the unit of concurrency.
_ONE_WORKER = ("inject", "lint", "sweep")


def add_job_options(
    parser: argparse.ArgumentParser, kind: str, submit: bool = False
) -> None:
    """Declare ``kind``'s job options on ``parser``.

    ``repro <kind>`` gets each option's default (``None`` for a required
    positional that ``nargs="?"`` lets a CLI-only mode omit). ``repro
    submit <kind>`` gets ``None`` everywhere, so the client sends only
    what was given and a bare submission dedupes with a spelled-out one.
    """
    for opt in _SCHEMAS[kind]:
        default = None if submit or opt.default is REQUIRED else opt.default
        names = (opt.flag,) if opt.flag else (opt.name,)
        kwargs: dict[str, Any] = {"default": default, "help": opt.help}
        if opt.flag:
            kwargs["dest"] = opt.name
        if opt.const is not None:
            kwargs.update(action="store_const", const=opt.const)
        else:
            kwargs.update(type=opt.from_text, nargs=opt.nargs,
                          choices=opt.choices, metavar=opt.metavar)
        parser.add_argument(*names, **kwargs)


def params_from_args(kind: str, args: argparse.Namespace) -> dict[str, Any]:
    """The job parameters a parsed command line holds: every option
    that has a value, a ``nargs="*"`` positional as its comma list."""
    params: dict[str, Any] = {}
    for opt in _SCHEMAS[kind]:
        value = getattr(args, opt.name)
        if opt.nargs == "*":
            value = ",".join(value) or None
        if value is not None:
            params[opt.name] = value
    return params


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
        unknown = sorted(set(params) - {opt.name for opt in schema})
        if unknown:
            raise ValueError(f"unknown {kind} parameter(s): {', '.join(unknown)}")
        normal: dict[str, Any] = {}
        for opt in schema:
            if opt.name in params:
                try:
                    normal[opt.name] = opt.check(params[opt.name])
                except ValueError as exc:
                    raise ValueError(f"{kind}.{opt.name}: {exc}") from None
            elif opt.default is REQUIRED:
                raise ValueError(f"{kind}.{opt.name} is required")
            else:
                normal[opt.name] = opt.default
        if kind == "lint" and normal["uid"] is None and not normal["all"]:
            raise ValueError("lint needs a benchmark uid or all=true")
        if kind == "lint" and normal["uid"] is not None and normal["all"]:
            raise ValueError("lint takes a uid or all=true, not both")
        # Canonical order: the schema's declaration order, always fully
        # materialised — submissions that differ only in spelling or in
        # which defaults they omitted become identical specs.
        return cls(kind, tuple((opt.name, normal[opt.name]) for opt in schema))

    def as_dict(self) -> dict[str, Any]:
        return dict(self.params)

    def to_argv(self) -> list[str]:
        """The canonical ``repro`` argv this job executes.

        Workers run jobs through the real CLI entry point, so service
        results are byte-identical to direct invocations by
        construction. Parallelism flags are pinned to one worker.
        """
        argv = [self.kind]
        for opt, (_name, value) in zip(_SCHEMAS[self.kind], self.params):
            if value is None:
                continue
            if opt.const is not None:
                if value == opt.const:
                    argv.append(opt.flag)
            elif opt.flag is None:
                argv += value.split(",") if opt.nargs == "*" else [value]
            else:
                argv += [opt.flag, str(value)]
        if self.kind in _ONE_WORKER:
            argv += ["--workers", "1"]
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
        params = dict(data["spec"])
        if data["kind"] == "run":
            # A retired field: every run journaled while it existed
            # holds "backend": "fast".
            params.pop("backend", None)
        spec = JobSpec.create(data["kind"], params)
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
