"""Persistent on-disk artifact cache for simulation products.

Traces and timing results are pure functions of (benchmark uid, compiler
config, hardware config, core config) *and of the simulator's own source
code*. This module keys every artifact by a digest of the whole
``repro`` package source plus the reprs of the frozen config dataclasses,
so a warm cache can never serve results produced by different simulator
semantics: touching any ``src/repro`` file invalidates everything.

Five artifact kinds are stored (:attr:`ArtifactCache.KINDS`):

* ``trace-<key>.pkl`` — the dynamic trace of one (uid, compiler-config)
  pair, as pickled tuples. Branch-id fields inside a trace come from the
  process-global instruction uid counter, so cached bytes can differ from
  a fresh trace by a constant offset — the bimodal predictor indexes its
  table by ``uid & mask``, and aliasing depends only on pairwise uid
  *differences*, which are structural. Timing statistics computed from a
  cached trace are therefore identical to those from a fresh one.
* ``stats-<key>.json`` — a finished :class:`~repro.arch.stats.SimStats`
  for one (uid, compiler, hardware, core) combination.
* ``facts-<key>.json`` — the :class:`ProgramFacts` of one (uid,
  compiler-config) pair: the code size and the committed stream's
  instruction, checkpoint and store tallies that Figures 4, 23 and 26
  read, so a warm figure pass neither compiles nor loads a trace.
* ``golden-<key>.pkl`` — a fault-free
  :class:`~repro.faults.snapshot.GoldenRecord` (periodic machine
  snapshots plus the per-tick fingerprint stream) for one (uid,
  resilience-config, snapshot-interval, max-steps) combination, used to
  accelerate fault-injection campaigns.
* ``vuln-<key>.json`` — a serialized
  :class:`~repro.verify.vuln.VulnerabilityMap` (bit-level
  masked/vulnerable classification) for one (uid, scheme, sb-size,
  wcdl, variants, max-steps) combination.

Older caches may also hold ``codegen-<key>.py`` modules from a retired
functional backend; nothing reads them, and ``clear`` (hence ``cache
clear`` and ``cache prune``) deletes them with the rest.

Writes are atomic (temp file + ``os.replace``), so any number of
processes — the multiprocess shards of :mod:`repro.harness.runner`
included — may share one cache directory without locking. Every load is
failure-tolerant: a corrupt or truncated artifact is treated as a miss
and rewritten.

The cache root resolves in order:
1. ``REPRO_CACHE_DIR`` environment variable (``0``/``off`` disables);
2. ``~/.cache/repro-turnpike``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import re
import tempfile
from pathlib import Path
from typing import TypeVar

from repro.arch.config import CoreConfig, ResilienceHardwareConfig
from repro.arch.stats import SimStats
from repro.compiler.config import CompilerConfig

_FORMAT_VERSION = 1
_R = TypeVar("_R")
_code_digest: str | None = None


def code_digest() -> str:
    """Digest of every ``repro`` source file (computed once per process)."""
    global _code_digest
    if _code_digest is None:
        import repro

        root = Path(repro.__file__).resolve().parent
        hasher = hashlib.sha256()
        hasher.update(str(_FORMAT_VERSION).encode())
        for path in sorted(root.rglob("*.py")):
            hasher.update(str(path.relative_to(root)).encode())
            hasher.update(path.read_bytes())
        _code_digest = hasher.hexdigest()
    return _code_digest


@dataclasses.dataclass(frozen=True)
class ProgramFacts:
    """What the compiler-side figures read about one compiled program.

    ``code_size_bytes`` is the static size (Figure 26's code growth);
    the rest are :class:`~repro.runtime.trace.TraceSummary` tallies of
    the committed stream (Figure 4's checkpoint ratio, Figure 23's store
    differencing).
    """

    code_size_bytes: int
    committed: int
    checkpoints: int
    spill_stores: int
    all_stores: int


def _key(*parts: object) -> str:
    text = "|".join([code_digest(), *[repr(p) for p in parts]])
    return hashlib.sha256(text.encode()).hexdigest()[:40]


def human_size(n: int) -> str:
    """Human-readable byte count (``1023 B``, ``4.2 KiB``, ``1.3 MiB``)."""
    size = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if size < 1024 or unit == "GiB":
            return f"{int(size)} {unit}" if unit == "B" else f"{size:.1f} {unit}"
        size /= 1024
    raise AssertionError("unreachable")


def plural(kind: str) -> str:
    """The ``info()`` key counting one artifact kind."""
    return kind if kind.endswith("s") else f"{kind}s"


class ArtifactCache:
    """File-per-artifact cache under one root directory."""

    #: Every artifact kind, named by its file prefix (``<kind>-<key>``).
    #: Maintenance (``clear``, ``sync_generation``) and ``info`` counts
    #: cover exactly these.
    KINDS = ("trace", "stats", "facts", "golden", "vuln")
    #: Files of retired kinds that ``clear`` still removes.
    STALE = re.compile(r"codegen-[0-9a-f]{40}\.py")

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root).expanduser()
        self.root.mkdir(parents=True, exist_ok=True)

    @staticmethod
    def default() -> "ArtifactCache | None":
        """The environment-configured cache, or None when disabled.

        Never raises: an unusable cache directory (read-only home,
        sandboxed filesystem) degrades to no persistence.
        """
        env = os.environ.get("REPRO_CACHE_DIR")
        if env is not None and env.strip().lower() in ("", "0", "off", "none"):
            return None
        root = env or os.path.join("~", ".cache", "repro-turnpike")
        try:
            return ArtifactCache(root)
        except OSError:
            return None

    # -- keys -------------------------------------------------------------

    @staticmethod
    def trace_key(uid: str, compiler: CompilerConfig) -> str:
        return _key("trace", uid, compiler)

    @staticmethod
    def stats_key(
        uid: str,
        compiler: CompilerConfig,
        hardware: ResilienceHardwareConfig,
        core: CoreConfig,
    ) -> str:
        return _key("stats", uid, compiler, hardware, core)

    @staticmethod
    def facts_key(uid: str, compiler: CompilerConfig) -> str:
        return _key("facts", uid, compiler)

    @staticmethod
    def sweep_key(
        uid: str,
        digest: str,
        hardware: ResilienceHardwareConfig,
        core: CoreConfig,
    ) -> str:
        """Content-addressed key of one sweep design point.

        Identified by the *structural program digest* rather than the
        compiler config, so two configs that compile to the same program
        share one stats artifact across figures (``load_stats`` /
        ``store_stats`` work with this key — a sweep point is stored as
        an ordinary ``stats-<key>.json``).
        """
        return _key("sweep", uid, digest, hardware, core)

    @staticmethod
    def golden_key(
        uid: str,
        config: object,
        interval: int | None,
        max_steps: int,
    ) -> str:
        """Key for a fault-free :class:`GoldenRecord`.

        ``config`` is the machine's frozen ``ResilienceConfig`` (keyed by
        repr, like the compiler configs above); the snapshot interval and
        step budget are part of the identity because they change the
        record's snapshot grid and timeout-splice arithmetic.
        """
        return _key("golden", uid, config, interval, max_steps)

    @staticmethod
    def vuln_key(
        uid: str,
        scheme: str,
        sb_size: int,
        wcdl: int,
        variants: tuple[str, ...],
        max_steps: int,
    ) -> str:
        """Key for a serialized :class:`VulnerabilityMap`.

        The scheme + SB size identify the compiled program; WCDL,
        variant set and step budget identify the analysis run (they
        change structure occupancy and the committed horizon guard).
        """
        return _key("vuln", uid, scheme, sb_size, wcdl, variants, max_steps)

    # -- IO ----------------------------------------------------------------

    def _write_atomic(self, path: Path, data: bytes) -> None:
        try:
            fd, tmp = tempfile.mkstemp(dir=self.root, prefix=".tmp-")
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(data)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            pass  # persistence is best-effort

    def load_trace(self, key: str) -> list[tuple] | None:
        path = self.root / f"trace-{key}.pkl"
        try:
            with open(path, "rb") as fh:
                trace = pickle.load(fh)
        except (OSError, pickle.PickleError, EOFError, AttributeError):
            return None
        if not isinstance(trace, list):
            return None
        return trace

    def store_trace(self, key: str, trace: list[tuple]) -> None:
        data = pickle.dumps(trace, protocol=pickle.HIGHEST_PROTOCOL)
        self._write_atomic(self.root / f"trace-{key}.pkl", data)

    def _load_record(self, path: Path, cls: type[_R]) -> _R | None:
        """A JSON-stored dataclass, or None on any miss or corruption."""
        try:
            with open(path) as fh:
                return cls(**json.load(fh))
        except (OSError, ValueError, TypeError):
            return None

    def _store_record(self, path: Path, record: SimStats | ProgramFacts) -> None:
        data = json.dumps(dataclasses.asdict(record), sort_keys=True)
        self._write_atomic(path, data.encode())

    def load_stats(self, key: str) -> SimStats | None:
        return self._load_record(self.root / f"stats-{key}.json", SimStats)

    def store_stats(self, key: str, stats: SimStats) -> None:
        self._store_record(self.root / f"stats-{key}.json", stats)

    def load_facts(self, key: str) -> ProgramFacts | None:
        return self._load_record(self.root / f"facts-{key}.json", ProgramFacts)

    def store_facts(self, key: str, facts: ProgramFacts) -> None:
        self._store_record(self.root / f"facts-{key}.json", facts)

    def load_golden(self, key: str):
        """Load a pickled :class:`GoldenRecord`, or None on any miss.

        The import is deferred: ``repro.faults`` imports this module for
        campaign artifact storage, so a top-level import would cycle.
        """
        from repro.faults.snapshot import GoldenRecord

        path = self.root / f"golden-{key}.pkl"
        try:
            with open(path, "rb") as fh:
                record = pickle.load(fh)
        except (OSError, pickle.PickleError, EOFError, AttributeError):
            return None
        if not isinstance(record, GoldenRecord):
            return None
        return record

    def store_golden(self, key: str, record) -> None:
        data = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
        self._write_atomic(self.root / f"golden-{key}.pkl", data)

    def load_vuln(self, key: str) -> dict | None:
        """Load a serialized vulnerability map, or None on any miss."""
        path = self.root / f"vuln-{key}.json"
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, ValueError):
            return None
        if not isinstance(data, dict):
            return None
        return data

    def store_vuln(self, key: str, data: dict) -> None:
        text = json.dumps(data, sort_keys=True)
        self._write_atomic(self.root / f"vuln-{key}.json", text.encode())

    # -- maintenance -------------------------------------------------------

    def artifact_paths(self) -> list[Path]:
        prefixes = tuple(f"{kind}-" for kind in self.KINDS)
        return sorted(
            p for p in self.root.iterdir() if p.name.startswith(prefixes)
        )

    def entries(self) -> list[tuple[str, str, int]]:
        """Every artifact as ``(kind, key, bytes)``, sorted by (kind, key).

        The ordering is total and deterministic, so ``repro cache info
        --list`` output is diffable across runs and machines — the
        service integration tests and CI rely on that.
        """
        out = []
        for path in self.artifact_paths():
            kind, _, rest = path.name.partition("-")
            key = rest.rsplit(".", 1)[0]
            try:
                size = path.stat().st_size
            except OSError:
                continue
            out.append((kind, key, size))
        out.sort(key=lambda entry: (entry[0], entry[1]))
        return out

    def clear(self) -> int:
        """Delete every artifact (any generation); returns the count."""
        removed = 0
        stale = [p for p in self.root.iterdir() if self.STALE.fullmatch(p.name)]
        for path in self.artifact_paths() + stale:
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    @property
    def generation_path(self) -> Path:
        return self.root / "GENERATION"

    def sync_generation(self) -> int:
        """Reconcile the cache with the current source generation.

        Artifact keys embed :func:`code_digest`, so stale entries are
        already *unreachable* — this reclaims their disk. A marker file
        records the digest the cache was last used with: on mismatch
        every artifact is pruned (they all belong to dead generations);
        on first adoption the marker is written without pruning, since
        nothing records which generation wrote the existing artifacts
        and they may well be current (say, filled by this checkout's
        figure runs before its first ``cache prune``). Returns the
        number of artifacts removed.
        """
        digest = code_digest()[:16]
        try:
            recorded = self.generation_path.read_text().strip()
        except OSError:
            recorded = None
        removed = 0
        if recorded is not None and recorded != digest:
            removed = self.clear()
        if recorded != digest:
            self._write_atomic(self.generation_path, f"{digest}\n".encode())
        return removed

    def info(self) -> dict[str, object]:
        """Summary dict for ``repro cache info``: one count per kind,
        under the kind's plural (``traces``, ``stats``, ``facts``, ...)."""
        counts = dict.fromkeys(self.KINDS, 0)
        bytes_by_kind: dict[str, int] = {}
        total = 0
        paths = self.artifact_paths()
        for path in paths:
            kind = path.name.partition("-")[0]
            counts[kind] += 1
            try:
                size = path.stat().st_size
            except OSError:
                continue
            bytes_by_kind[kind] = bytes_by_kind.get(kind, 0) + size
            total += size
        return {
            "root": str(self.root),
            "artifacts": len(paths),
            **{plural(kind): n for kind, n in counts.items()},
            "bytes": total,
            "bytes_by_kind": dict(sorted(bytes_by_kind.items())),
            "code_digest": code_digest()[:16],
        }
