"""Snapshot acceleration for fault-injection campaigns.

A campaign's cost is dominated by re-simulating the *same* fault-free
prefix and suffix thousands of times: an injection at tick ``T`` first
replays ``T`` clean ticks to reach the strike, applies a one-tick
perturbation, recovers within a few WCDL windows, and then replays the
remaining clean suffix to completion. This module removes both replays:

* :func:`record_golden_run` records each benchmark's fault-free
  per-tick stream **once**: a register hash and an effective-memory
  hash per tick, and golden's memory traffic, every load and every
  store commit. Every (benchmark, variant) pair shares that stream and
  runs fault-free once more only to capture its own periodic
  :class:`MachineSnapshot`\\ s, checked against the stream at each.
* :func:`prepare_accelerated_run` fast-forwards an injection run by
  restoring the nearest snapshot strictly before the injection tick
  (prefix removal) and installs a convergence checker.
* Once recovery quiesces, the checker looks the injected machine's
  register hash up in the golden stream. On an aligned tick whose
  memory difference golden never reads again it raises
  :class:`ConvergedExit`, and the injector splices the golden terminal
  statistics (suffix removal). On an aligned tick whose difference
  golden does read again it may raise :class:`SkipAhead`, and
  :func:`resume_from_snapshot` continues the run from a later golden
  snapshot (stretch removal).

Soundness
---------

The register hash is a 64-bit blake2b digest of the program point (block
index and position) and the values of the registers *live* there, packed
as little-endian int64; the memory hash is an incremental XOR (Zobrist)
fingerprint of the effective memory image, the cell dict with every
pending regular store-buffer write applied. Neither uses Python's salted
``hash()``, so a golden record one process pickles into the artifact
cache matches the runs of every other. The checker only compares them
once the injected machine carries **no outstanding fault state**:
no armed injection, no pending detection, no tainted registers, no
latent ECC flips in memory or checkpoint storage, and no colour-map
parity error still waiting for its next access to trip. Tainted memory
cells are allowed; they join the delta below.

Say the run's register hash matches golden tick ``g``. Let ``D`` be the
cells whose effective value differs from golden's at ``g``, plus every
tainted cell. If golden loads no cell of ``D`` after ``g``, the run
replays golden's suffix:

* **Loads are the only path from memory into registers.** A load
  returns the youngest pending store-buffer value or the memory cell,
  which is exactly the effective image. Golden's suffix loads only
  cells outside ``D``, which hold golden's values, and both runs store
  the same values from then on, so by induction every register value,
  branch, address and step matches golden's.
* **Only tainted registers trip parity.** No register is tainted at
  ``g`` and no tainted cell is loaded again, so none ever is: no parity
  detection. With no armed strike, pending detection, ECC syndrome or
  latent colour-map parity error either, no recovery can follow.
* **Recovery metadata is write-only.** Checkpoint bindings, coloring
  maps, checkpoint storage and the CLQ are only ever *read* during a
  recovery or an injection, and neither can occur again. The
  structures may differ (a recovered run's free-list rotation and
  binding kinds diverge from golden's forever), but no future
  transition observes the difference. Drain *timing* (RBB deadlines,
  CLQ fast-release decisions) moves values between the store buffer
  and the cells without changing the effective image.
* **Liveness filtering** — recovery rebuilds only checkpointed (live)
  registers, so a recovered run's dead registers differ from golden
  forever. Dead registers cannot influence any future transition, so
  the hash covers only the registers *live at the current program
  point*, from :mod:`repro.analysis.liveness` over the compiled CFG.
  Every register read in the machine goes through ``instr.srcs`` and
  every write through ``instr.dest``, so that analysis's gen/kill is
  exact. It gives blocks unreachable from the entry empty live-in and
  live-out sets, but golden never runs them, so no tick there can
  align.

The run therefore ends with golden's remaining step count, no further
recovery, detection or ECC event, and golden's final image except for
the cells of ``D`` that golden never stores to again (the *escaped*
cells). The injector classifies it from that: an escaped cell in the
data segment makes the outcome ``sdc`` (``miscorrected`` after an ECC
miscorrection), otherwise it is ``masked``/``recovered``. An empty
``D`` (equal memory hashes, no tainted cell) is the *exact* exit; any
other match is a *delta* exit.

``D`` is built from the cells either run can have changed since the
restored snapshot: the machine's written cells (every ``_mem_write``:
fast releases, drains, memory strikes, ECC rewrites), the store-buffer
entries it holds now and held at restore, and golden's store commits
between the snapshot and ``g``. The XOR of the differing cells' hash
terms must equal the XOR of the two memory hashes; a disagreement
raises :class:`SnapshotError` instead of guessing.

When golden does load a cell of ``D`` after ``g``, let ``L`` be the
first such load. If no cell is tainted, the run skips ahead to golden's
latest snapshot ``T`` with ``g < T < L``:

* **The run replays golden until ``L``.** The induction above holds up
  to the first load of a cell of ``D``, so the run executes golden's
  instructions, boundaries included, through tick ``T``.
* **No recovery can follow.** Without a tainted cell no load ever
  taints a register, so nothing trips parity, and the guard rules out
  every other source (armed strike, pending detection, ECC syndrome,
  latent colour-map parity error). A tainted cell would keep that door
  open, so it rules the skip out.
* **Golden's metadata at ``T`` serves the run.** Recovery metadata is
  write-only without a recovery, so golden's bindings, colour maps,
  checkpoint storage, CLQ, region buffer and quarantined checkpoints at
  ``T`` are as good as the run's own. So are golden's dead registers,
  which nothing reads before writing them.
* **The effective image is golden's at ``T`` except for the cells of
  ``D`` golden does not store to in ``(g, T]``.** Drain timing moves
  values between the store buffer and the cells without changing that
  image, so golden's cells and pending stores serve for every other
  cell. Those cells keep the run's effective value at ``g``, written
  back through ``_mem_write`` so the fingerprint and the written-cell
  set follow. The written-back value lands in the cell, so
  a regular entry for that address in golden's store buffer at ``T``
  would hide it from loads and overwrite it when it drains. Such a
  snapshot is not skipped to.
* **Step counts.** From ``g`` to ``T`` the run takes golden's
  ``snap.steps - tick_steps[g]`` loop steps, so it resumes with
  ``steps + snap.steps - tick_steps[g]``, and a watchdog trip falls
  where the unaccelerated run's would. The run keeps its own
  :class:`MachineStats`: no recovery, detection or ECC event can happen
  between ``g`` and ``T``, so only the counts of commits and regions
  miss that stretch, and outcomes do not read them.

The resumed run is checked afresh from ``T``, as if restored there for
its strike. With no snapshots (``interval`` off) it never skips.

A fault-free run commits the same per-tick stream under every
:class:`ResilienceConfig`, so the variants of a campaign share one:

* **The configs change no instruction.** They differ in when stores
  drain (CLQ fast release or quarantine until verification), where
  checkpoints are kept (colour maps or quarantine), how long
  verification waits (WCDL) and how the protected arrays are encoded
  (ECC). Without a strike nothing detects or recovers.
* **Loads see the same values.** A load returns the effective value,
  the youngest pending store or else the cell, and drain timing does
  not change it. So every register value, branch, address and stored
  value is the same at every tick, and so are the effective image and
  its hash.
* **Step counts agree.** Each loop step commits a tick or executes a
  boundary, and the boundaries are the program's.

The stream is therefore a function of the compiled program, its initial
memory and the step budget, and :func:`record_golden_run` given one
only takes the snapshots. It still checks the run against it: at each
snapshot the step count, the effective-memory hash and the register
digest at that tick (exactly, from the per-tick array: the align index
drops repeated digests), and at the end the tick and step totals and
the final image's hash. Any difference raises :class:`SnapshotError`,
so a config under which a fault-free run commits another stream fails
loudly instead of splicing a wrong suffix.

A register hash shared by two golden ticks (a revisited register state
with different memory, or a 64-bit collision) could splice the wrong
suffix, so repeated hashes are dropped from the index. That is always
sound: a missed match merely means the run simulates further.
"""

from __future__ import annotations

import weakref
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from hashlib import blake2b
from itertools import islice
from operator import itemgetter
from struct import Struct

from repro.analysis.cfg import build_cfg
from repro.analysis.liveness import compute_liveness
from repro.compiler.pipeline import CompiledProgram
from repro.isa.instructions import Opcode
from repro.isa.program import Program
from repro.runtime.machine import (
    MachineSnapshot,
    ResilienceConfig,
    ResilientMachine,
    SnapshotError,
    _cell_hash,
    memory_fingerprint,
)
from repro.runtime.memory import Memory

DEFAULT_SNAPSHOT_INTERVAL = 128


class ConvergedExit(Exception):
    """Raised out of ``ResilientMachine.run`` when the injected run aligns
    with a golden tick and provably replays golden's suffix from there.

    ``golden_tick`` / ``golden_steps`` locate the matched point in the
    golden run and ``steps`` is the injected run's own step count at the
    match. ``delta`` holds the cells that differed from golden's
    effective image there or were tainted (empty for an exact
    convergence); ``escaped`` holds the differing ones golden never
    stores to again, which the run finishes with a wrong value in.
    """

    def __init__(
        self,
        golden_tick: int,
        golden_steps: int,
        steps: int,
        delta: tuple[int, ...] = (),
        escaped: tuple[int, ...] = (),
    ):
        super().__init__(
            f"converged with the golden run at tick {golden_tick}"
        )
        self.golden_tick = golden_tick
        self.golden_steps = golden_steps
        self.steps = steps
        self.delta = delta
        self.escaped = escaped


class SkipAhead(Exception):
    """Raised out of ``ResilientMachine.run`` when an aligned run is held
    back only by cells golden loads again, and a golden snapshot lies
    between the match and the first of those loads.

    The run would replay golden's instructions up to that snapshot, so
    :func:`resume_from_snapshot` continues it from there instead. Not a
    :class:`ConvergedExit`: the run is not over. ``index`` is the
    snapshot's, ``steps`` the run's step count there, and ``write_back``
    maps each differing cell golden does not store to before the
    snapshot to the run's effective value of it.
    """

    def __init__(self, index: int, steps: int, write_back: dict[int, int]):
        super().__init__(f"skip ahead to golden snapshot {index}")
        self.index = index
        self.steps = steps
        self.write_back = write_back


def _digest(packed: bytes) -> int:
    return int.from_bytes(blake2b(packed, digest_size=8).digest(), "little")


def _point_digest(
    block: int, pc: int, live: tuple[int, ...]
) -> Callable[[list[int]], int]:
    """The register digest of program point ``(block, pc)``: blake2b-64
    over the block index, the pc and the values of the registers in
    ``live``, packed as little-endian int64. Takes the machine's flat
    register list.

    Register values are signed 32-bit, and a strike flips bits below 32,
    so every value a machine holds fits an int64 and packing never
    raises.
    """
    pack = Struct(f"<{2 + len(live)}q").pack
    if not live:
        constant = _digest(pack(block, pc))
        return lambda vals: constant
    if len(live) == 1:
        (only,) = live
        return lambda vals: _digest(pack(block, pc, vals[only]))
    get = itemgetter(*live)
    return lambda vals: _digest(pack(block, pc, *get(vals)))


# The register digest of every program point, per block and position:
# built once per Program and memoised weakly like the machine's decode
# cache, because a campaign hashes one program in thousands of runs (the
# liveness fixpoint alone costs more than a typical accelerated run).
# It holds closures, so it stays out of the pickled GoldenRecord.
_DIGEST_CACHE: "weakref.WeakKeyDictionary[Program, dict[str, list]]" = (
    weakref.WeakKeyDictionary()
)


def _register_digests(
    program: Program,
) -> dict[str, list[Callable[[list[int]], int]]]:
    table = _DIGEST_CACHE.get(program)
    if table is None:
        liveness = compute_liveness(build_cfg(program))
        table = _DIGEST_CACHE[program] = {}
        for index, block in enumerate(program.blocks):
            # Live before each instruction, then the block's live-out.
            sets = [liveness.live_before_block(block.label)]
            sets += [live for _, live in liveness.live_after(block.label)]
            table[block.label] = [
                _point_digest(index, pc, tuple(sorted(r.index for r in live)))
                for pc, live in enumerate(sets)
            ]
    return table


class _FingerprintEngine:
    """Computes per-tick register and memory hashes for one machine.

    The register hash of ``(label, pc)`` is one blake2b-64 digest of the
    block index, the pc and the values of the registers live there (see
    :func:`_point_digest`); dead registers are left out because recovery
    does not rebuild them. Neither hash uses Python's ``hash()``, which
    is salted per process for ``bytes`` and ``str`` and maps ``-1`` and
    ``-2`` to the same int, so a golden record pickled by one worker
    aligns with the runs of any other.
    """

    def __init__(self, machine: ResilientMachine):
        self.machine = machine
        self.digests = _register_digests(machine.program)
        self._vals = machine.regs.vals

    # -- the observable canon ---------------------------------------------

    def register_hash(self, label: str, pc: int) -> int:
        """Digest of the program point ``(label, pc)`` and the values of
        the registers live there."""
        return self.digests[label][pc](self._vals)

    def memory_hash(self) -> int:
        """XOR fingerprint of the effective memory image: every pending
        regular store-buffer entry applied over the cell dict, exactly
        the values loads can observe and drains will eventually merge."""
        m = self.machine
        eff = m._mem_fp
        entries = m.sb.entries
        if entries:
            pending: dict[int, int] = {}
            for entry in entries:
                if not entry.is_checkpoint:
                    pending[entry.addr] = entry.value  # youngest wins
            if pending:
                cells_get = m.mem.cells.get
                for addr, value in pending.items():
                    eff ^= _cell_hash(addr, cells_get(addr, 0))
                    eff ^= _cell_hash(addr, value)
        return eff


def _memory_ops(program: Program) -> dict[str, list[tuple | None]]:
    """Per block position, the memory access of the next instruction to
    commit: ``(is_store, base, imm, value)`` register indices, or None.

    Boundaries are skipped: they commit nothing and write no register,
    so the access can be read off the registers before it executes.
    """
    ops: dict[str, list[tuple | None]] = {}
    for block in program.blocks:
        instrs = block.instructions
        row: list[tuple | None] = [None] * (len(instrs) + 1)
        following: tuple | None = None
        for i in range(len(instrs) - 1, -1, -1):
            instr = instrs[i]
            if instr.op is Opcode.LD:
                following = (False, instr.srcs[0].index, instr.imm, 0)
            elif instr.op is Opcode.ST:
                value, base = instr.srcs
                following = (True, base.index, instr.imm, value.index)
            elif instr.op is not Opcode.BOUNDARY:
                following = None
            row[i] = following
        ops[block.label] = row
    return ops


class _SortedIntMap:
    """Read-only int -> int map as two parallel arrays, keys sorted.

    A lookup bisects the key array. An entry costs its two array slots
    instead of a dict's table slot plus boxed key and value, and the map
    pickles as two byte strings.
    """

    __slots__ = ("keys", "values")

    def __init__(self, mapping: dict[int, int], key_type: str, value_type: str):
        keys = sorted(mapping)
        self.keys = array(key_type, keys)
        self.values = array(value_type, map(mapping.__getitem__, keys))

    def __len__(self) -> int:
        return len(self.keys)

    def get(self, key: int, default: int | None = None) -> int | None:
        keys = self.keys
        i = bisect_left(keys, key)
        if i < len(keys) and keys[i] == key:
            return self.values[i]
        return default


class _StoreHistory:
    """Golden's store commits, by tick and by address.

    A commit sets its address's effective value at once (a quarantined
    store is forwarded to loads; its later drain changes nothing), so
    golden's effective value of a cell at tick ``g`` is that of its last
    store at or before ``g``, or the initial image's.
    """

    __slots__ = ("ticks", "addrs", "cell_addrs", "cell_ticks", "cell_values")

    def __init__(self, log: list[tuple[int, int, int]]):
        """``log`` holds ``(tick, addr, value)`` in commit order."""
        self.ticks = array("I", [t for t, _, _ in log])
        self.addrs = array("q", [a for _, a, _ in log])
        by_cell = sorted(log, key=lambda e: (e[1], e[0]))
        self.cell_addrs = array("q", [a for _, a, _ in by_cell])
        self.cell_ticks = array("I", [t for t, _, _ in by_cell])
        self.cell_values = array("q", [v for _, _, v in by_cell])

    def __len__(self) -> int:
        return len(self.ticks)

    def addresses_between(self, after: int, until: int) -> array:
        """Addresses of the stores committed at ticks in ``(after, until]``."""
        ticks = self.ticks
        return self.addrs[bisect_right(ticks, after):bisect_right(ticks, until)]

    def _span(self, addr: int) -> tuple[int, int]:
        lo = bisect_left(self.cell_addrs, addr)
        return lo, bisect_right(self.cell_addrs, addr, lo)

    def value_at(self, addr: int, tick: int, initial: int) -> int:
        """Golden's effective value of ``addr`` at ``tick``."""
        lo, hi = self._span(addr)
        i = bisect_right(self.cell_ticks, tick, lo, hi) - 1
        return self.cell_values[i] if i >= lo else initial

    def last_tick(self, addr: int) -> int:
        """Tick of golden's last store to ``addr`` (0 if it never stores)."""
        lo, hi = self._span(addr)
        return self.cell_ticks[hi - 1] if hi > lo else 0

    def stores_between(self, addr: int, after: int, until: int) -> bool:
        """Whether golden stores to ``addr`` at a tick in ``(after, until]``."""
        lo, hi = self._span(addr)
        ticks = self.cell_ticks
        return bisect_right(ticks, after, lo, hi) < bisect_right(ticks, until, lo, hi)


class _LoadHistory:
    """Golden's loads as two columns sorted by ``(addr, tick)``.

    The loads of one address are one ascending run of ticks, so the same
    columns answer golden's last load of a cell and its next load after
    a given tick.
    """

    __slots__ = ("addrs", "ticks")

    def __init__(self, log: list[tuple[int, int]]):
        """``log`` holds ``(addr, tick)`` pairs, in any order."""
        log = sorted(log)
        self.addrs = array("q", [a for a, _ in log])
        self.ticks = array("I", [t for _, t in log])

    def _span(self, addr: int) -> tuple[int, int]:
        lo = bisect_left(self.addrs, addr)
        return lo, bisect_right(self.addrs, addr, lo)

    def ticks_of(self, addr: int) -> array:
        """The ticks golden loads ``addr`` at, ascending."""
        lo, hi = self._span(addr)
        return self.ticks[lo:hi]

    def last_tick(self, addr: int) -> int:
        """Tick of golden's last load of ``addr`` (0 if it never loads it)."""
        lo, hi = self._span(addr)
        return self.ticks[hi - 1] if hi > lo else 0

    def next_tick(self, addr: int, after: int) -> int | None:
        """Tick of golden's first load of ``addr`` after tick ``after``."""
        lo, hi = self._span(addr)
        i = bisect_right(self.ticks, after, lo, hi)
        return self.ticks[i] if i < hi else None


def _canon_expr(expr) -> tuple:
    return (
        expr.kind,
        expr.opcode.name if expr.opcode is not None else None,
        tuple(r.index for r in expr.regs),
        expr.imm,
    )


def _canon_binding(binding) -> tuple:
    kind, payload = binding
    if kind == "value":
        return (0, payload)
    if kind == "slot":
        return (1, payload)
    return (2, _canon_expr(payload))


def full_state_canonical(machine: ResilientMachine, t: int) -> tuple:
    """Exhaustive translation-invariant encoding of the machine state.

    Much stricter than the observable canon the convergence checker
    uses: every protocol structure is included, with region-instance
    ids renumbered by age rank and timestamps made relative to ``t``.
    The parity suite uses it to assert that ``snapshot``/``restore``
    reproduces a machine *exactly*, not merely observably.
    """
    m = machine
    rbb = m.rbb
    imap = {
        inst.instance: rank
        for rank, inst in enumerate(rbb.active_instances())
    }
    rank_of = imap.get
    cur = rbb.current
    return (
        tuple(sorted((r.index, v) for r, v in m.regs.items())),
        tuple(sorted(m.mem.cells.items())),
        (cur.region_id, cur.start_time - t) if cur is not None else None,
        tuple(
            (inst.region_id, inst.start_time - t, inst.end_time - t)
            for inst in rbb.unverified
        ),
        m.sb.canonical(imap),
        m.clq.canonical(imap) if m.clq is not None else None,
        m.coloring.canonical(imap),
        tuple(sorted(m.ckpt_storage.items())),
        tuple(sorted(
            (idx, _canon_binding(b)) for idx, b in m.vc_bindings.items()
        )),
        tuple(
            (
                rank_of(inst, ~inst),
                tuple(
                    (ridx, _canon_binding(b))
                    for ridx, b in bindings.items()
                ),
            )
            for inst, bindings in m.pending_bindings.items()
        ),
        m._detection_due is None,
        tuple(sorted(
            (key, tuple(sorted(bits)))
            for key, bits in m._slot_flips.items()
        )),
        tuple(sorted(
            (addr, tuple(sorted(bits)))
            for addr, bits in m._mem_flips.items()
        )),
        tuple(sorted(r.index for r in m._tainted_regs)),
        tuple(sorted(m._tainted_cells)),
    )


class _ConvergenceChecker:
    """``_on_tick`` hook: raises :class:`ConvergedExit` on a golden match,
    or :class:`SkipAhead` on a blocked one that can resume further on.

    Checks are gated on the machine carrying *no outstanding fault
    state*, then throttled with an exponential backoff (reset whenever a
    new recovery fires, since convergence usually follows within a few
    ticks of the rollback).
    """

    MAX_GAP = 64

    __slots__ = ("_machine", "_record", "_engine", "_since", "_initial",
                 "_restored_sb", "_blocker", "_gap", "_wait", "_recoveries")

    def __init__(self, machine: ResilientMachine, record: GoldenRecord,
                 since: int, initial: dict[int, int]):
        self._machine = machine
        self._record = record
        self._engine = _FingerprintEngine(machine)
        # The golden tick the machine's state was restored to, golden's
        # initial cells, and the store-buffer addresses held at restore.
        self._since = since
        self._initial = initial
        self._restored_sb = frozenset(
            e.addr for e in machine.sb.entries if not e.is_checkpoint
        )
        # The delta cell that golden loaded later at the last attempt.
        self._blocker: int | None = None
        self._gap = 1
        self._wait = 0
        self._recoveries = machine.stats.recoveries

    def __call__(self, label: str, pc: int, t: int, steps: int) -> None:
        m = self._machine
        recoveries = m.stats.recoveries
        if recoveries != self._recoveries:
            self._recoveries = recoveries
            self._gap = 1
            self._wait = 0
        if (
            m._tainted_regs
            or m._detection_due is not None
            or m._slot_flips
            or m._mem_flips
            or (m.coloring.parity_bad and not m.coloring.poisoned)
        ):
            # Outstanding fault state: cannot have converged yet. A struck
            # colour map counts until an access observes it, because that
            # access trips parity and forces a recovery.
            return
        if self._wait:
            self._wait -= 1
            return
        record = self._record
        g = record.align_index.get(self._engine.register_hash(label, pc))
        if g is not None:
            delta = self._memory_delta(g, steps)
            if delta is not None:
                raise ConvergedExit(g, record.tick_steps[g], steps, *delta)
        self._wait = self._gap
        if self._gap < self.MAX_GAP:
            self._gap <<= 1

    def _memory_delta(
        self, g: int, steps: int
    ) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
        """``(delta, escaped)`` at a register match with golden tick ``g``,
        or None when golden loads a cell of the delta after ``g``.

        Raises :class:`SkipAhead` instead of returning None when the run
        can resume from a golden snapshot before that load.
        """
        m = self._machine
        record = self._record
        tainted = m._tainted_cells
        drift = self._engine.memory_hash() ^ record.mem_hashes[g]
        if not drift and not tainted:
            return (), ()
        loads = record.loads
        blocker = self._blocker
        if blocker is not None and loads.last_tick(blocker) > g:
            # Usually the run is still aligned and that cell still
            # differs: cheaper to confirm than to rebuild the delta, unless
            # a snapshot before its next load could be resumed from.
            if blocker in tainted:
                return None
            ours = m.sb.forward(blocker)
            if ours is None:
                ours = m.mem.cells.get(blocker, 0)
            initial = self._initial.get(blocker, 0)
            if ours != record.stores.value_at(blocker, g, initial) and (
                record.snapshot_index_between(
                    g, loads.next_tick(blocker, g)
                ) is None
            ):
                return None
        differing = self._differing_cells(g, drift) if drift else {}
        delta = tainted.union(differing)
        for addr in delta:
            if loads.last_tick(addr) > g:
                self._blocker = addr
                if not tainted:
                    self._skip_ahead(g, steps, differing)
                return None
        last_store = record.stores.last_tick
        escaped = [addr for addr in differing if last_store(addr) <= g]
        return tuple(sorted(delta)), tuple(sorted(escaped))

    def _skip_ahead(self, g: int, steps: int, differing: dict[int, int]) -> None:
        """Raise :class:`SkipAhead` to golden's latest snapshot before its
        next load of a ``differing`` cell (the run's effective values at
        golden tick ``g``), if there is one and no pending store of
        golden's there would hide a cell written back."""
        record = self._record
        next_tick = record.loads.next_tick
        until = min(
            tick for tick in (next_tick(addr, g) for addr in differing)
            if tick is not None
        )
        index = record.snapshot_index_between(g, until)
        if index is None:
            return
        snap = record.snapshots[index]
        stores_between = record.stores.stores_between
        write_back = {
            addr: ours for addr, ours in differing.items()
            if not stores_between(addr, g, snap.t)
        }
        if any(
            not is_checkpoint and addr in write_back
            for _, is_checkpoint, addr, *_ in snap.sb
        ):
            return
        raise SkipAhead(
            index, steps + snap.steps - record.tick_steps[g], write_back
        )

    def _differing_cells(self, g: int, drift: int) -> dict[int, int]:
        """Cells whose effective value differs from golden's at tick ``g``,
        mapped to the run's value and checked against ``drift``, the XOR
        of the two memory hashes."""
        m = self._machine
        stores = self._record.stores
        pending: dict[int, int] = {}
        for entry in m.sb.entries:
            if not entry.is_checkpoint:
                pending[entry.addr] = entry.value  # youngest wins
        after, until = sorted((self._since, g))
        candidates = set(m._written_cells)
        candidates.update(
            pending, self._restored_sb, stores.addresses_between(after, until)
        )
        cells_get = m.mem.cells.get
        initial_get = self._initial.get
        differing = {}
        for addr in candidates:
            ours = pending[addr] if addr in pending else cells_get(addr, 0)
            theirs = stores.value_at(addr, g, initial_get(addr, 0))
            if ours != theirs:
                differing[addr] = ours
                drift ^= _cell_hash(addr, ours) ^ _cell_hash(addr, theirs)
        if drift:
            raise SnapshotError(
                f"memory delta at golden tick {g} disagrees with the memory "
                "hash: a changed cell is missing from the candidate set, or "
                "the golden record's store history is wrong"
            )
        return differing


@dataclass
class GoldenRecord:
    """One fault-free run's acceleration artefacts.

    The per-tick stream is the same under every config (see the module
    docstring), and the records of one program and step budget may share
    its objects. ``reg_hashes``, ``tick_steps`` and ``mem_hashes`` are
    indexed by golden tick (0 is the initial state): the register hash,
    the loop-step count and the effective-memory hash there.
    ``align_index`` maps each unambiguous register hash to its tick,
    ``loads`` holds every load commit and ``stores`` every store commit.
    The snapshots are the record's own: ``snapshots`` carry
    delta-encoded machine images at ``snap_times`` (ascending), taken
    every ``interval`` ticks.
    """

    interval: int | None
    max_steps: int
    total_ticks: int
    total_steps: int
    align_index: _SortedIntMap = field(repr=False)
    reg_hashes: array = field(repr=False)
    tick_steps: array = field(repr=False)
    mem_hashes: array = field(repr=False)
    loads: _LoadHistory = field(repr=False)
    stores: _StoreHistory = field(repr=False)
    snap_times: list[int] = field(repr=False)
    snapshots: list[MachineSnapshot] = field(repr=False)

    def snapshot_index_before(self, time: int) -> int | None:
        """Index of the latest snapshot strictly before ``time``.

        Strict: restoring *at* the injection tick would land after
        ``_maybe_inject`` already passed that tick, silently skipping
        the strike.
        """
        i = bisect_left(self.snap_times, time) - 1
        return i if i >= 0 else None

    def snapshot_index_between(self, after: int, until: int) -> int | None:
        """Index of the latest snapshot at a tick in ``(after, until)``."""
        i = self.snapshot_index_before(until)
        return i if i is not None and self.snap_times[i] > after else None

    def share_stream(self, stream: GoldenRecord) -> GoldenRecord | None:
        """This record holding ``stream``'s per-tick objects, or None when
        the two per-tick streams differ in any field."""
        if _stream_columns(self) != _stream_columns(stream):
            return None
        return replace(
            self, **{name: getattr(stream, name) for name in _STREAM_FIELDS}
        )

    def cells_at(self, index: int, base_cells: dict[int, int]) -> dict[int, int]:
        """Memory cell dict at snapshot ``index``: the initial image plus
        every delta up to and including that snapshot.

        Rebuilt fresh on every call — memoising per-snapshot full images
        would multiply the working set by the snapshot count — so the
        caller owns the dict and may hand it to ``restore``.
        """
        cells = dict(base_cells)
        for snap in self.snapshots[: index + 1]:
            cells.update(snap.mem_delta)
        return cells


_STREAM_FIELDS = (
    "total_ticks", "total_steps", "align_index", "reg_hashes", "tick_steps",
    "mem_hashes", "loads", "stores",
)


def _stream_columns(record: GoldenRecord) -> list[object]:
    """Every per-tick field of ``record``, the slotted ones as tuples."""
    columns: list[object] = []
    for name in _STREAM_FIELDS:
        value = getattr(record, name)
        slots = getattr(value, "__slots__", None)
        columns.append(
            value if slots is None else tuple(getattr(value, s) for s in slots)
        )
    return columns


class _SnapshotGrid:
    """The periodic snapshots of one golden run, every ``interval`` ticks
    (none when ``interval`` is None); the hook takes one once ``t``
    reaches ``due``."""

    __slots__ = ("machine", "interval", "due", "times", "snapshots")

    def __init__(self, machine: ResilientMachine, interval: int | None):
        self.machine = machine
        self.interval = interval
        self.due: float = interval if interval is not None else float("inf")
        self.times: list[int] = []
        self.snapshots: list[MachineSnapshot] = []

    def take(self, label: str, pc: int, t: int, steps: int) -> None:
        # The recorder owns its machine and never restores it, so the
        # cells written since the last snapshot are exactly the next
        # delta's keys.
        written = self.machine._written_cells
        self.snapshots.append(
            self.machine.snapshot(label, pc, t, steps, written=written)
        )
        self.times.append(t)
        written.clear()
        self.due = t + self.interval


def record_golden_run(
    compiled: CompiledProgram,
    config: ResilienceConfig,
    memory: Memory,
    *,
    interval: int | None = DEFAULT_SNAPSHOT_INTERVAL,
    max_steps: int = 4_000_000,
    golden_image: dict[int, int] | None = None,
    stream: GoldenRecord | None = None,
) -> GoldenRecord:
    """Execute one fault-free run and capture its acceleration record.

    ``interval`` spaces the periodic snapshots in ticks (``None`` or
    ``<= 0`` takes none: fast-forward disabled, the degenerate
    configuration the parity suite exercises). When ``golden_image``
    (the interpreter reference) is given, the run's final data image is
    checked against it: splicing is only sound if the golden suffix
    itself terminates correctly.

    ``stream`` is a record of the same compiled program, memory and
    ``max_steps``, under any config. A fault-free run commits the same
    per-tick stream under every config (see the module docstring), so
    the run then only takes its snapshots, and the returned record holds
    the stream's own per-tick objects. At each snapshot the run's step
    count, effective-memory hash and register digest must equal the
    stream's at that tick, and at the end its tick and step totals and
    its final image's hash must; any difference raises
    :class:`SnapshotError`.
    """
    if interval is not None and interval <= 0:
        interval = None
    if stream is not None and stream.max_steps != max_steps:
        raise SnapshotError(
            f"golden stream was recorded with max_steps={stream.max_steps}, "
            f"not {max_steps}"
        )
    machine = ResilientMachine(compiled, config, memory.copy(),
                               max_steps=max_steps)
    machine._mem_fp = memory_fingerprint(machine.mem.cells)
    grid = _SnapshotGrid(machine, interval)
    if stream is None:
        stream = _record_stream(machine, grid)
    else:
        _follow_stream(machine, stream, grid)
    if golden_image is not None and machine.mem.data_image() != golden_image:
        raise SnapshotError(
            "fault-free resilient run diverged from the interpreter "
            "reference image; refusing to build an acceleration record"
        )
    return replace(
        stream, interval=interval, snap_times=grid.times,
        snapshots=grid.snapshots,
    )


def _record_stream(
    machine: ResilientMachine, grid: _SnapshotGrid
) -> GoldenRecord:
    """Run the fault-free ``machine`` to its end, taking ``grid``'s
    snapshots; return its per-tick stream as a record without any."""
    program = machine.program
    engine = _FingerprintEngine(machine)
    memory_hash = engine.memory_hash
    sb = machine.sb
    vals = machine.regs.vals
    ops = _memory_ops(program)
    # Per block position: the register digest and the memory access of
    # the next instruction, fetched with one lookup per tick.
    points = {
        label: list(zip(row, ops[label]))
        for label, row in engine.digests.items()
    }
    entry = program.entry.label
    reg_hashes = array("Q", [engine.register_hash(entry, 0)])
    tick_steps = array("I", [0])
    mem_hashes = array("Q", [machine._mem_fp])
    reg_append = reg_hashes.append
    mem_append = mem_hashes.append
    steps_append = tick_steps.append
    loads: list[tuple[int, int]] = []
    loads_append = loads.append
    stores: list[tuple[int, int, int]] = []
    stores_append = stores.append
    # The pending stores' term of the memory hash (memory_hash() ^ the
    # cells' fingerprint), redone only when the store buffer changes. A
    # push appends to its list and a drain replaces it; a fault-free run
    # changes no entry in place, and fast release skips every address
    # with a pending entry, so the cells under the entries stay put.
    overlay = 0
    entries = sb.entries
    pending = len(entries)

    def access(op: tuple, t: int) -> None:
        """Log the load or store that commits at tick ``t``."""
        is_store, base, imm, value = op
        addr = vals[base] + imm
        if is_store:
            stores_append((t, addr, vals[value]))
        else:
            loads_append((addr, t))

    def hook(label: str, pc: int, t: int, steps: int) -> None:
        nonlocal overlay, entries, pending
        digest, op = points[label][pc]
        reg_append(digest(vals))
        if sb.entries is not entries or len(entries) != pending:
            entries = sb.entries
            pending = len(entries)
            overlay = memory_hash() ^ machine._mem_fp
        mem_append(machine._mem_fp ^ overlay)
        steps_append(steps)
        if op is not None:
            access(op, t + 1)
        if t >= grid.due:
            grid.take(label, pc, t, steps)

    op = ops[entry][0]
    if op is not None:
        access(op, 1)
    machine._on_tick = hook
    stats = machine.run()
    machine._on_tick = None
    # The hook runs once per committed tick except the final RET's, so
    # tick t's entries sit at index t of the per-tick arrays.
    total_ticks = len(reg_hashes) - 1
    if total_ticks != stats.committed - 1:
        raise SnapshotError(
            f"golden run committed {stats.committed} ticks but the tick "
            f"hook saw {total_ticks}; per-tick records would misalign"
        )
    # Every loop iteration either commits a tick (including the final
    # RET), executes a boundary, or takes a recovery — and a fault-free
    # run never recovers — so the exact step total is:
    total_steps = stats.committed + stats.regions
    # Keep only register hashes that occur at exactly one tick.
    tick_of = dict(zip(islice(reg_hashes, 1, None), range(1, total_ticks + 1)))
    if len(tick_of) < total_ticks:
        for digest, count in Counter(islice(reg_hashes, 1, None)).items():
            if count > 1:
                del tick_of[digest]
    return GoldenRecord(
        interval=None,
        max_steps=machine.max_steps,
        total_ticks=total_ticks,
        total_steps=total_steps,
        align_index=_SortedIntMap(tick_of, "Q", "I"),
        reg_hashes=reg_hashes,
        tick_steps=tick_steps,
        mem_hashes=mem_hashes,
        loads=_LoadHistory(loads),
        stores=_StoreHistory(stores),
        snap_times=[],
        snapshots=[],
    )


def _follow_stream(
    machine: ResilientMachine, stream: GoldenRecord, grid: _SnapshotGrid
) -> None:
    """Run the fault-free ``machine`` to its end, taking only ``grid``'s
    snapshots, and check at each and at the end that it is where
    ``stream`` is."""
    engine = _FingerprintEngine(machine)
    end = stream.total_ticks

    def left(what: str, t: int) -> SnapshotError:
        return SnapshotError(
            f"fault-free run left the golden stream at tick {t}: its {what} "
            "differs (a stream of another program, memory or step budget, "
            "or a config under which a fault-free run commits another "
            "stream)"
        )

    if machine._mem_fp != stream.mem_hashes[0]:
        raise left("initial memory hash", 0)

    def hook(label: str, pc: int, t: int, steps: int) -> None:
        if t < grid.due:
            return
        if t > end:
            raise left("tick count", t)
        if steps != stream.tick_steps[t]:
            raise left("step count", t)
        if engine.memory_hash() != stream.mem_hashes[t]:
            raise left("effective-memory hash", t)
        # Tick t's own digest: the align index drops repeated ones.
        if engine.register_hash(label, pc) != stream.reg_hashes[t]:
            raise left("register digest", t)
        grid.take(label, pc, t, steps)

    machine._on_tick = hook
    stats = machine.run()
    machine._on_tick = None
    if stats.committed - 1 != end:
        raise left("tick count", stats.committed - 1)
    if stats.committed + stats.regions != stream.total_steps:
        raise left("step count", end)
    # The final drain merges every pending store, and the RET stores
    # nothing: the cells end as the last tick's effective image.
    if machine._mem_fp != stream.mem_hashes[end]:
        raise left("final image's hash", end)


def prepare_accelerated_run(
    machine: ResilientMachine,
    record: GoldenRecord,
    injection_time: int,
    base_memory: Memory,
) -> None:
    """Fast-forward ``machine`` to just before ``injection_time`` and arm
    the convergence checker.

    Must be called *before* ``arm_injection`` (restore overwrites the
    machine's injection field) and before ``run``. ``base_memory`` is
    the image the golden run started from. The machine's cells are
    replaced either way, with a fresh copy of that image or with the
    restored snapshot's, so it can be built with no memory.

    ``run`` may then raise :class:`ConvergedExit`, or :class:`SkipAhead`,
    after which :func:`resume_from_snapshot` prepares the next ``run``.
    """
    index = record.snapshot_index_before(injection_time)
    since = _install_golden(machine, record, index, base_memory)
    machine._on_tick = _ConvergenceChecker(
        machine, record, since, base_memory.cells
    )


def resume_from_snapshot(
    machine: ResilientMachine,
    record: GoldenRecord,
    skip: SkipAhead,
    base_memory: Memory,
) -> None:
    """Continue a run that raised ``skip`` from golden's snapshot: the
    next ``run`` resumes there, under a fresh convergence checker.

    The machine takes golden's state at the snapshot, but keeps its own
    statistics, its cells of ``skip.write_back`` at its own values, and
    its own step count (``skip.steps``).
    """
    stats = machine.stats
    since = _install_golden(machine, record, skip.index, base_memory)
    machine.stats = stats
    for addr, value in skip.write_back.items():
        machine._mem_write(addr, value)
    label, pc, t, _ = machine._resume
    machine._resume = (label, pc, t, skip.steps)
    machine._on_tick = _ConvergenceChecker(
        machine, record, since, base_memory.cells
    )


def _install_golden(
    machine: ResilientMachine,
    record: GoldenRecord,
    index: int | None,
    base_memory: Memory,
) -> int:
    """Give ``machine`` golden's state at snapshot ``index`` (golden tick
    0 when None) with an image of its own; return that golden tick."""
    if index is None:
        # Still at golden tick 0, whose fingerprint the record holds.
        machine.mem.cells = dict(base_memory.cells)
        machine._mem_fp = record.mem_hashes[0]
        return 0
    snap = record.snapshots[index]
    machine.restore(snap, cells=record.cells_at(index, base_memory.cells))
    return snap.t
