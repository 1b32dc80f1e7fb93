"""Snapshot acceleration for fault-injection campaigns.

A campaign's cost is dominated by re-simulating the *same* fault-free
prefix and suffix thousands of times: an injection at tick ``T`` first
replays ``T`` clean ticks to reach the strike, applies a one-tick
perturbation, recovers within a few WCDL windows, and then replays the
remaining clean suffix to completion. This module removes both replays:

* :func:`record_golden_run` executes each (benchmark, variant) pair
  fault-free **once**, capturing periodic :class:`MachineSnapshot`\\ s,
  a per-tick register hash and effective-memory hash, and golden's
  memory traffic: the last load of every address and every store
  commit.
* :func:`prepare_accelerated_run` fast-forwards an injection run by
  restoring the nearest snapshot strictly before the injection tick
  (prefix removal) and installs a convergence checker.
* Once recovery quiesces, the checker looks the injected machine's
  register hash up in the golden stream. On an aligned tick whose
  memory difference golden never reads again it raises
  :class:`ConvergedExit`, and the injector splices the golden terminal
  statistics (suffix removal).

Soundness
---------

The register hash covers the program point and the values of the
registers *live* there; the memory hash is an incremental XOR (Zobrist)
fingerprint of the effective memory image, the cell dict with every
pending regular store-buffer write applied. The checker only compares
them once the injected machine carries **no outstanding fault state**:
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
  point*, computed by a backward dataflow fixpoint over the compiled
  CFG.

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

A register hash shared by two golden ticks (a revisited register state
with different memory, or a 64-bit collision) could splice the wrong
suffix, so repeated hashes are dropped from the index. That is always
sound: a missed match merely means the run simulates further.
"""

from __future__ import annotations

import weakref
from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Iterable
from dataclasses import dataclass, field

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

DEFAULT_SNAPSHOT_INTERVAL = 256

_M64 = (1 << 64) - 1


def _mix64(x: int) -> int:
    """splitmix64 finalizer: full-avalanche 64-bit mix, pure arithmetic.

    Process-independent by construction (Python's builtin ``hash`` is
    salted per process, so golden records written by one worker must not
    be matched with it), and an order of magnitude cheaper than hashing
    a ``repr`` — the golden recording computes a hash every tick.
    """
    x &= _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


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


class _Liveness:
    """The registers live before every instruction of one program.

    Built once per program and shared by every machine that hashes it:
    the fixpoint costs more than a typical accelerated run.
    """

    def __init__(self, program: Program):
        self.block_index = {b.label: i for i, b in enumerate(program.blocks)}
        self._succs: dict[str, list[str]] = {}
        for block in program.blocks:
            succs: list[str] = []
            for instr in block.instructions:
                if instr.targets:
                    succs.extend(instr.targets)
            self._succs[block.label] = succs
        self._block_live_in = self._solve_liveness(program)
        # label -> per-position live-register tuples (lazily materialised).
        self._live: dict[str, list[tuple]] = {}
        self._blocks = {b.label: b.instructions for b in program.blocks}

    def _solve_liveness(self, program: Program) -> dict[str, set]:
        """Backward may-liveness fixpoint over the compiled CFG.

        Every register read in the machine goes through ``instr.srcs``
        (ALU operands, load bases, store value+base, branch operands,
        checkpoint sources), and every write through ``instr.dest``, so
        gen/kill straight off the instruction encoding is exact.
        """
        live_in: dict[str, set] = {b.label: set() for b in program.blocks}
        changed = True
        while changed:
            changed = False
            for block in reversed(program.blocks):
                live: set = set()
                for succ in self._succs[block.label]:
                    live |= live_in[succ]
                for instr in reversed(block.instructions):
                    if instr.dest is not None:
                        live = live - {instr.dest}
                    if instr.srcs:
                        live = live | set(instr.srcs)
                if live != live_in[block.label]:
                    live_in[block.label] = live
                    changed = True
        return live_in

    def live_list(self, label: str) -> list[tuple]:
        """Live register *indices* before each instruction (plus live-out).

        Stored as sorted index tuples so the register hash can read the
        machine's flat register list directly, in ascending index order.
        """
        cached = self._live.get(label)
        if cached is not None:
            return cached
        instrs = self._blocks[label]
        live: set = set()
        for succ in self._succs[label]:
            live |= self._block_live_in[succ]
        out: list[tuple] = [()] * (len(instrs) + 1)
        out[len(instrs)] = tuple(sorted(r.index for r in live))
        for i in range(len(instrs) - 1, -1, -1):
            instr = instrs[i]
            if instr.dest is not None:
                live = live - {instr.dest}
            if instr.srcs:
                live = live | set(instr.srcs)
            out[i] = tuple(sorted(r.index for r in live))
        self._live[label] = out
        return out


# Memoised per Program, weakly like the machine's decode cache: a
# campaign hashes one program in thousands of runs.
_LIVENESS_CACHE: "weakref.WeakKeyDictionary[Program, _Liveness]" = (
    weakref.WeakKeyDictionary()
)


class _FingerprintEngine:
    """Computes per-tick register and memory hashes for one machine."""

    def __init__(self, machine: ResilientMachine):
        self.machine = machine
        program = machine.program
        liveness = _LIVENESS_CACHE.get(program)
        if liveness is None:
            liveness = _LIVENESS_CACHE[program] = _Liveness(program)
        self._liveness = liveness

    # -- the observable canon ---------------------------------------------

    def register_hash(self, label: str, pc: int) -> int:
        """Stable hash of the program point ``(label, pc)`` and the values
        of the registers live there.

        Iterated splitmix64 over (block, pc, live values...): each step is
        order-sensitive, so this is a stable 64-bit digest of that tuple.
        """
        liveness = self._liveness
        live = liveness.live_list(label)
        live_regs = live[pc] if pc < len(live) else live[-1]
        vals = self.machine.regs.vals
        h = _mix64(liveness.block_index[label] * 0x9E3779B97F4A7C15 + pc + 1)
        for i in live_regs:
            h = _mix64(h ^ (vals[i] & _M64))
        return h

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

    def __init__(
        self, items: Iterable[tuple[int, int]], key_type: str, value_type: str
    ):
        pairs = sorted(items)
        self.keys = array(key_type, [k for k, _ in pairs])
        self.values = array(value_type, [v for _, v in pairs])

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
    """``_on_tick`` hook: raises :class:`ConvergedExit` on a golden match.

    Checks are gated on the machine carrying *no outstanding fault
    state*, then throttled with an exponential backoff (reset whenever a
    new recovery fires, since convergence usually follows within a few
    ticks of the rollback).
    """

    MAX_GAP = 64

    __slots__ = ("_machine", "_record", "_engine", "_since", "_initial",
                 "_restored_sb", "_blocker", "_gap", "_skip", "_recoveries")

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
        self._skip = 0
        self._recoveries = machine.stats.recoveries

    def __call__(self, label: str, pc: int, t: int, steps: int) -> None:
        m = self._machine
        if m.injection is not None:
            return  # strike not applied yet — nothing to converge from
        recoveries = m.stats.recoveries
        if recoveries != self._recoveries:
            self._recoveries = recoveries
            self._gap = 1
            self._skip = 0
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
        if self._skip:
            self._skip -= 1
            return
        record = self._record
        g = record.align_index.get(self._engine.register_hash(label, pc))
        if g is not None:
            delta = self._memory_delta(g)
            if delta is not None:
                raise ConvergedExit(g, record.tick_steps[g], steps, *delta)
        self._skip = self._gap
        if self._gap < self.MAX_GAP:
            self._gap <<= 1

    def _memory_delta(
        self, g: int
    ) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
        """``(delta, escaped)`` at a register match with golden tick ``g``,
        or None when golden loads a cell of the delta after ``g``."""
        m = self._machine
        record = self._record
        tainted = m._tainted_cells
        drift = self._engine.memory_hash() ^ record.mem_hashes[g]
        if not drift and not tainted:
            return (), ()
        last_load = record.last_load.get
        blocker = self._blocker
        if blocker is not None and last_load(blocker, 0) > g:
            # Usually the run is still aligned and that cell still
            # differs: cheaper to confirm than to rebuild the delta.
            if blocker in tainted:
                return None
            ours = m.sb.forward(blocker)
            if ours is None:
                ours = m.mem.cells.get(blocker, 0)
            initial = self._initial.get(blocker, 0)
            if ours != record.stores.value_at(blocker, g, initial):
                return None
        differing = self._differing_cells(g, drift) if drift else []
        delta = tainted.union(differing)
        for addr in delta:
            if last_load(addr, 0) > g:
                self._blocker = addr
                return None
        last_store = record.stores.last_tick
        escaped = [addr for addr in differing if last_store(addr) <= g]
        return tuple(sorted(delta)), tuple(sorted(escaped))

    def _differing_cells(self, g: int, drift: int) -> list[int]:
        """Cells whose effective value differs from golden's at tick ``g``,
        checked against ``drift``, the XOR of the two memory hashes."""
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
        differing = []
        for addr in candidates:
            ours = pending[addr] if addr in pending else cells_get(addr, 0)
            theirs = stores.value_at(addr, g, initial_get(addr, 0))
            if ours != theirs:
                differing.append(addr)
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

    ``tick_steps`` and ``mem_hashes`` are indexed by golden tick (0 is
    the initial state): the loop-step count and the effective-memory
    hash there. ``align_index`` maps each unambiguous register hash to
    its tick, ``last_load`` each address golden loads to the tick of its
    last load, and ``stores`` holds every store commit. ``snapshots``
    carry delta-encoded machine images at ``snap_times`` (ascending).
    """

    interval: int | None
    max_steps: int
    total_ticks: int
    total_steps: int
    align_index: _SortedIntMap = field(repr=False)
    tick_steps: array = field(repr=False)
    mem_hashes: array = field(repr=False)
    last_load: _SortedIntMap = field(repr=False)
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

    def cells_at(self, index: int, base_cells: dict[int, int]) -> dict[int, int]:
        """Memory cell dict at snapshot ``index``: the initial image plus
        every delta up to and including that snapshot.

        Rebuilt fresh on every call — memoising per-snapshot full images
        would multiply the working set by the snapshot count.
        """
        cells = dict(base_cells)
        for snap in self.snapshots[: index + 1]:
            cells.update(snap.mem_delta)
        return cells


def record_golden_run(
    compiled: CompiledProgram,
    config: ResilienceConfig,
    memory: Memory,
    *,
    interval: int | None = DEFAULT_SNAPSHOT_INTERVAL,
    max_steps: int = 4_000_000,
    golden_image: dict[int, int] | None = None,
) -> GoldenRecord:
    """Execute one fault-free run and capture its acceleration record.

    ``interval`` spaces the periodic snapshots in ticks (``None`` or
    ``<= 0`` records hashes only — fast-forward disabled, the
    degenerate configuration the parity suite exercises).  When
    ``golden_image`` (the interpreter reference) is given, the run's
    final data image is checked against it: splicing is only sound if
    the golden suffix itself terminates correctly.
    """
    if interval is not None and interval <= 0:
        interval = None
    machine = ResilientMachine(compiled, config, memory.copy(),
                               max_steps=max_steps)
    machine._mem_fp = memory_fingerprint(machine.mem.cells)
    engine = _FingerprintEngine(machine)
    register_hash = engine.register_hash
    memory_hash = engine.memory_hash
    vals = machine.regs.vals
    ops = _memory_ops(compiled.program)
    reg_hashes = array("Q")
    tick_steps = array("I", [0])
    mem_hashes = array("Q", [machine._mem_fp])
    last_load: dict[int, int] = {}
    stores: list[tuple[int, int, int]] = []
    snapshots: list[MachineSnapshot] = []
    snap_times: list[int] = []
    prev_cells = dict(machine.mem.cells)
    last_snap_t = 0

    def access(op: tuple, t: int) -> None:
        """Log the load or store that commits at tick ``t``."""
        is_store, base, imm, value = op
        addr = vals[base] + imm
        if is_store:
            stores.append((t, addr, vals[value]))
        else:
            last_load[addr] = t

    def hook(label: str, pc: int, t: int, steps: int) -> None:
        nonlocal last_snap_t
        reg_hashes.append(register_hash(label, pc))
        mem_hashes.append(memory_hash())
        tick_steps.append(steps)
        op = ops[label][pc]
        if op is not None:
            access(op, t + 1)
        if interval is not None and t - last_snap_t >= interval:
            snapshots.append(
                machine.snapshot(label, pc, t, steps, prev_cells=prev_cells)
            )
            snap_times.append(t)
            prev_cells.clear()
            prev_cells.update(machine.mem.cells)
            last_snap_t = t

    op = ops[compiled.program.entry.label][0]
    if op is not None:
        access(op, 1)
    machine._on_tick = hook
    stats = machine.run()
    machine._on_tick = None
    if golden_image is not None and machine.mem.data_image() != golden_image:
        raise SnapshotError(
            "fault-free resilient run diverged from the interpreter "
            "reference image; refusing to build an acceleration record"
        )
    # The hook runs once per committed tick except the final RET's, so
    # tick t's entries sit at index t of the per-tick arrays.
    total_ticks = len(reg_hashes)
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
    by_hash = sorted(zip(reg_hashes, range(1, total_ticks + 1)))
    last = len(by_hash) - 1
    unique = [
        pair
        for i, pair in enumerate(by_hash)
        if (i == 0 or by_hash[i - 1][0] != pair[0])
        and (i == last or by_hash[i + 1][0] != pair[0])
    ]
    return GoldenRecord(
        interval=interval,
        max_steps=max_steps,
        total_ticks=total_ticks,
        total_steps=total_steps,
        align_index=_SortedIntMap(unique, "Q", "I"),
        tick_steps=tick_steps,
        mem_hashes=mem_hashes,
        last_load=_SortedIntMap(last_load.items(), "q", "I"),
        stores=_StoreHistory(stores),
        snap_times=snap_times,
        snapshots=snapshots,
    )


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
    the image both the machine and the golden run started from.
    """
    index = record.snapshot_index_before(injection_time)
    since = 0
    if index is not None:
        snap = record.snapshots[index]
        machine.restore(snap, cells=record.cells_at(index, base_memory.cells))
        since = snap.t
    if machine._mem_fp is None:
        machine._mem_fp = memory_fingerprint(machine.mem.cells)
    machine._on_tick = _ConvergenceChecker(
        machine, record, since, base_memory.cells
    )
