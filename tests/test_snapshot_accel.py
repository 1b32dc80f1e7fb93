"""Snapshot-accelerated fault injection: parity, soundness, and audits.

The acceleration contract under test: golden-run memoization, snapshot
fast-forward, and convergence early-exit must be *observationally
invisible* — every accelerated :class:`InjectionOutcome` equals the
from-scratch one, for every variant, target, and snapshot interval
(including the degenerate no-snapshot configuration).  On top of the
parity sweep this file audits the machinery itself: the snapshot field
audit fails loudly on unknown machine state, restore reproduces the
machine exactly (full-state canonical equality, not merely observable
equality), the timeout splice reproduces the watchdog's exact behaviour,
the recorder's memory traffic matches the interpreter's, delta exits
wait for every differing cell golden reads again and refuse a store
history that disagrees with the memory hashes, runs blocked by such a
cell skip ahead to a later snapshot (never with a tainted cell or over
a golden store that would hide a written-back one, and with exact step
counts), and golden records round-trip through the persistent artifact
cache. A fault-free run commits one per-tick stream under every config,
so a record fed another config's stream equals a full recording, and a
stream that differs from the run at a snapshot or at the end is refused;
the convergence checker only runs after the strike. The register digest
is checked against a naive tuple oracle and across processes, snapshot
deltas against full-scan images, and restore against shared cells.
"""

from __future__ import annotations

import copy
import json
import os
import pickle
import struct
import subprocess
import sys
from collections import Counter
from hashlib import blake2b
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro
import repro.faults.injector as injector_module
import repro.faults.snapshot as snapshot_module
from helpers import build_sum_loop
from repro.analysis.cfg import build_cfg
from repro.analysis.liveness import compute_liveness
from repro.compiler.config import turnpike_config
from repro.compiler.pipeline import compile_program
from repro.faults.campaign import VARIANT_CONFIGS, _campaign_context, _horizon
from repro.faults.injector import (
    DEFAULT_TARGET_MIX,
    FaultOutcomeKind,
    golden_memory,
    injection_for_index,
    outcome_to_dict,
    run_with_injection,
)
from repro.faults.snapshot import (
    ConvergedExit,
    GoldenRecord,
    SkipAhead,
    full_state_canonical,
    _point_digest,
    prepare_accelerated_run,
    record_golden_run,
)
from repro.harness.artifacts import ArtifactCache
from repro.isa.builder import ProgramBuilder
from repro.isa.program import Program
from repro.runtime import trace as tr
from repro.runtime.interpreter import execute
from repro.runtime.machine import (
    Injection,
    InjectionTarget,
    ResilientMachine,
    SnapshotError,
    WatchdogTimeout,
    memory_fingerprint,
)
from repro.runtime.memory import Memory
from repro.workloads.suites import quick_subset

ARRAY = 0x400
TRIP = 16


def build_rewrite(
    reread: bool = False, passes: int = 1, spin: int = 0
) -> Program:
    """Loop ``fill`` stores i*i to a[i]; loop ``refill`` overwrites a[i]
    with i+7. With ``reread``, loop ``sum`` then loads every a[i] back
    and stores the total just past the array. ``passes`` repeats that
    pass, storing pass p's total p words further on, and ``spin`` follows
    each pass with a loop of that many iterations touching no memory.

    Under ``unsafe`` a bad recovery skips or repeats an iteration while
    the only loop-carried register realigns, so memory differs from
    golden's at an aligned tick: the shape delta convergence splices.
    Each later pass loads a differing a[i] again: the shape a run skips
    ahead from.
    """
    b = ProgramBuilder("rewrite")
    b.begin_block("entry")
    i = b.li(0)
    limit = b.li(TRIP)
    base = b.li(ARRAY)
    b.jmp("fill")
    b.begin_block("fill")
    b.store(b.mul(i, i), b.add(base, b.shli(i, 2)))
    b.addi(i, 1, dest=i)
    b.blt(i, limit, "fill", "between")
    b.begin_block("between")
    b.li(0, dest=i)
    b.jmp("refill")
    b.begin_block("refill")
    b.store(b.addi(i, 7), b.add(base, b.shli(i, 2)))
    b.addi(i, 1, dest=i)
    b.blt(i, limit, "refill", "after")
    b.begin_block("after")
    if reread:
        total = b.li(0)
        for p in range(passes):
            tag = str(p) if p else ""
            b.li(0, dest=i)
            b.jmp(f"sum{tag}")
            b.begin_block(f"sum{tag}")
            b.add(total, b.load(b.add(base, b.shli(i, 2))), dest=total)
            b.addi(i, 1, dest=i)
            b.blt(i, limit, f"sum{tag}", f"done{tag}")
            b.begin_block(f"done{tag}")
            b.store(total, base, offset=4 * (TRIP + p))
            if passes > 1 or spin:
                b.li(0, dest=total)
            if spin:
                end = b.li(spin)
                b.li(0, dest=i)
                b.jmp(f"spin{p}")
                b.begin_block(f"spin{p}")
                b.addi(i, 1, dest=i)
                b.blt(i, end, f"spin{p}", f"next{p}")
                b.begin_block(f"next{p}")
    b.ret()
    return b.finish()


KEEP_VALUE = 9


def build_same_value_writes(trip: int) -> Program:
    """Each iteration stores 0 to the fresh cell a[i], then i and then
    :data:`KEEP_VALUE` (its initial value) to the cell past the array:
    keys first written with 0, and a cell written back to its old value.
    """
    b = ProgramBuilder("same_value_writes")
    b.begin_block("entry")
    i = b.li(0)
    limit = b.li(trip)
    base = b.li(ARRAY)
    zero = b.li(0)
    keep = b.li(KEEP_VALUE)
    b.jmp("loop")
    b.begin_block("loop")
    b.store(zero, b.add(base, b.shli(i, 2)))
    b.store(i, base, offset=4 * trip)
    b.store(keep, base, offset=4 * trip)
    b.addi(i, 1, dest=i)
    b.blt(i, limit, "loop", "done")
    b.begin_block("done")
    b.ret()
    return b.finish()


def build_counter(trip: int) -> Program:
    """Each iteration loads the cell at :data:`ARRAY`, adds one and stores
    it back. The region read the cell first, so the CLQ quarantines the
    store, and the next iteration loads the cell while it is pending."""
    b = ProgramBuilder("counter")
    b.begin_block("entry")
    i = b.li(0)
    limit = b.li(trip)
    base = b.li(ARRAY)
    b.jmp("loop")
    b.begin_block("loop")
    b.store(b.addi(b.load(base), 1), base)
    b.addi(i, 1, dest=i)
    b.blt(i, limit, "loop", "done")
    b.begin_block("done")
    b.ret()
    return b.finish()


def _context(program: Program):
    compiled = compile_program(program, turnpike_config())
    memory = Memory()
    golden = golden_memory(compiled, memory)
    horizon = _horizon(compiled, memory)
    return compiled, memory, golden, horizon


@pytest.fixture(scope="module")
def ctx():
    """Compiled sum-loop + golden image shared by the whole module."""
    return _context(build_sum_loop())


@pytest.fixture(scope="module")
def rewrite_ctx():
    """The fill/refill program, whose ``unsafe`` runs delta-exit."""
    return _context(build_rewrite())


PASSES = 3
SPIN = 40


@pytest.fixture(scope="module")
def reread_ctx():
    """The fill/refill program with :data:`PASSES` sum passes, whose runs
    skip ahead past the spin loops between them."""
    return _context(build_rewrite(reread=True, passes=PASSES, spin=SPIN))


@pytest.fixture
def exits(monkeypatch):
    """Every ConvergedExit a machine run raises during the test."""
    seen: list[ConvergedExit] = []
    run = ResilientMachine.run

    def recording_run(self):
        try:
            return run(self)
        except ConvergedExit as exc:
            seen.append(exc)
            raise

    monkeypatch.setattr(ResilientMachine, "run", recording_run)
    return seen


@pytest.fixture
def skips(monkeypatch):
    """Every SkipAhead an injected run resumes from during the test, with
    the machine that raised it."""
    seen: list[tuple[ResilientMachine, SkipAhead]] = []
    resume = injector_module.resume_from_snapshot

    def recording_resume(machine, record, skip, base_memory):
        seen.append((machine, skip))
        return resume(machine, record, skip, base_memory)

    monkeypatch.setattr(
        injector_module, "resume_from_snapshot", recording_resume
    )
    return seen


@pytest.fixture
def silent_strikes(monkeypatch):
    """MEMORY injections pinned to an ``addr`` flip that word's effective
    value (its youngest pending store, else the cell) and leave no trace:
    no ECC syndrome, no detection, no recovery. That is the lasting damage
    a bad ``unsafe`` recovery leaves. The strike also marks the addresses
    added to the returned set tainted."""
    tainted: set[int] = set()
    maybe_inject = ResilientMachine._maybe_inject

    def silent(self, t):
        inj = self.injection
        if inj is None or t != inj.time or inj.addr is None:
            return maybe_inject(self, t)
        self.injection = None
        mask = 1 << inj.bit
        pending = [
            e for e in self.sb.entries
            if not e.is_checkpoint and e.addr == inj.addr
        ]
        if pending:
            pending[-1].value ^= mask
        else:
            self._mem_write(inj.addr, self.mem.load(inj.addr) ^ mask)
        self._tainted_cells |= tainted

    monkeypatch.setattr(ResilientMachine, "_maybe_inject", silent)
    return tainted


def _turnpike(wcdl: int = 10):
    return VARIANT_CONFIGS["turnpike"](wcdl)


class TestGoldenRecord:
    def test_record_shape(self, ctx):
        compiled, memory, golden, _ = ctx
        rec = record_golden_run(
            compiled, _turnpike(), memory, interval=16, golden_image=golden
        )
        assert rec.total_ticks > 0
        assert len(rec.align_index) > 0
        assert (
            len(rec.reg_hashes) == len(rec.tick_steps) == len(rec.mem_hashes)
            == rec.total_ticks + 1
        )
        assert rec.snap_times == sorted(rec.snap_times)
        assert len(rec.snap_times) == len(rec.snapshots)
        # Every aligned tick lies in the run's tick/step span.
        for tick in rec.align_index.values:
            assert 0 < tick <= rec.total_ticks
            assert 0 < rec.tick_steps[tick] <= rec.total_steps

    @pytest.mark.parametrize("reread", [False, True])
    def test_memory_traffic_matches_interpreter_trace(self, reread):
        """The recorder reads each access off the registers before it
        commits; the interpreter's trace is an independent account of
        the same addresses at the same ticks."""
        compiled, memory, golden, _ = _context(build_rewrite(reread))
        rec = record_golden_run(
            compiled, _turnpike(), memory, interval=16, golden_image=golden
        )
        trace = execute(
            compiled.program, memory.copy(), collect_trace=True
        ).trace
        loads: dict[int, list[int]] = {}
        stores: list[tuple[int, int]] = []
        tick = 0
        for entry in trace:
            if entry[0] == tr.K_BOUNDARY:
                continue
            tick += 1
            if entry[0] == tr.K_LD:
                loads.setdefault(entry[4], []).append(tick)
            elif entry[0] == tr.K_ST:
                stores.append((tick, entry[4]))
        assert len(loads) >= (TRIP if reread else 0)
        assert sorted(set(rec.loads.addrs)) == sorted(loads)
        for addr, ticks in loads.items():
            assert list(rec.loads.ticks_of(addr)) == ticks
            assert rec.loads.last_tick(addr) == ticks[-1]
            assert rec.loads.next_tick(addr, 0) == ticks[0]
            assert rec.loads.next_tick(addr, ticks[-1]) is None
        assert list(zip(rec.stores.ticks, rec.stores.addrs)) == stores

    def test_store_history_matches_memory_hashes(self, rewrite_ctx):
        """Golden's effective image rebuilt from the store history hashes
        to the recorded memory hash at every tick, and ends as the
        interpreter's image."""
        compiled, memory, golden, _ = rewrite_ctx
        rec = record_golden_run(
            compiled, _turnpike(), memory, interval=16, golden_image=golden
        )
        addrs = set(memory.cells) | set(rec.stores.addrs)
        for tick in range(rec.total_ticks + 1):
            image = {
                addr: rec.stores.value_at(addr, tick, memory.load(addr))
                for addr in addrs
            }
            assert memory_fingerprint(image) == rec.mem_hashes[tick]
        final = {
            addr: rec.stores.value_at(addr, rec.total_ticks + 1, 0)
            for addr in addrs
        }
        assert {a: v for a, v in final.items() if v} == golden

    def test_total_steps_is_exact(self, ctx):
        """The splice arithmetic hinges on total_steps being the precise
        loop-iteration count: max_steps == total succeeds, total-1 trips
        the watchdog."""
        compiled, memory, golden, _ = ctx
        rec = record_golden_run(
            compiled, _turnpike(), memory, interval=0, golden_image=golden
        )
        machine = ResilientMachine(
            compiled, _turnpike(), memory.copy(), max_steps=rec.total_steps
        )
        machine.run()
        machine = ResilientMachine(
            compiled, _turnpike(), memory.copy(),
            max_steps=rec.total_steps - 1,
        )
        with pytest.raises(WatchdogTimeout):
            machine.run()

    def test_interval_zero_records_no_snapshots(self, ctx):
        compiled, memory, golden, _ = ctx
        rec = record_golden_run(
            compiled, _turnpike(), memory, interval=0, golden_image=golden
        )
        assert rec.snapshots == [] and rec.interval is None

    def test_snapshot_index_is_strictly_before(self, ctx):
        compiled, memory, golden, _ = ctx
        rec = record_golden_run(
            compiled, _turnpike(), memory, interval=16, golden_image=golden
        )
        first = rec.snap_times[0]
        assert rec.snapshot_index_before(first) is None
        assert rec.snapshot_index_before(first + 1) == 0
        assert (
            rec.snapshot_index_before(rec.snap_times[-1] + 1)
            == len(rec.snapshots) - 1
        )

    def test_wrong_golden_image_fails_loudly(self, ctx):
        compiled, memory, _, _ = ctx
        with pytest.raises(SnapshotError, match="diverged"):
            record_golden_run(
                compiled, _turnpike(), memory, interval=16,
                golden_image={0: 0xDEAD},
            )


_RECORD_IN_SUBPROCESS = """
import json
from helpers import build_sum_loop
from repro.compiler.config import turnpike_config
from repro.compiler.pipeline import compile_program
from repro.faults.campaign import VARIANT_CONFIGS
from repro.faults.snapshot import record_golden_run
from repro.runtime.memory import Memory

compiled = compile_program(build_sum_loop(), turnpike_config())
rec = record_golden_run(
    compiled, VARIANT_CONFIGS["turnpike"](10), Memory(), interval=16
)
print(json.dumps([list(rec.align_index.keys), list(rec.align_index.values)]))
"""


def _naive_unique_ticks(compiled, config, memory: Memory) -> dict[int, tuple]:
    """The ticks of a fault-free run whose ``(block, pc, live register
    values)`` tuple occurs once, with that tuple; liveness comes from
    ``repro.analysis``."""
    program = compiled.program
    liveness = compute_liveness(build_cfg(program))
    block_index = {b.label: n for n, b in enumerate(program.blocks)}
    live_before = {}
    for block in program.blocks:
        sets = [liveness.live_before_block(block.label)]
        sets += [live for _, live in liveness.live_after(block.label)]
        live_before[block.label] = [sorted(r.index for r in s) for s in sets]
    machine = ResilientMachine(compiled, config, memory.copy())
    vals = machine.regs.vals
    seen: list[tuple] = []

    def hook(label, pc, t, steps):
        live = live_before[label][pc]
        seen.append((block_index[label], pc, tuple(vals[i] for i in live)))

    machine._on_tick = hook
    machine.run()
    counts = Counter(seen)
    return {tick: key for tick, key in enumerate(seen, 1) if counts[key] == 1}


class TestRegisterDigest:
    def test_align_index_is_the_same_in_every_process(self, ctx):
        """Golden records are pickled by one worker and matched by
        others: two interpreters with different string-hash salts must
        build the same index as this one."""
        compiled, memory, golden, _ = ctx
        rec = record_golden_run(
            compiled, _turnpike(), memory, interval=16, golden_image=golden
        )
        here = [list(rec.align_index.keys), list(rec.align_index.values)]
        path = os.pathsep.join(
            [str(Path(repro.__file__).parents[1]), str(Path(__file__).parent)]
        )
        for salt in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": salt, "PYTHONPATH": path}
            out = subprocess.run(
                [sys.executable, "-c", _RECORD_IN_SUBPROCESS],
                env=env, capture_output=True, text=True, check=True,
            ).stdout
            assert json.loads(out) == here

    @pytest.mark.parametrize("uid", [None, "CPU2006.bzip2"])
    def test_align_index_holds_exactly_the_unique_tuples(self, ctx, uid):
        if uid is None:
            compiled, memory, golden, _ = ctx
        else:
            compiled, memory, golden, _ = _campaign_context(uid)
        config = _turnpike()
        rec = record_golden_run(
            compiled, config, memory, interval=256, golden_image=golden
        )
        expected = _naive_unique_ticks(compiled, config, memory)
        assert len(expected) > 0
        assert sorted(rec.align_index.values) == sorted(expected)
        # Each one is indexed under blake2b-64 of its packed tuple.
        for tick, (block, pc, values) in expected.items():
            packed = struct.pack(f"<{2 + len(values)}q", block, pc, *values)
            digest = blake2b(packed, digest_size=8).digest()
            assert rec.align_index.get(int.from_bytes(digest, "little")) == tick

    def test_digest_takes_every_value_a_machine_holds(self):
        """Values are signed 32-bit; an unwrapped store-buffer flip can
        reach 2**32 in magnitude. All pack as int64 without raising."""
        digest = _point_digest(3, 7, (0, 2))
        values = [-(2**32), 0, 2**32, 2**31 - 1, -(2**31)]
        seen = {digest([a, 99, b]) for a in values for b in values}
        assert len(seen) == len(values) ** 2
        assert all(0 <= h < 2**64 for h in seen)
        assert _point_digest(3, 8, (0, 2))([1, 0, 1]) != digest([1, 0, 1])
        assert _point_digest(0, 0, ())([5]) == _point_digest(0, 0, ())([6])


#: A golden record's per-tick fields: the stream every config shares.
STREAM_FIELDS = (
    "align_index", "reg_hashes", "tick_steps", "mem_hashes", "loads", "stores",
)


def _stream_of(rec: GoldenRecord) -> dict:
    """The values of a record's per-tick stream, comparable with ``==``."""
    stores = rec.stores
    return {
        "align_index": (rec.align_index.keys, rec.align_index.values),
        "reg_hashes": rec.reg_hashes,
        "tick_steps": rec.tick_steps,
        "mem_hashes": rec.mem_hashes,
        "loads": (rec.loads.addrs, rec.loads.ticks),
        "stores": (stores.ticks, stores.addrs, stores.cell_addrs,
                   stores.cell_ticks, stores.cell_values),
        "totals": (rec.total_ticks, rec.total_steps),
    }


def _stream_configs() -> dict:
    """The four variants at WCDL 10, turnpike at WCDL 50, and turnpike
    with plain SEC in its protected arrays."""
    configs = {f"{name}@10": make(10) for name, make in VARIANT_CONFIGS.items()}
    configs["turnpike@50"] = _turnpike(50)
    configs["turnpike@10+sec"] = sec = _turnpike()
    sec.ecc_code = "sec"
    return configs


@pytest.fixture(scope="module")
def bzip2_records():
    """A full golden record of bzip2 per variant, at the default interval."""
    compiled, memory, golden, _ = _campaign_context("CPU2006.bzip2")
    return {
        variant: record_golden_run(
            compiled, make(10), memory, golden_image=golden
        )
        for variant, make in VARIANT_CONFIGS.items()
    }


class TestSharedStream:
    """One per-tick stream per program, whatever the config."""

    @pytest.mark.parametrize(
        "uid", [p.uid for p in quick_subset()] + ["CPU2006.bzip2"]
    )
    def test_fault_free_stream_does_not_depend_on_the_config(self, uid):
        """Full recordings under six configs commit the same stream, and
        its length is the campaign's injection horizon."""
        compiled, memory, golden, horizon = _campaign_context(uid)
        streams = {
            name: _stream_of(record_golden_run(
                compiled, config, memory, interval=0, golden_image=golden
            ))
            for name, config in _stream_configs().items()
        }
        reference = streams.pop("turnpike@10")
        assert reference["totals"][0] == horizon
        for name, stream in streams.items():
            assert stream == reference, name

    @pytest.mark.parametrize("variant", sorted(VARIANT_CONFIGS))
    def test_stream_fed_record_equals_a_full_one(self, bzip2_records, variant):
        """Fed the stream of another config's snapshot-less recording, a
        run takes the snapshots a full recording takes, and its record
        holds the stream's own per-tick objects."""
        compiled, memory, golden, _ = _campaign_context("CPU2006.bzip2")
        stream = record_golden_run(
            compiled, VARIANT_CONFIGS["turnstile"](50), memory, interval=0,
            golden_image=golden,
        )
        full = bzip2_records[variant]
        fed = record_golden_run(
            compiled, VARIANT_CONFIGS[variant](10), memory,
            golden_image=golden, stream=stream,
        )
        assert fed.snap_times == full.snap_times
        assert len(fed.snapshots) > 100
        assert pickle.dumps(fed.snapshots) == pickle.dumps(full.snapshots)
        assert (fed.interval, fed.max_steps) == (full.interval, full.max_steps)
        assert _stream_of(fed) == _stream_of(full)
        for name in STREAM_FIELDS:
            assert getattr(fed, name) is getattr(stream, name), name

    @pytest.mark.parametrize(
        ("name", "at_snapshot", "what"),
        [
            ("mem_hashes", True, "effective-memory hash"),
            ("reg_hashes", True, "register digest"),
            ("tick_steps", True, "step count"),
            ("total_ticks", True, "tick count"),
            ("mem_hashes", False, "final image's hash"),
            ("total_steps", False, "step count"),
            ("total_ticks", False, "tick count"),
        ],
    )
    def test_stream_changed_where_it_is_checked_is_refused(
        self, ctx, name, at_snapshot, what
    ):
        """One value changed at a snapshot tick (the second snapshot's, so
        not the last tick), or at the end of a run without snapshots: the
        fed run raises instead of trusting it."""
        compiled, memory, golden, _ = ctx
        interval = 16 if at_snapshot else 0
        stream = record_golden_run(
            compiled, _turnpike(), memory, interval=interval,
            golden_image=golden,
        )
        tick = stream.snap_times[1] if at_snapshot else stream.total_ticks
        assert not at_snapshot or tick < stream.total_ticks
        doctored = copy.deepcopy(stream)
        if name == "total_ticks":
            # The stream ends just before the snapshot, or after the run.
            doctored.total_ticks = tick - 1 if at_snapshot else tick + 1
        elif name == "total_steps":
            doctored.total_steps += 1
        else:
            getattr(doctored, name)[tick] ^= 1
        with pytest.raises(
            SnapshotError, match=f"at tick {tick}: its {what} differs"
        ):
            record_golden_run(
                compiled, VARIANT_CONFIGS["unsafe"](10), memory,
                interval=interval, stream=doctored,
            )

    @pytest.mark.parametrize("interval", [16, 0])
    def test_stream_of_another_program_is_refused(
        self, ctx, reread_ctx, interval
    ):
        """Both programs start from an empty memory: the snapshots catch
        the other stream, and without snapshots the totals do."""
        compiled, memory, _, _ = ctx
        other, other_memory, _, _ = reread_ctx
        stream = record_golden_run(
            other, _turnpike(), other_memory, interval=interval
        )
        with pytest.raises(SnapshotError, match="left the golden stream"):
            record_golden_run(
                compiled, _turnpike(), memory, interval=interval,
                stream=stream,
            )

    def test_stream_of_another_memory_is_refused(self, ctx):
        compiled, memory, _, _ = ctx
        stream = record_golden_run(compiled, _turnpike(), memory, interval=16)
        other = memory.copy()
        other.store(ARRAY + 4 * 1000, 5)
        with pytest.raises(SnapshotError, match="initial memory hash"):
            record_golden_run(
                compiled, _turnpike(), other, interval=16, stream=stream
            )

    def test_stream_of_another_step_budget_is_refused(self, ctx):
        compiled, memory, _, _ = ctx
        stream = record_golden_run(
            compiled, _turnpike(), memory, interval=16, max_steps=10**6
        )
        with pytest.raises(SnapshotError, match="max_steps=1000000"):
            record_golden_run(
                compiled, _turnpike(), memory, interval=16, stream=stream
            )


class TestSnapshotDeltas:
    @pytest.mark.parametrize("interval", [1, 7, 256])
    def test_cells_at_equals_a_full_scan(self, interval):
        """The image every snapshot restores equals a full copy of the
        cells at its tick, key for key: a fresh cell written with 0 is a
        key, and a cell written back to its old value holds that value."""
        trip = 120
        keep = ARRAY + 4 * trip
        memory = Memory()
        memory.store(keep, KEEP_VALUE)
        compiled = compile_program(
            build_same_value_writes(trip), turnpike_config()
        )
        golden = golden_memory(compiled, memory)
        config = _turnpike()
        rec = record_golden_run(
            compiled, config, memory, interval=interval, golden_image=golden
        )
        assert len(rec.snapshots) >= 2
        wanted = set(rec.snap_times)
        images = {}
        reference = ResilientMachine(compiled, config, memory.copy())

        def hook(label, pc, t, steps):
            if t in wanted:
                images[t] = dict(reference.mem.cells)

        reference._on_tick = hook
        reference.run()
        for index, t in enumerate(rec.snap_times):
            assert rec.cells_at(index, memory.cells) == images[t]
        final = rec.cells_at(len(rec.snapshots) - 1, memory.cells)
        assert any(v == 0 and a not in memory.cells for a, v in final.items())
        assert any(
            snap.mem_delta.get(keep) == KEEP_VALUE for snap in rec.snapshots
        )


class TestSnapshotRestore:
    def test_restored_machines_own_their_cells(self, ctx):
        """Two machines restored from one snapshot: running one changes
        neither the other's cells, nor the record, nor the base image."""
        compiled, memory, golden, _ = ctx
        config = _turnpike()
        rec = record_golden_run(
            compiled, config, memory, interval=16, golden_image=golden
        )
        deltas = [dict(snap.mem_delta) for snap in rec.snapshots]
        base = dict(memory.cells)
        ran, idle = (ResilientMachine(compiled, config) for _ in range(2))
        for machine in (ran, idle):
            machine.restore(
                rec.snapshots[0], cells=rec.cells_at(0, memory.cells)
            )
        before = dict(idle.mem.cells)
        ran.run()
        assert ran.mem.data_image() == golden
        assert ran.mem.cells != before
        assert idle.mem.cells == before
        assert [snap.mem_delta for snap in rec.snapshots] == deltas
        assert memory.cells == base

    @pytest.mark.parametrize("past_first_snapshot", [True, False])
    def test_accelerated_run_copies_the_image_once(
        self, monkeypatch, past_first_snapshot
    ):
        """``prepare_accelerated_run`` builds the run's image, with
        ``cells_at`` past the first snapshot and from the base image
        before it. Nothing else copies the image, the run leaves the base
        image as it was, and it classifies like an unaccelerated run
        (bzip2 reads its input from memory)."""
        compiled, memory, golden, horizon = _campaign_context("CPU2006.bzip2")
        config = _turnpike()
        rec = record_golden_run(
            compiled, config, memory, interval=2048, golden_image=golden
        )
        injection = next(
            injection
            for injection in (
                injection_for_index(
                    compiled, 10, 7, index, horizon, DEFAULT_TARGET_MIX
                )
                for index in range(200)
            )
            if (rec.snapshot_index_before(injection.time) is not None)
            == past_first_snapshot
        )
        base = dict(memory.cells)
        ref = run_with_injection(compiled, config, memory, injection, golden)
        copies = []
        real_copy = Memory.copy
        monkeypatch.setattr(
            Memory, "copy", lambda self: copies.append(1) or real_copy(self)
        )
        acc = run_with_injection(
            compiled, config, memory, injection, golden, accel=rec
        )
        assert copies == []
        assert memory.cells == base
        assert outcome_to_dict(acc) == outcome_to_dict(ref)


    def test_restore_reproduces_machine_exactly(self, ctx):
        """Each snapshot restores to full-state canonical equality with a
        reference machine stopped at the same tick, and runs to the same
        terminal image and stats."""
        compiled, memory, golden, _ = ctx
        config = _turnpike()
        rec = record_golden_run(
            compiled, config, memory, interval=16, golden_image=golden
        )
        reference = ResilientMachine(compiled, config, memory.copy())
        ref_stats = reference.run()
        ref_image = reference.mem.data_image()
        for index, snap in enumerate(rec.snapshots):
            machine = ResilientMachine(compiled, config, memory.copy())
            machine.restore(snap, cells=rec.cells_at(index, memory.cells))
            # The restored machine is *exactly* the recorded one.
            probe = ResilientMachine(compiled, config, memory.copy())
            probe.restore(snap, cells=rec.cells_at(index, memory.cells))
            assert full_state_canonical(machine, snap.t) == \
                full_state_canonical(probe, snap.t)
            assert machine._mem_fp == memory_fingerprint(machine.mem.cells)
            stats = machine.run()
            assert machine.mem.data_image() == ref_image
            assert stats.committed == ref_stats.committed
            assert stats.regions == ref_stats.regions

    def test_unknown_machine_field_fails_loudly(self, ctx):
        """The field audit: any attribute snapshot() has no rule for is a
        SnapshotError, not silent state loss."""
        compiled, memory, _, _ = ctx
        machine = ResilientMachine(compiled, _turnpike(), memory.copy())
        machine._experimental_field = 7
        with pytest.raises(SnapshotError, match="_experimental_field"):
            machine.snapshot("entry", 0, 0, 0)

    def test_restore_delta_requires_base_cells(self, ctx):
        compiled, memory, golden, _ = ctx
        rec = record_golden_run(
            compiled, _turnpike(), memory, interval=16, golden_image=golden
        )
        machine = ResilientMachine(compiled, _turnpike(), memory.copy())
        with pytest.raises(SnapshotError, match="delta"):
            machine.restore(rec.snapshots[0])


class TestConvergence:
    def test_convergence_fires_and_identifies_golden_point(self, ctx):
        """Drive an injected machine by hand: the checker must raise
        ConvergedExit at a fingerprint the golden stream actually owns."""
        compiled, memory, golden, horizon = ctx
        config = _turnpike()
        rec = record_golden_run(
            compiled, config, memory, interval=16, golden_image=golden
        )
        raised = None
        for index in range(40):
            injection = injection_for_index(
                compiled, 10, 42, index, horizon, DEFAULT_TARGET_MIX
            )
            machine = ResilientMachine(compiled, config, memory.copy())
            prepare_accelerated_run(machine, rec, injection.time, memory)
            machine.arm_injection(injection)
            try:
                machine.run()
            except ConvergedExit as exc:
                raised = exc
                break
        assert raised is not None, "no injection converged in 40 tries"
        assert raised.golden_tick <= rec.total_ticks
        assert raised.golden_steps == rec.tick_steps[raised.golden_tick]
        assert raised.golden_steps <= rec.total_steps
        assert raised.golden_tick in rec.align_index.values

    def test_timeout_splice_matches_watchdog(self, ctx):
        """With a step budget squeezed between the injection point and
        the spliced total, accelerated and from-scratch runs must both
        classify TIMEOUT with identical error text."""
        compiled, memory, golden, horizon = ctx
        config = _turnpike()
        rec_full = record_golden_run(
            compiled, config, memory, interval=16, golden_image=golden
        )
        for index in range(60):
            injection = injection_for_index(
                compiled, 10, 42, index, horizon, DEFAULT_TARGET_MIX
            )
            for budget in (
                rec_full.total_steps - 1,
                rec_full.total_steps + 5,
                rec_full.total_steps + 50,
            ):
                ref = run_with_injection(
                    compiled, config, memory, injection, golden,
                    max_steps=budget,
                )
                acc = run_with_injection(
                    compiled, config, memory, injection, golden,
                    max_steps=budget, accel=rec_full,
                )
                assert outcome_to_dict(acc) == outcome_to_dict(ref)


    @pytest.mark.parametrize("index", [206, 248])
    def test_no_splice_before_latent_colour_parity_trips(self, ctx, index):
        """A COLORING strike leaves the maps' parity bad until their next
        access trips it and forces a second recovery. The guard must
        hold the splice until then: the golden suffix has no recovery."""
        compiled, memory, golden, horizon = ctx
        config = _turnpike()
        rec = record_golden_run(
            compiled, config, memory, interval=16, golden_image=golden
        )
        injection = injection_for_index(
            compiled, 10, 1234, index, horizon, DEFAULT_TARGET_MIX
        )
        assert injection.target is InjectionTarget.COLORING
        reference = ResilientMachine(compiled, config, memory.copy())
        reference.arm_injection(injection)
        ref_stats = reference.run()
        assert ref_stats.structure_parity_trips == 1
        machine = ResilientMachine(compiled, config, memory.copy())
        prepare_accelerated_run(machine, rec, injection.time, memory)
        machine.arm_injection(injection)
        with pytest.raises(ConvergedExit):
            machine.run()
        assert machine.coloring.poisoned
        assert machine.stats.structure_parity_trips == 1
        assert machine.stats.recoveries == ref_stats.recoveries
        ref = run_with_injection(compiled, config, memory, injection, golden)
        acc = run_with_injection(
            compiled, config, memory, injection, golden, accel=rec
        )
        assert outcome_to_dict(acc) == outcome_to_dict(ref)


    @pytest.mark.parametrize("variant", sorted(VARIANT_CONFIGS))
    def test_checker_runs_only_after_the_strike(
        self, bzip2_records, variant, monkeypatch, exits
    ):
        """The run loop fires the tick hook only with no strike armed, so
        the checker is called at every commit after the strike that
        reaches the loop's bottom (all but a RET's) and at none before;
        outcomes stay those of unaccelerated runs."""
        compiled, memory, golden, horizon = _campaign_context("CPU2006.bzip2")
        config = VARIANT_CONFIGS[variant](10)
        calls: list[int] = []  # the run's commit count at each call
        checker = snapshot_module._ConvergenceChecker
        call = checker.__call__

        def counted(self, label, pc, t, steps):
            calls.append(self._machine.stats.committed)
            return call(self, label, pc, t, steps)

        struck: list[int] = []  # the commit count at the strike
        drains: list[int] = []  # the commit count at each RET
        maybe_inject = ResilientMachine._maybe_inject
        drain = ResilientMachine._drain

        def striking(self, t):
            armed = self.injection
            maybe_inject(self, t)
            if armed is not None and self.injection is None:
                struck.append(self.stats.committed)

        def draining(self, t):
            drains.append(self.stats.committed)
            return drain(self, t)

        monkeypatch.setattr(checker, "__call__", counted)
        monkeypatch.setattr(ResilientMachine, "_maybe_inject", striking)
        monkeypatch.setattr(ResilientMachine, "_drain", draining)
        spliced = 0
        for index in range(8):
            injection = injection_for_index(
                compiled, 10, 2024, index, horizon, DEFAULT_TARGET_MIX
            )
            for seen in (calls, struck, drains, exits):
                seen.clear()
            acc = run_with_injection(
                compiled, config, memory, injection, golden,
                accel=bzip2_records[variant],
            )
            (strike,) = struck
            if exits:
                # The exit is raised from the call at the run's last commit.
                assert calls == [
                    c for c in range(strike + 1, calls[-1] + 1)
                    if c not in drains
                ]
                spliced += 1
            else:
                assert all(c > strike for c in calls)
            ref = run_with_injection(compiled, config, memory, injection, golden)
            assert outcome_to_dict(acc) == outcome_to_dict(ref)
        assert spliced


class TestInitialFingerprint:
    def test_run_before_the_first_snapshot_reuses_the_record(
        self, ctx, monkeypatch
    ):
        """An injection at or before the first snapshot starts from golden
        tick 0, whose fingerprint the record holds: no full-image scan,
        and the same outcome as an unaccelerated run."""
        compiled, memory, golden, horizon = ctx
        config = _turnpike()
        rec = record_golden_run(
            compiled, config, memory, interval=16, golden_image=golden
        )
        scans = []
        real = snapshot_module.memory_fingerprint
        monkeypatch.setattr(
            snapshot_module, "memory_fingerprint",
            lambda cells: scans.append(1) or real(cells),
        )
        checked = 0
        for index in range(40):
            injection = injection_for_index(
                compiled, 10, 7, index, horizon, DEFAULT_TARGET_MIX
            )
            if rec.snapshot_index_before(injection.time) is not None:
                continue
            acc = run_with_injection(
                compiled, config, memory, injection, golden, accel=rec
            )
            ref = run_with_injection(compiled, config, memory, injection, golden)
            assert outcome_to_dict(acc) == outcome_to_dict(ref)
            checked += 1
        assert checked > 0
        assert scans == []


class TestDeltaConvergence:
    """Splicing while memory still differs from golden's."""

    @staticmethod
    def _corrupted_run(program: Program, addr: int, value: int):
        """Run ``program`` fault-free, except that ``addr`` holds ``value``
        from the start; return the exit raised and the golden record."""
        compiled, memory, golden, _ = _context(program)
        config = _turnpike()
        rec = record_golden_run(
            compiled, config, memory, interval=0, golden_image=golden
        )
        machine = ResilientMachine(compiled, config, memory.copy())
        prepare_accelerated_run(machine, rec, 1, memory)
        machine._mem_write(addr, value)
        with pytest.raises(ConvergedExit) as raised:
            machine.run()
        return raised.value, rec

    @staticmethod
    def _store_ticks(rec: GoldenRecord, addr: int) -> list[int]:
        return [t for t, a in zip(rec.stores.ticks, rec.stores.addrs) if a == addr]

    def test_reloaded_cell_blocks_exit_until_golden_overwrites_it(self):
        cell = ARRAY + 4 * 3
        exc, rec = self._corrupted_run(build_rewrite(reread=True), cell, 12345)
        first_store = self._store_ticks(rec, cell)[0]
        assert rec.loads.last_tick(cell) > first_store
        # Aligned from tick 1 on, but golden reads the cell back later.
        assert exc.golden_tick >= first_store
        assert exc.delta == () and exc.escaped == ()

    def test_restored_cell_splices_although_memory_differs(self):
        cell = ARRAY + 4 * 3
        exc, rec = self._corrupted_run(build_rewrite(), cell, 12345)
        assert rec.loads.last_tick(cell) == 0  # golden never loads it
        assert exc.golden_tick < self._store_ticks(rec, cell)[0]
        assert exc.delta == (cell,)
        assert exc.escaped == ()  # golden stores to it again

    def test_unsafe_delta_exits_classify_like_full_runs(
        self, rewrite_ctx, exits
    ):
        """Real strikes: delta exits yield ``sdc`` when a differing cell
        escapes and ``recovered`` when golden stores over all of them,
        each equal to the from-scratch outcome."""
        compiled, memory, golden, horizon = rewrite_ctx
        config = VARIANT_CONFIGS["unsafe"](10)
        rec = record_golden_run(
            compiled, config, memory, interval=16, golden_image=golden
        )
        seen = set()
        for index in range(60):
            injection = injection_for_index(
                compiled, 10, 1234, index, horizon, DEFAULT_TARGET_MIX
            )
            ref = run_with_injection(compiled, config, memory, injection, golden)
            exits.clear()
            acc = run_with_injection(
                compiled, config, memory, injection, golden, accel=rec
            )
            assert outcome_to_dict(acc) == outcome_to_dict(ref)
            if exits and exits[0].delta:
                seen.add((bool(exits[0].escaped), acc.kind))
        assert seen == {
            (True, FaultOutcomeKind.SDC),
            (False, FaultOutcomeKind.RECOVERED),
        }

    def test_doctored_store_history_is_a_protocol_bug(
        self, rewrite_ctx, exits
    ):
        """One altered store-history value makes the delta disagree with
        the memory hashes: the run fails loudly instead of splicing."""
        compiled, memory, golden, horizon = rewrite_ctx
        config = VARIANT_CONFIGS["unsafe"](10)
        rec = record_golden_run(
            compiled, config, memory, interval=0, golden_image=golden
        )
        for index in range(60):
            injection = injection_for_index(
                compiled, 10, 1234, index, horizon, DEFAULT_TARGET_MIX
            )
            exits.clear()
            run_with_injection(
                compiled, config, memory, injection, golden, accel=rec
            )
            if exits and exits[0].escaped:
                exc = exits[0]
                break
        else:
            pytest.fail("no unsafe run escaped a corrupted cell")
        # Golden's latest store before the exit holds its cell's value there.
        stores = rec.stores
        latest = max(
            range(len(stores)),
            key=lambda j: (stores.cell_ticks[j] <= exc.golden_tick,
                           stores.cell_ticks[j]),
        )
        doctored = copy.deepcopy(rec)
        doctored.stores.cell_values[latest] ^= 0x5A5A
        ref = run_with_injection(compiled, config, memory, injection, golden)
        assert ref.kind is FaultOutcomeKind.SDC
        bad = run_with_injection(
            compiled, config, memory, injection, golden, accel=doctored
        )
        assert bad.kind is FaultOutcomeKind.PROTOCOL_BUG
        assert bad.error.startswith("SnapshotError: memory delta")


class TestSkipAhead:
    """Resuming a blocked run from golden's snapshot before its next load
    of a differing cell, instead of stepping there."""

    CELL = ARRAY + 4 * 3

    @classmethod
    def _strike_before_first_pass(cls, rec: GoldenRecord) -> Injection:
        """A silent flip of :attr:`CELL` just before golden's first load of
        it, after the last store to it; each later pass loads it again
        after a spin loop of snapshots."""
        loads = rec.loads.ticks_of(cls.CELL)
        assert len(loads) == PASSES
        assert rec.stores.last_tick(cls.CELL) < loads[0]
        assert all(
            rec.snapshot_index_between(a, b) is not None
            for a, b in zip(loads, loads[1:])
        )
        return Injection(
            time=loads[0] - 1, target=InjectionTarget.MEMORY,
            addr=cls.CELL, bit=4,
        )

    @pytest.mark.parametrize("variant", sorted(VARIANT_CONFIGS))
    def test_blocked_run_resumes_from_a_later_snapshot(
        self, reread_ctx, variant, silent_strikes, skips, exits
    ):
        """The corrupted cell blocks every exit until golden's last pass:
        the run skips each spin loop, commits fewer ticks than the golden
        stretch it covers (and than the unaccelerated run), and finishes
        with exactly the cells the unaccelerated run ends with wrong."""
        compiled, memory, golden, _ = reread_ctx
        config = VARIANT_CONFIGS[variant](10)
        rec = record_golden_run(
            compiled, config, memory, interval=16, golden_image=golden
        )
        injection = self._strike_before_first_pass(rec)
        ref = run_with_injection(compiled, config, memory, injection, golden)
        acc = run_with_injection(
            compiled, config, memory, injection, golden, accel=rec
        )
        assert outcome_to_dict(acc) == outcome_to_dict(ref)
        assert acc.kind is FaultOutcomeKind.SDC
        assert len(skips) >= PASSES - 1
        machine = skips[0][0]
        assert all(m is machine for m, _ in skips)
        (exc,) = exits
        # A run without a recovery commits one tick per golden tick, so
        # it would commit exactly golden_tick ticks without skipping.
        assert machine.stats.committed < exc.golden_tick
        reference = ResilientMachine(compiled, config, memory.copy())
        reference.arm_injection(injection)
        reference.run()
        assert machine.stats.committed < reference.stats.committed
        image = reference.mem.data_image()
        wrong = {a for a in image.keys() | golden.keys()
                 if image.get(a, 0) != golden.get(a, 0)}
        assert set(exc.escaped) == wrong
        assert self.CELL in wrong

    def test_no_skip_with_a_tainted_cell(
        self, reread_ctx, silent_strikes, skips, exits
    ):
        """The same blocked run, with a tainted cell besides: a tainted
        load can still trip parity, and recovery would read golden's
        metadata. The run steps."""
        compiled, memory, golden, _ = reread_ctx
        config = VARIANT_CONFIGS["unsafe"](10)
        rec = record_golden_run(
            compiled, config, memory, interval=16, golden_image=golden
        )
        injection = self._strike_before_first_pass(rec)
        unread = ARRAY + 4 * (TRIP + PASSES)
        silent_strikes.add(unread)
        ref = run_with_injection(compiled, config, memory, injection, golden)
        acc = run_with_injection(
            compiled, config, memory, injection, golden, accel=rec
        )
        assert outcome_to_dict(acc) == outcome_to_dict(ref)
        assert skips == []
        (exc,) = exits
        assert {self.CELL, unread} <= set(exc.delta)

    def test_no_skip_over_a_pending_golden_store(self, silent_strikes, skips):
        """Golden's store buffer at every snapshot of the counter loop
        holds a store to the counter, which would hide the run's differing
        value written back under it: the run steps."""
        compiled, memory, golden, _ = _context(build_counter(24))
        config = _turnpike()
        rec = record_golden_run(
            compiled, config, memory, interval=1, golden_image=golden
        )
        loads = rec.loads.ticks_of(ARRAY)
        injection = Injection(
            time=loads[len(loads) // 2] - 1, target=InjectionTarget.MEMORY,
            addr=ARRAY, bit=4,
        )
        ref = run_with_injection(compiled, config, memory, injection, golden)
        acc = run_with_injection(
            compiled, config, memory, injection, golden, accel=rec
        )
        assert outcome_to_dict(acc) == outcome_to_dict(ref)
        assert acc.kind is FaultOutcomeKind.SDC
        assert skips == []

    def test_no_skip_without_snapshots(
        self, reread_ctx, silent_strikes, skips
    ):
        compiled, memory, golden, _ = reread_ctx
        config = _turnpike()
        rec = record_golden_run(
            compiled, config, memory, interval=16, golden_image=golden
        )
        injection = self._strike_before_first_pass(rec)
        bare = record_golden_run(
            compiled, config, memory, interval=0, golden_image=golden
        )
        ref = run_with_injection(compiled, config, memory, injection, golden)
        acc = run_with_injection(
            compiled, config, memory, injection, golden, accel=bare
        )
        assert outcome_to_dict(acc) == outcome_to_dict(ref)
        assert skips == []

    @staticmethod
    def _steps_to_finish(compiled, config, memory, injection, golden) -> int:
        """The from-scratch run's exact step count: the smallest watchdog
        budget it finishes under."""
        lo, hi = 1, 4_000_000
        while lo < hi:
            mid = (lo + hi) // 2
            outcome = run_with_injection(
                compiled, config, memory, injection, golden, max_steps=mid
            )
            if outcome.kind is FaultOutcomeKind.TIMEOUT:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def test_step_count_across_skips_is_exact(self, reread_ctx, skips):
        """A run that recovered before it skipped is steps ahead of golden,
        and carries that lead past the snapshot. Budgets at the
        from-scratch total, one below it, and one below the run's count at
        its first skip's snapshot: each classifies like the watchdog."""
        compiled, memory, golden, horizon = reread_ctx
        config = _turnpike()
        rec = record_golden_run(
            compiled, config, memory, interval=16, golden_image=golden
        )
        checked = 0
        for index in range(35):
            injection = injection_for_index(
                compiled, 10, 1234, index, horizon, DEFAULT_TARGET_MIX
            )
            skips.clear()
            acc = run_with_injection(
                compiled, config, memory, injection, golden, accel=rec
            )
            if not skips or not acc.recovered:
                continue
            total = self._steps_to_finish(
                compiled, config, memory, injection, golden
            )
            assert total > rec.total_steps
            for budget in (total, total - 1, skips[0][1].steps - 1):
                ref = run_with_injection(
                    compiled, config, memory, injection, golden,
                    max_steps=budget,
                )
                acc = run_with_injection(
                    compiled, config, memory, injection, golden,
                    max_steps=budget, accel=rec,
                )
                assert outcome_to_dict(acc) == outcome_to_dict(ref)
            checked += 1
        assert checked


class TestParity:
    """The headline guarantee, exhaustively: accelerated == from-scratch."""

    @pytest.mark.parametrize("variant", sorted(VARIANT_CONFIGS))
    def test_all_targets_all_variants(
        self, ctx, rewrite_ctx, reread_ctx, variant, exits, skips
    ):
        for compiled, memory, golden, horizon in (
            ctx, rewrite_ctx, reread_ctx
        ):
            config = VARIANT_CONFIGS[variant](10)
            rec = record_golden_run(
                compiled, config, memory, interval=16, golden_image=golden
            )
            for index in range(35):  # covers every target in the 7-mix
                injection = injection_for_index(
                    compiled, 10, 1234, index, horizon, DEFAULT_TARGET_MIX
                )
                ref = run_with_injection(
                    compiled, config, memory, injection, golden
                )
                acc = run_with_injection(
                    compiled, config, memory, injection, golden, accel=rec
                )
                assert outcome_to_dict(acc) == outcome_to_dict(ref), (
                    f"accel diverged: program={compiled.program.name} "
                    f"variant={variant} index={index} "
                    f"target={injection.target.value}"
                )
        if variant == "unsafe":
            # Not vacuous: some splices happened while memory differed,
            # and some of those finished as silent corruptions; some runs
            # resumed from a later snapshot on the way.
            assert any(exc.delta for exc in exits)
            assert any(exc.escaped for exc in exits)
            assert skips
        else:
            assert not any(exc.escaped for exc in exits)

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        variant=st.sampled_from(sorted(VARIANT_CONFIGS)),
        interval=st.sampled_from([1, 3, 17, 64, 0, 10**9]),
        index=st.integers(min_value=0, max_value=400),
        wcdl=st.sampled_from([4, 10]),
    )
    def test_random_interval_and_injection(self, variant, interval, index, wcdl):
        """Hypothesis sweep over (variant, interval, injection, wcdl).

        ``interval=0`` disables snapshots (convergence-only), and an
        interval beyond the run length degenerates to the pure legacy
        path; both must still be byte-equal to from-scratch.
        """
        compiled = compile_program(build_sum_loop(), turnpike_config())
        memory = Memory()
        golden = golden_memory(compiled, memory)
        horizon = _horizon(compiled, memory)
        config = VARIANT_CONFIGS[variant](wcdl)
        rec = record_golden_run(
            compiled, config, memory, interval=interval, golden_image=golden
        )
        if interval >= 10**9:
            assert rec.snapshots == []  # degenerates to the old path
        injection = injection_for_index(
            compiled, wcdl, 99, index, horizon, DEFAULT_TARGET_MIX
        )
        ref = run_with_injection(compiled, config, memory, injection, golden)
        acc = run_with_injection(
            compiled, config, memory, injection, golden, accel=rec
        )
        assert outcome_to_dict(acc) == outcome_to_dict(ref)

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        variant=st.sampled_from(sorted(VARIANT_CONFIGS)),
        reread=st.booleans(),
        passes=st.sampled_from([1, PASSES]),
        interval=st.sampled_from([1, 7, 0]),
        index=st.integers(min_value=0, max_value=400),
        wcdl=st.sampled_from([4, 10]),
    )
    def test_random_delta_programs(
        self, variant, reread, passes, interval, index, wcdl
    ):
        """The same sweep over the fill/refill(/sum) programs, where
        ``unsafe`` and tainted-cell runs take delta exits, and runs
        blocked by a later pass skip ahead."""
        compiled, memory, golden, horizon = _context(
            build_rewrite(reread, passes, SPIN if passes > 1 else 0)
        )
        config = VARIANT_CONFIGS[variant](wcdl)
        rec = record_golden_run(
            compiled, config, memory, interval=interval, golden_image=golden
        )
        injection = injection_for_index(
            compiled, wcdl, 99, index, horizon, DEFAULT_TARGET_MIX
        )
        ref = run_with_injection(compiled, config, memory, injection, golden)
        acc = run_with_injection(
            compiled, config, memory, injection, golden, accel=rec
        )
        assert outcome_to_dict(acc) == outcome_to_dict(ref)


class TestArtifactCache:
    def test_golden_record_round_trips(self, ctx, tmp_path):
        compiled, memory, golden, _ = ctx
        config = _turnpike()
        rec = record_golden_run(
            compiled, config, memory, interval=16, golden_image=golden
        )
        cache = ArtifactCache(tmp_path)
        key = ArtifactCache.golden_key("TEST.sum_loop", config, 16, 4_000_000)
        assert cache.load_golden(key) is None
        cache.store_golden(key, rec)
        loaded = cache.load_golden(key)
        assert isinstance(loaded, GoldenRecord)
        assert loaded.align_index.keys == rec.align_index.keys
        assert loaded.align_index.values == rec.align_index.values
        assert loaded.reg_hashes == rec.reg_hashes
        assert loaded.tick_steps == rec.tick_steps
        assert loaded.mem_hashes == rec.mem_hashes
        assert loaded.loads.addrs == rec.loads.addrs
        assert loaded.loads.ticks == rec.loads.ticks
        assert loaded.stores.cell_values == rec.stores.cell_values
        assert loaded.snap_times == rec.snap_times
        assert loaded.total_steps == rec.total_steps
        assert [s.mem_delta for s in loaded.snapshots] == [
            s.mem_delta for s in rec.snapshots
        ]
        info = cache.info()
        assert info["goldens"] == 1
        assert cache.clear() == 1

    def test_loaded_record_accelerates_identically(self, ctx, tmp_path):
        """A record served from disk (fresh process ≈ fresh unpickle) must
        drive the exact same outcomes as the in-memory one — this is what
        makes cross-process golden sharing sound."""
        compiled, memory, golden, horizon = ctx
        config = _turnpike()
        rec = record_golden_run(
            compiled, config, memory, interval=16, golden_image=golden
        )
        cache = ArtifactCache(tmp_path)
        key = ArtifactCache.golden_key("TEST.sum_loop", config, 16, 4_000_000)
        cache.store_golden(key, rec)
        loaded = cache.load_golden(key)
        for index in range(20):
            injection = injection_for_index(
                compiled, 10, 5, index, horizon, DEFAULT_TARGET_MIX
            )
            a = run_with_injection(
                compiled, config, memory, injection, golden, accel=rec
            )
            b = run_with_injection(
                compiled, config, memory, injection, golden, accel=loaded
            )
            assert outcome_to_dict(a) == outcome_to_dict(b)

    def test_golden_key_separates_configs(self):
        tp = _turnpike()
        ts = VARIANT_CONFIGS["turnstile"](10)
        k = ArtifactCache.golden_key
        assert k("A", tp, 256, 100) != k("B", tp, 256, 100)
        assert k("A", tp, 256, 100) != k("A", ts, 256, 100)
        assert k("A", tp, 256, 100) != k("A", tp, 128, 100)
        assert k("A", tp, 256, 100) != k("A", tp, 256, 200)
