"""Small program builders and stream helpers shared across test modules."""

from __future__ import annotations

from repro.isa.builder import ProgramBuilder
from repro.isa.program import Program
from repro.runtime.fastsim import execute_fast


def build_sum_loop(trip: int = 20, store_base: int = 0x400) -> Program:
    """A tiny canonical loop: sum i over [0, trip), store partials.

    Has a basic IV, a live-out accumulator, and one store per iteration.
    """
    b = ProgramBuilder("sum_loop")
    b.begin_block("entry")
    i = b.li(0)
    acc = b.li(0)
    limit = b.li(trip)
    base = b.li(store_base)
    b.jmp("loop")
    b.begin_block("loop")
    acc = b.add(acc, i, dest=acc)
    off = b.shli(i, 2)
    addr = b.add(base, off)
    b.store(acc, addr)
    b.addi(i, 1, dest=i)
    b.blt(i, limit, "loop", "done")
    b.begin_block("done")
    b.store(acc, base, offset=4 * trip)
    b.ret()
    return b.finish()


def build_diamond(store_base: int = 0x800) -> Program:
    """Branchy diamond: conditional definitions joining at one block."""
    b = ProgramBuilder("diamond")
    b.begin_block("entry")
    x = b.live_in()
    zero = b.li(0)
    base = b.li(store_base)
    b.blt(x, zero, "neg", "pos")
    b.begin_block("neg")
    y = b.sub(zero, x)
    b.store(y, base)
    b.jmp("join")
    b.begin_block("pos")
    y2 = b.addi(x, 5)
    b.store(y2, base, offset=4)
    b.jmp("join")
    b.begin_block("join")
    z = b.li(99)
    b.store(z, base, offset=8)
    b.ret()
    return b.finish()


def committed_stream(cache, uid: str, config) -> list[tuple]:
    """A freshly computed committed stream of one compiled program.

    Uses ``cache``'s memoised workload and compile, and keeps nothing:
    the harness itself never holds a stream past one lane batch.
    """
    program = cache.compiled_program(uid, config).program
    memory = cache.workload(uid).fresh_memory()
    return execute_fast(program, memory, collect_trace=True).trace
