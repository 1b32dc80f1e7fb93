"""Structural program digest.

The sweep planner groups design points by the program their compiler
config produces: two configs with the same digest compile to the same
program and therefore commit the same stream.
"""

from __future__ import annotations

import hashlib

from repro.isa.program import Program
from repro.runtime.interpreter import _reg_index

__all__ = ["program_digest"]


def program_digest(program: Program) -> str:
    """Uid-free structural digest of a program (process-invariant)."""
    hasher = hashlib.sha256()
    hasher.update(program.name.encode())
    for block in program.blocks:
        hasher.update(f"\n@{block.label}".encode())
        for instr in block.instructions:
            dest = -1 if instr.dest is None else _reg_index(instr.dest)
            srcs = tuple(_reg_index(r) for r in instr.srcs)
            kind = "" if instr.store_kind is None else instr.store_kind.name
            hasher.update(
                f"\n{instr.op.name}|{dest}|{srcs}|{instr.imm}"
                f"|{instr.targets}|{instr.region_id}|{kind}".encode()
            )
    return hasher.hexdigest()[:16]
