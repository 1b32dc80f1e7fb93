"""Dynamic trace representation shared by the interpreter and timing core.

A trace element is a plain 7-tuple for speed:

    (kind, dest, src1, src2, addr, region, aux)

* ``kind`` — one of the ``K_*`` constants below;
* ``dest``/``src1``/``src2`` — physical register indices, -1 when absent;
* ``addr`` — effective address for loads and regular stores, -1 otherwise;
* ``region`` — static region id (-1 outside resilience builds);
* ``aux`` — kind-specific:
    - ``K_ST``: store-kind ordinal (0 application, 1 spill);
    - ``K_BR``: bit0 = taken, bit1 = backward branch;
    - others: 0.

Checkpoints carry the saved register in ``src1``.
"""

from __future__ import annotations

from repro.isa.instructions import Opcode, StoreKind
from repro.isa.semantics import SEMANTICS

K_ALU = 0
K_MUL = 1
K_DIV = 2
K_LD = 3
K_ST = 4
K_CKPT = 5
K_BR = 6
K_BOUNDARY = 7
K_RET = 8

KIND_NAMES = {
    K_ALU: "alu",
    K_MUL: "mul",
    K_DIV: "div",
    K_LD: "ld",
    K_ST: "st",
    K_CKPT: "ckpt",
    K_BR: "br",
    K_BOUNDARY: "boundary",
    K_RET: "ret",
}

STORE_KIND_ORDINAL = {
    StoreKind.APPLICATION: 0,
    StoreKind.SPILL: 1,
    StoreKind.CHECKPOINT: 2,
}

_KIND_CODES = {name: kind for kind, name in KIND_NAMES.items()}
# The kind column of the semantics table, as trace codes.
_KIND_OF_OPCODE = {op: _KIND_CODES[row.kind] for op, row in SEMANTICS.items()}


def kind_of_opcode(op: Opcode) -> int:
    return _KIND_OF_OPCODE[op]


class TraceSummary:
    """Aggregate counts over a dynamic trace."""

    def __init__(self, trace: list[tuple]) -> None:
        counts = [0] * 9
        store_kinds = [0, 0, 0]
        for entry in trace:
            counts[entry[0]] += 1
            if entry[0] == K_ST:
                store_kinds[entry[6]] += 1
        self.total = len(trace)
        self.by_kind = {KIND_NAMES[k]: counts[k] for k in range(9)}
        self.app_stores = store_kinds[0]
        self.spill_stores = store_kinds[1]
        self.checkpoints = counts[K_CKPT]
        self.regular_stores = counts[K_ST]
        self.loads = counts[K_LD]
        self.boundaries = counts[K_BOUNDARY]

    @property
    def committed(self) -> int:
        """Instructions that occupy a pipeline slot (BOUNDARY is free)."""
        return self.total - self.boundaries

    @property
    def all_stores(self) -> int:
        return self.regular_stores + self.checkpoints

    def __repr__(self) -> str:
        return (
            f"TraceSummary(total={self.total}, loads={self.loads}, "
            f"stores={self.regular_stores}, ckpts={self.checkpoints}, "
            f"regions={self.boundaries})"
        )
