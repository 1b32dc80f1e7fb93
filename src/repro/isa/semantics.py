"""One meaning per TK opcode: its value, trace kind and bit demand.

Every consumer of instruction semantics derives from :data:`SEMANTICS`:

* the reference interpreter and recovery evaluation call
  :data:`EVALUATORS`, built once from the value templates;
* :mod:`repro.runtime.fastsim` renders each template into its generated
  step functions, and the resilient machine compiles the same template
  into its per-instruction closures;
* :mod:`repro.runtime.trace` and the scheduler read the trace kind;
* the bit-level vulnerability analysis (:mod:`repro.verify.vuln`)
  applies the demand rule.

A value template is a Python expression over ``{a}`` and ``{b}`` (the
first and second source values) and ``{imm}``. The semantics are the
ones the executors have always had, not textbook ones:

* ADD, SUB, MUL, ADDI, MULI, SHL, SHLI and LI wrap to signed 32 bits;
* AND, OR, XOR, ANDI and MOV do not wrap;
* SHR and SHRI shift the low 32 bits, so a result can reach 2**32 - 1;
* DIV and REM truncate through ``int(a / b)`` and give 0 when ``b == 0``;
* SLT and SEQ give 0 or 1, and NOP gives 0;
* a branch's value is its taken condition over the raw register values.

A demand rule maps the demanded bits of a live result (``dmask``, within
the low 32) and the immediate to the bits each register source must hold
for those result bits to come out right; it applies only while the
result is live. A row without one reads its sources in full whatever
happens to its result: load and store addresses, stored values,
checkpointed registers and branch operands.
``tests/test_semantics.py`` checks the values against an exact-integer
oracle and the demand rules by flipping the bits they call undemanded.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.isa.instructions import Opcode

FULL = 0xFFFF_FFFF

Demand = Callable[[int, int], int]
Evaluator = Callable[[int, int, int], int]


def wrap_expr(expr: str) -> str:
    """Signed 32-bit wrap of ``expr`` as a branch-free expression.

    ``((x + 2**31) & (2**32 - 1)) - 2**31`` equals ``memory.wrap32(x)``
    for every int ``x``.
    """
    return f"((({expr}) + 2147483648 & 4294967295) - 2147483648)"


def _carry(dmask: int, imm: int) -> int:
    """Carries only run upward: a result bit reads every source bit at or
    below it."""
    return (1 << dmask.bit_length()) - 1


def _same_bits(dmask: int, imm: int) -> int:
    """Bitwise: a result bit reads the same bit of each source."""
    return dmask


def _all_bits(dmask: int, imm: int) -> int:
    """Any result bit may read any source bit."""
    return FULL


def _andi(dmask: int, imm: int) -> int:
    return dmask & imm & FULL


def _shli(dmask: int, imm: int) -> int:
    return dmask >> (imm & 31)


def _shri(dmask: int, imm: int) -> int:
    return (dmask << (imm & 31)) & FULL


@dataclass(frozen=True)
class OpSemantics:
    """One opcode's row: trace kind, value template and demand rule."""

    kind: str
    value: str | None = None
    demand: Demand | None = None

    def render(self, a: str = "a", b: str = "b", imm: object = "imm") -> str:
        """The value template with its operands substituted."""
        if self.value is None:
            raise ValueError(f"{self.kind} opcode has no value")
        return self.value.format(a=a, b=b, imm=imm)


SEMANTICS: dict[Opcode, OpSemantics] = {
    Opcode.ADD: OpSemantics("alu", wrap_expr("{a} + {b}"), _carry),
    Opcode.SUB: OpSemantics("alu", wrap_expr("{a} - {b}"), _carry),
    Opcode.MUL: OpSemantics("mul", wrap_expr("{a} * {b}"), _carry),
    Opcode.DIV: OpSemantics(
        "div", "(0 if {b} == 0 else " + wrap_expr("int({a} / {b})") + ")", _all_bits
    ),
    Opcode.REM: OpSemantics(
        "div",
        "(0 if {b} == 0 else " + wrap_expr("{a} - int({a} / {b}) * {b}") + ")",
        _all_bits,
    ),
    Opcode.AND: OpSemantics("alu", "{a} & {b}", _same_bits),
    Opcode.OR: OpSemantics("alu", "{a} | {b}", _same_bits),
    Opcode.XOR: OpSemantics("alu", "{a} ^ {b}", _same_bits),
    Opcode.SHL: OpSemantics("alu", wrap_expr("{a} << ({b} & 31)"), _all_bits),
    Opcode.SHR: OpSemantics("alu", "({a} & 4294967295) >> ({b} & 31)", _all_bits),
    Opcode.SLT: OpSemantics("alu", "(1 if {a} < {b} else 0)", _all_bits),
    Opcode.SEQ: OpSemantics("alu", "(1 if {a} == {b} else 0)", _all_bits),
    Opcode.ADDI: OpSemantics("alu", wrap_expr("{a} + ({imm})"), _carry),
    Opcode.MULI: OpSemantics("mul", wrap_expr("{a} * ({imm})"), _carry),
    Opcode.ANDI: OpSemantics("alu", "{a} & ({imm})", _andi),
    Opcode.SHLI: OpSemantics("alu", wrap_expr("{a} << ({imm} & 31)"), _shli),
    Opcode.SHRI: OpSemantics("alu", "({a} & 4294967295) >> ({imm} & 31)", _shri),
    Opcode.LI: OpSemantics("alu", wrap_expr("{imm}"), _all_bits),
    Opcode.MOV: OpSemantics("alu", "{a}", _same_bits),
    Opcode.NOP: OpSemantics("alu", "0", _all_bits),
    Opcode.LD: OpSemantics("ld"),
    Opcode.ST: OpSemantics("st"),
    Opcode.CKPT: OpSemantics("ckpt"),
    Opcode.BEQ: OpSemantics("br", "{a} == {b}"),
    Opcode.BNE: OpSemantics("br", "{a} != {b}"),
    Opcode.BLT: OpSemantics("br", "{a} < {b}"),
    Opcode.BGE: OpSemantics("br", "{a} >= {b}"),
    Opcode.JMP: OpSemantics("br"),
    Opcode.RET: OpSemantics("ret"),
    Opcode.BOUNDARY: OpSemantics("boundary"),
}

#: ``(a, b, imm) -> value`` for every opcode with a value template.
EVALUATORS: dict[Opcode, Evaluator] = {
    op: eval(f"lambda a, b, imm: {row.render()}", {})  # noqa: S307 - the table
    for op, row in SEMANTICS.items()
    if row.value is not None
}
