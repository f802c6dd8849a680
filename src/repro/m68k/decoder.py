"""Opcode dispatch table for the 68000 interpreter.

Each 16-bit opcode word decodes into a handler closure the first time
the interpreter (or a block predecoder, or the static analyzer) looks
it up; the result — ``None`` for an illegal word — is cached for the
life of the process.  A session touches a few hundred of the 65,536
words, so building all of them up front (about 9,500 ``compile()``
calls, 1.7 s of CPU) would dominate a short session's cold start.
Lookups stay a single subscript: a miss lands in ``__missing__``.
"""

from __future__ import annotations

from typing import Mapping, Optional

from .instructions import Handler, build_handler


class _LazyTable(dict[int, Optional[Handler]]):
    """``op -> build_handler(op)``, built and cached on first lookup."""

    def __missing__(self, op: int) -> Optional[Handler]:
        if not 0 <= op <= 0xFFFF:
            raise KeyError(op)
        handler = self[op] = build_handler(op)
        return handler


_TABLE = _LazyTable()


def dispatch_table() -> Mapping[int, Optional[Handler]]:
    """The process-wide opcode dispatch table.

    Shared by every :class:`~repro.m68k.cpu.CPU` instance, by the
    block-predecoding replay core, which snapshots handlers out of it,
    and by the static analyzer's legality test.  Index it with any
    16-bit opcode word; ``None`` marks an illegal word.
    """
    return _TABLE

