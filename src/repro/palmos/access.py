"""Guest-memory accessors.

Kernel data structures live in guest RAM; host Python code manipulates
them through one of two accessors:

* :class:`TracedAccess` — goes through the CPU's read/write helpers, so
  every access is charged bus cycles and seen by the reference tracer.
  Used by trap semantics: this is the "microcode" path, and it is what
  makes hack overhead and memory-reference statistics come out of the
  system organically.
* :class:`HostAccess` — raw access to the backing store, free and
  invisible.  Used for host-side operations the real system performs
  over the HotSync cable (state import/export) and by tests.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Protocol

if TYPE_CHECKING:
    from ..m68k.bus import FlatMemory
    from ..m68k.cpu import CPU


class GuestAccess(Protocol):
    def read8(self, addr: int) -> int: ...
    def read16(self, addr: int) -> int: ...
    def read32(self, addr: int) -> int: ...
    def write8(self, addr: int, value: int) -> None: ...
    def write16(self, addr: int, value: int) -> None: ...
    def write32(self, addr: int, value: int) -> None: ...
    def read_bytes(self, addr: int, length: int) -> bytes: ...
    def write_bytes(self, addr: int, data: bytes) -> None: ...


class TracedAccess:
    """Access through the CPU: cycle-charged and reference-traced.

    Kernel semantics executed in Python stand in for ROM code a native
    kernel would run; on real hardware every such memory operation is
    interleaved with instruction fetches of that ROM code.  To keep the
    profiled fetch/data and flash/RAM mixes honest, each microcode
    access is therefore accompanied by one instruction fetch at the
    current PC — which during a trap's F-line callback is the servicing
    ROM stub in flash.  The companion fetch only happens while a tracer
    is attached (profiled runs); it costs the same four cycles a real
    fetch would.

    Byte runs (:meth:`read_bytes`, :meth:`write_bytes`) take one slice
    arm for their in-RAM part, traced or not, that charges the same
    cycles and records the same references and code-watch hits as the
    per-byte loop; the loop remains for the rest of the run and for the
    configurations listed in :meth:`_charge_run`.
    """

    def __init__(self, cpu: "CPU"):
        self._cpu = cpu

    def _note_fetch(self) -> None:
        cpu = self._cpu
        if getattr(cpu.bus, "tracer", None) is not None:
            cpu.bus.fetch16(cpu.pc & 0xFFFFFFFE)
            cpu.cycles += 4

    def read8(self, addr: int) -> int:
        self._note_fetch()
        return self._cpu.read(addr, 1)

    def read16(self, addr: int) -> int:
        self._note_fetch()
        return self._cpu.read(addr, 2)

    def read32(self, addr: int) -> int:
        self._note_fetch()
        return self._cpu.read(addr, 4)

    def write8(self, addr: int, value: int) -> None:
        self._note_fetch()
        self._cpu.write(addr, 1, value)

    def write16(self, addr: int, value: int) -> None:
        self._note_fetch()
        self._cpu.write(addr, 2, value)

    def write32(self, addr: int, value: int) -> None:
        self._note_fetch()
        self._cpu.write(addr, 4, value)

    def _charge_run(self, addr: int, length: int, kb: int) -> int:
        """Charge the longest prefix of a byte run that the slice arm
        serves in one step and return its length; the per-byte loop
        serves the rest of the run.

        A run that crosses the RAM end is cut to its even-length in-RAM
        prefix, so the loop that takes over keeps the microcode-fetch
        parity.  The loop (the differential oracle) serves the whole
        run when that prefix is 8 bytes or fewer, when the run starts
        outside RAM, under an attached sanitizer, and under a profiler
        with per-pc reference tracking.  Everything else is charged
        exactly as the loop charges it: 4 cycles per byte and, with a
        profiler attached, one microcode fetch (4 cycles, one
        reference) before every even-indexed byte plus one ``kb``
        reference per byte.
        """
        cpu = self._cpu
        bus: Any = cpu.bus
        base = getattr(bus, "_ram_base", None)
        if (base is None or bus.san is not None
                or not (base <= addr < bus.ram_limit)):
            return 0
        n = length
        if addr + n > bus.ram_limit:
            n = (bus.ram_limit - addr) & ~1
        if n <= 8:
            return 0
        tracer = bus.tracer
        if tracer is not None:
            if tracer.track_reference_pcs:
                return 0
            pcf = cpu.pc & 0xFFFFFFFE
            if base <= pcf and pcf < bus.ram_limit:
                ftok = pcf                          # fetch, RAM
            elif bus._flash_base <= pcf and pcf < bus.flash_limit:
                ftok = pcf | (0x10 << 32)           # fetch, flash
            else:
                return 0
            tracer.bulk_references(_run_tokens(ftok, addr, n, kb << 32))
            cpu.cycles += 4 * ((n + 1) >> 1)
        cpu.cycles += 4 * n
        return n

    def read_bytes(self, addr: int, length: int) -> bytes:
        n = self._charge_run(addr, length, 0x1)       # read, RAM
        if not n:
            return self._read_loop(addr, length)
        bus: Any = self._cpu.bus
        off = addr - bus._ram_base
        data = bytes(bus._ram_data[off:off + n])
        if n < length:
            data += self._read_loop(addr + n, length - n)
        return data

    def write_bytes(self, addr: int, data: bytes) -> None:
        length = len(data)
        n = self._charge_run(addr, length, 0x2)       # write, RAM
        if not n:
            self._write_loop(addr, data)
            return
        bus: Any = self._cpu.bus
        w = bus.ram_watch
        if w is not None and w.pages:
            # The loop hits each watched page once, at its first byte:
            # the code watch stops watching a page on its first hit.
            pages = w.pages
            for page in range(addr >> 8, ((addr + n - 1) >> 8) + 1):
                if page in pages:
                    w.hit(max(addr, page << 8))
        off = addr - bus._ram_base
        bus._ram_data[off:off + n] = data[:n]
        if n < length:
            self._write_loop(addr + n, data[n:])

    def _read_loop(self, addr: int, length: int) -> bytes:
        """The per-byte read loop: the fallback and the oracle."""
        cpu = self._cpu
        out = bytearray()
        for i in range(length):
            if i % 2 == 0:
                self._note_fetch()
            out.append(cpu.read(addr + i, 1))
        return bytes(out)

    def _write_loop(self, addr: int, data: bytes) -> None:
        """The per-byte write loop: the fallback and the oracle."""
        cpu = self._cpu
        for i, byte in enumerate(data):
            if i % 2 == 0:
                self._note_fetch()
            cpu.write(addr + i, 1, byte)


def _run_tokens(ftok: int, addr: int, length: int, data_kb: int) -> Any:
    """The packed trace tokens of a byte run, exactly as the per-byte
    loop records them: the microcode fetch token ``ftok`` before every
    even-indexed byte, one data token per byte."""
    import numpy as np

    pairs = length >> 1
    toks = np.empty(length + pairs + (length & 1), dtype=np.uint64)
    body = toks[:3 * pairs].reshape(pairs, 3)
    body[:, 0] = ftok
    body[:, 1] = np.arange(addr, addr + 2 * pairs, 2,
                           dtype=np.uint64) + data_kb
    body[:, 2] = np.arange(addr + 1, addr + 2 * pairs, 2,
                           dtype=np.uint64) + data_kb
    if length & 1:
        toks[3 * pairs] = ftok
        toks[3 * pairs + 1] = (addr + length - 1) + data_kb
    return toks


class HostAccess:
    """Raw access to a :class:`repro.m68k.bus.FlatMemory` (no tracing)."""

    def __init__(self, memory: "FlatMemory"):
        self._memory = memory

    def read8(self, addr: int) -> int:
        return self._memory.read8(addr)

    def read16(self, addr: int) -> int:
        return self._memory.read16(addr)

    def read32(self, addr: int) -> int:
        return self._memory.read32(addr)

    def write8(self, addr: int, value: int) -> None:
        self._memory.write8(addr, value)

    def write16(self, addr: int, value: int) -> None:
        self._memory.write16(addr, value)

    def write32(self, addr: int, value: int) -> None:
        self._memory.write32(addr, value)

    def read_bytes(self, addr: int, length: int) -> bytes:
        return self._memory.dump(addr, length)

    def write_bytes(self, addr: int, data: bytes) -> None:
        self._memory.load(addr, bytes(data))
