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

from typing import TYPE_CHECKING, Any, Optional, Protocol

if TYPE_CHECKING:
    from ..m68k.bus import FlatMemory
    from ..m68k.cpu import CPU

_PROFILER: Any = None


def _profiler_type() -> Any:
    """Lazy :class:`repro.emulator.profiling.Profiler` (import cycle)."""
    global _PROFILER
    if _PROFILER is None:
        from ..emulator.profiling import Profiler
        _PROFILER = Profiler
    return _PROFILER


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

    Byte runs (:meth:`read_bytes`, :meth:`write_bytes`) that stay in RAM
    take one slice arm, traced or not, that charges the same cycles and
    records the same references and code-watch hits as the per-byte
    loop; the loop remains for the configurations listed in
    :meth:`_charge_run`.
    """

    def __init__(self, cpu: "CPU", microcode_fetch: bool = True):
        self._cpu = cpu
        self.microcode_fetch = microcode_fetch

    def _note_fetch(self) -> None:
        cpu = self._cpu
        if self.microcode_fetch and getattr(cpu.bus, "tracer", None) is not None:
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

    def _charge_run(self, addr: int, length: int, kb: int) -> Optional[int]:
        """Charge a byte run in one step; return its offset into RAM, or
        ``None`` when the per-byte loop must serve it.

        The loop (the differential oracle) keeps runs of 8 bytes or
        fewer, runs that leave RAM, ``microcode_fetch=False``, an
        attached sanitizer, tracers other than the
        :class:`~repro.emulator.profiling.Profiler`, and profilers with
        online caches or per-pc reference tracking.  Everything else is
        charged exactly as the loop charges it: 4 cycles per byte and,
        with a profiler attached, one microcode fetch (4 cycles, one
        reference) before every even-indexed byte plus one ``kb``
        reference per byte.
        """
        cpu = self._cpu
        bus: Any = cpu.bus
        base = getattr(bus, "_ram_base", None)
        if (length <= 8 or base is None or not self.microcode_fetch
                or bus.san is not None
                or not (base <= addr and addr + length <= bus.ram_limit)):
            return None
        tracer = bus.tracer
        if tracer is not None:
            if (type(tracer) is not _profiler_type() or tracer.online_caches
                    or tracer.track_reference_pcs):
                return None
            pcf = cpu.pc & 0xFFFFFFFE
            if base <= pcf and pcf < bus.ram_limit:
                ftok = pcf                          # fetch, RAM
            elif bus._flash_base <= pcf and pcf < bus.flash_limit:
                ftok = pcf | (0x10 << 32)           # fetch, flash
            else:
                return None
            fetches = (length + 1) >> 1
            if tracer.trace_references:
                tracer.bulk_references(
                    _run_tokens(ftok, addr, length, kb << 32))
            else:
                counts = tracer._counts
                counts[ftok >> 32] += fetches
                counts[kb] += length
            cpu.cycles += 4 * fetches
        cpu.cycles += 4 * length
        return addr - base

    def read_bytes(self, addr: int, length: int) -> bytes:
        off = self._charge_run(addr, length, 0x1)     # read, RAM
        if off is None:
            return self._read_loop(addr, length)
        bus: Any = self._cpu.bus
        return bytes(bus._ram_data[off:off + length])

    def write_bytes(self, addr: int, data: bytes) -> None:
        length = len(data)
        off = self._charge_run(addr, length, 0x2)     # write, RAM
        if off is None:
            self._write_loop(addr, data)
            return
        bus: Any = self._cpu.bus
        w = bus.ram_watch
        if w is not None and w.pages:
            # The loop hits each watched page once, at its first byte:
            # the code watch stops watching a page on its first hit.
            pages = w.pages
            for page in range(addr >> 8, ((addr + length - 1) >> 8) + 1):
                if page in pages:
                    w.hit(max(addr, page << 8))
        bus._ram_data[off:off + length] = data

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
