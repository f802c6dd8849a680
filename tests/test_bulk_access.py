"""Trap microcode byte runs: the bulk RAM arm against the byte loop.

``TracedAccess.read_bytes``/``write_bytes`` serve the in-RAM part of a
run with one slice, traced or not; the per-byte loop they fall back to
is the oracle.  Every observable must match: RAM, ``cpu.cycles``, the
profiler's trace, code-watch invalidations and the set of predecoded
blocks that survive the run.  ``SysCalls.n_MemSet`` and
``SysCalls.n_MemMove`` are checked against the same loop, including
guest lengths that run off the end of RAM.
"""

import struct
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.device import constants as C
from repro.device.device import PalmDevice
from repro.emulator.profiling import Profiler
from repro.m68k.errors import BusError
from repro.palmos.access import TracedAccess

RAM_SIZE = 1 << 16
FLASH_SIZE = 1 << 16
NOP, RTS = 0x4E71, 0x4E75
#: Entry pcs of predecoded RAM blocks: several pages, two blocks on one
#: page, a block spanning a page boundary and one on the last RAM page.
BLOCK_PCS = (0x2000, 0x2100, 0x2300, 0x2380, 0x24F8, RAM_SIZE - 0x80)
FLASH_PC = C.FLASH_BASE + 0x40


def _device(tracer, pc):
    dev = PalmDevice(ram_size=RAM_SIZE, flash_size=FLASH_SIZE, core="fast")
    ram = dev.mem.ram
    for i in range(0, RAM_SIZE, 4):
        ram.data[i:i + 4] = struct.pack(">I", (i * 2654435761) & 0xFFFFFFFF)
    body = struct.pack(">6H", NOP, NOP, NOP, NOP, NOP, RTS)
    for block_pc in BLOCK_PCS:
        ram.data[block_pc:block_pc + len(body)] = body
    for block_pc in BLOCK_PCS:
        assert dev.core._build(block_pc) is not None
    dev.mem.tracer = tracer
    dev.cpu.pc = pc
    return dev


def _observe(dev, tracer, result):
    core = dev.core
    seen = (bytes(dev.mem.ram.data), dev.cpu.cycles, core.invalidations,
            frozenset(core.blocks), frozenset(core.watch.pages), result)
    if tracer is None:
        return seen
    return seen + (tracer.trace_bytes(),)


#: Every configuration ``TracedAccess._charge_run`` distinguishes: no
#: tracer, the profiler (slice arm) and the per-pc profiler (byte loop).
TRACERS = {
    "untraced": lambda: None,
    "profiler": lambda: Profiler(),
    "pcs": lambda: Profiler(track_reference_pcs=True),
}


def _run(tracer_kind, pc, op, addr, length, oracle):
    tracer = TRACERS[tracer_kind]()
    dev = _device(tracer, pc)
    acc = TracedAccess(dev.cpu)
    data = bytes((addr + 7 * i) & 0xFF for i in range(length))
    try:
        if op == "write":
            (acc._write_loop if oracle else acc.write_bytes)(addr, data)
            result = None
        else:
            result = (acc._read_loop if oracle
                      else acc.read_bytes)(addr, length)
    except BusError as exc:
        result = ("BusError", exc.address)
    return _observe(dev, tracer, result)


#: Start addresses near the code pages, the RAM end and anywhere else.
ADDRS = st.one_of(st.integers(0x1F00, 0x2600),
                  st.integers(RAM_SIZE - 0x200, RAM_SIZE + 0x10),
                  st.integers(0, RAM_SIZE - 1))
LENGTHS = st.one_of(st.integers(0, 9), st.integers(0, 700))


class TestBulkArmMatchesByteLoop:
    @pytest.mark.parametrize("tracer_kind", sorted(TRACERS))
    @settings(max_examples=60, deadline=None)
    @given(op=st.sampled_from(("write", "read")), addr=ADDRS,
           length=LENGTHS, pc=st.sampled_from((FLASH_PC, 0x3000)))
    def test_random_runs(self, tracer_kind, op, addr, length, pc):
        assert (_run(tracer_kind, pc, op, addr, length, oracle=False)
                == _run(tracer_kind, pc, op, addr, length, oracle=True))

    @pytest.mark.parametrize("tracer_kind", sorted(TRACERS))
    @pytest.mark.parametrize("addr,length", [
        (0x1FF1, 0x520),            # odd start, every code page
        (0x2101, 0x2A1),            # odd length, two blocks on a page
        (0x24F9, 9),                # just over the loop's 8-byte limit
        (0x24FA, 8),                # the loop's own territory
        (RAM_SIZE - 0x81, 0x81),    # last byte of RAM, last code page
        (RAM_SIZE - 0x41, 0x45),    # straddles the RAM end
    ])
    def test_edges(self, tracer_kind, addr, length):
        for op in ("write", "read"):
            assert (_run(tracer_kind, FLASH_PC, op, addr, length, False)
                    == _run(tracer_kind, FLASH_PC, op, addr, length, True))

    def test_write_over_code_invalidates_each_page_once(self):
        dev = _device(Profiler(), FLASH_PC)
        TracedAccess(dev.cpu).write_bytes(0x1FF0, bytes(0x520))
        # Pages 0x20, 0x21, 0x23, 0x24 and 0x25 (the block at 0x24F8
        # spans the last two); the block on the last page survives.
        assert dev.core.invalidations == 5
        assert set(dev.core.blocks) == {RAM_SIZE - 0x80}


def _kernel_args(dev, *args):
    """Lay a trap's 32-bit arguments out at ``sp + 4``."""
    sp = 0x8000
    dev.cpu.a[7] = sp
    dev.mem.ram.data[sp + 4:sp + 4 + 4 * len(args)] = struct.pack(
        f">{len(args)}I", *args)
    return 4


class _StubKernel:
    """The slice of :class:`repro.palmos.kernel.PalmOS` that
    ``SysCalls.n_MemSet`` and ``n_MemMove`` touch: the traced
    accessor."""

    def __init__(self, cpu):
        self.traced = TracedAccess(cpu)


def _syscalls(dev):
    from repro.palmos.syscalls import SysCalls

    calls = SysCalls.__new__(SysCalls)
    calls.k = _StubKernel(dev.cpu)
    return calls


def _memset(tracer_kind, ptr, length, oracle):
    tracer = TRACERS[tracer_kind]()
    dev = _device(tracer, FLASH_PC)
    base = _kernel_args(dev, ptr, length, 0x1AB)
    calls = _syscalls(dev)
    try:
        if oracle:
            args = [calls._arg(dev.cpu, base, i) for i in range(3)]
            calls.acc._write_loop(args[0], bytes([args[2] & 0xFF]) * args[1])
        else:
            calls.n_MemSet(dev.cpu, base)
        result = None
    except BusError as exc:
        result = ("BusError", exc.address)
    return _observe(dev, tracer, result)


class TestMemSetBounds:
    @pytest.mark.parametrize("tracer_kind", sorted(TRACERS))
    def test_length_past_ram_end_matches_byte_loop(self, tracer_kind):
        ptr = RAM_SIZE - 0x90
        got = _memset(tracer_kind, ptr, 0x90 + 5, oracle=False)
        assert got[5] == ("BusError", RAM_SIZE)
        assert got == _memset(tracer_kind, ptr, 0x90 + 5, oracle=True)

    @pytest.mark.parametrize("tracer_kind", sorted(TRACERS))
    def test_huge_length_faults_at_once(self, tracer_kind):
        started = time.monotonic()
        got = _memset(tracer_kind, 0x1000, 0xFFFFFFF0, oracle=False)
        assert got[5] == ("BusError", RAM_SIZE)
        assert got[0][0x1000:] == b"\xab" * (RAM_SIZE - 0x1000)
        assert time.monotonic() - started < 10.0


def _memmove(tracer_kind, dst, src, length, oracle, byte_reads=None):
    tracer = TRACERS[tracer_kind]()
    dev = _device(tracer, FLASH_PC)
    base = _kernel_args(dev, dst, src, length)
    calls = _syscalls(dev)
    if byte_reads is not None:
        read = dev.cpu.read

        def counting_read(addr, size):
            if size == 1:
                byte_reads.append(addr)
            return read(addr, size)
        dev.cpu.read = counting_read
    try:
        if oracle:
            args = [calls._arg(dev.cpu, base, i) for i in range(3)]
            data = calls.acc._read_loop(args[1], args[2])
            calls.acc._write_loop(args[0], data)
        else:
            calls.n_MemMove(dev.cpu, base)
        result = None
    except BusError as exc:
        result = ("BusError", exc.address)
    return _observe(dev, tracer, result)


class TestMemMoveBounds:
    @pytest.mark.parametrize("tracer_kind", sorted(TRACERS))
    @pytest.mark.parametrize("dst,src,length", [
        (0x2010, 0x2000, 0x301),            # overlapping, forward
        (0x2000, 0x2011, 0x300),            # overlapping, backward
        (0x3000, RAM_SIZE - 0x41, 0x45),    # source straddles the RAM end
        (RAM_SIZE - 0x40, 0x3001, 0x45),    # target straddles the RAM end
    ])
    def test_matches_byte_loop(self, tracer_kind, dst, src, length):
        got = _memmove(tracer_kind, dst, src, length, oracle=False)
        assert got == _memmove(tracer_kind, dst, src, length, oracle=True)
        if max(dst, src) + length > RAM_SIZE:
            assert got[5] == ("BusError", RAM_SIZE)

    @pytest.mark.parametrize("tracer_kind", ["untraced", "profiler"])
    def test_huge_length_reads_only_past_the_prefix(self, tracer_kind):
        """A run that crosses the RAM end takes the slice arm up to the
        end; the byte loop serves only what lies past it, so a wild
        guest length costs one faulting byte read, not one per RAM
        byte."""
        src = 0x2000
        reads = []
        got = _memmove(tracer_kind, 0x3000, src, 0xFFFFFFF0, oracle=False,
                       byte_reads=reads)
        assert got[5] == ("BusError", RAM_SIZE)
        assert reads == [RAM_SIZE]
        assert got == _memmove(tracer_kind, 0x3000, src, 0xFFFFFFF0,
                               oracle=True)
