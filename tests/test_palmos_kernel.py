"""Kernel integration tests: real 68k applications receiving hardware
input through the full trap path (events, databases, RNG, app switch,
reset persistence, and the native-vs-dispatcher equivalence POSE's
design depends on)."""

from repro.device import Button
from repro.palmos import EventType, LAUNCH_DB_NAME, Trap
from repro.palmos import layout as L
from repro.palmos.database import fourcc

from tests.palmos_utils import BLANK_APP, RECORDER_APP, make_kernel, recorded_events


class TestBoot:
    def test_boot_reaches_idle_in_recorder_app(self):
        kernel = make_kernel()
        assert kernel.current_app_name() == "recorder"
        assert kernel.device.cpu.stopped

    def test_boot_creates_launch_db(self):
        kernel = make_kernel()
        assert kernel.dm_host.find(LAUNCH_DB_NAME)

    def test_storage_survives_reboot_dynamic_does_not(self):
        kernel = make_kernel()
        db = kernel.dm_host.create("UserData")
        addr = kernel.dm_host.new_record(db, 0, 4)
        kernel.host.write32(addr, 0x12345678)
        ptr = kernel.dyn_heap.with_access(kernel.host).alloc(64)
        assert ptr
        kernel.boot()
        db2 = kernel.dm_host.find("UserData")
        assert db2
        assert kernel.dm_host.read_record(db2, 0) == b"\x124Vx"
        # Dynamic heap was reformatted: one free chunk again.
        chunks = list(kernel.dyn_heap.with_access(kernel.host).chunks())
        assert len(chunks) == 1 and chunks[0].free

    def test_rom_assembled_once_per_source(self):
        from repro.palmos.rom import RomBuilder

        program = RomBuilder([RECORDER_APP]).build()
        assert RomBuilder([RECORDER_APP]).build() is program
        other = RomBuilder([BLANK_APP]).build()
        assert other is not program
        assert "app_blank" in other.symbols
        assert "app_blank" not in program.symbols

    def test_rand_seeded_through_trap_at_boot(self):
        # Two kernels with different entropy develop different RNG state.
        k1 = make_kernel(entropy_seed=111)
        k2 = make_kernel(entropy_seed=222)
        s1 = k1.host.read32(L.G_RAND_SEED)
        s2 = k2.host.read32(L.G_RAND_SEED)
        assert s1 != s2
        # Same entropy -> identical state (determinism).
        k3 = make_kernel(entropy_seed=111)
        assert k3.host.read32(L.G_RAND_SEED) == s1


class TestEventFlow:
    def test_pen_tap_produces_down_and_up(self):
        kernel = make_kernel()
        kernel.device.schedule_pen_down(10, 42, 77)
        kernel.device.schedule_pen_up(12)
        kernel.device.run_until_idle()
        events = recorded_events(kernel)
        etypes = [e[0] for e in events]
        assert etypes[0] == EventType.penDownEvent
        assert etypes[-1] == EventType.penUpEvent
        assert events[0][1:3] == (42, 77)

    def test_held_stylus_streams_move_events(self):
        kernel = make_kernel()
        kernel.device.schedule_pen_down(10, 10, 10)
        kernel.device.schedule_pen_move(30, 60, 60)
        kernel.device.schedule_pen_up(50)
        kernel.device.run_until_idle()
        events = recorded_events(kernel)
        moves = [e for e in events if e[0] == EventType.penMoveEvent]
        # 40 ticks held at 50 Hz sampling = ~19 move samples after the
        # down event.
        assert 15 <= len(moves) <= 22
        assert any(e[1] == 60 for e in moves)

    def test_button_press_events(self):
        kernel = make_kernel()
        kernel.device.schedule_button_press(10, Button.UP)
        kernel.device.schedule_button_release(15, Button.UP)
        kernel.device.run_until_idle()
        events = recorded_events(kernel)
        assert (EventType.keyDownEvent, 0, 0, Button.UP, 0) in events
        assert (EventType.keyUpEvent, 0, 0, Button.UP, 0) in events

    def test_nil_event_on_timeout(self):
        # An app that asks for a 20-tick timeout receives nilEvent.
        from repro.palmos import AppSpec
        app = AppSpec(name="timeouter", source="""
app_timeouter:
        link    a6,#-16
        move.l  #20,-(sp)               ; 20-tick timeout
        pea     -16(a6)
        dc.w    SYS_EvtGetEvent
        addq.l  #8,sp
        move.w  -16(a6),d0
        move.l  d0,$30000               ; record the event type
tm_stop:
        move.l  #$ffffffff,-(sp)
        pea     -16(a6)
        dc.w    SYS_EvtGetEvent
        addq.l  #8,sp
        move.w  -16(a6),d0
        cmpi.w  #22,d0
        bne.s   tm_stop
        unlk    a6
        rts
""")
        kernel = make_kernel(apps=[app])
        assert kernel.host.read32(0x30000) == EventType.nilEvent
        assert kernel.device.tick >= 20

    def test_event_order_preserved(self):
        kernel = make_kernel()
        kernel.device.schedule_button_press(10, Button.UP)
        kernel.device.schedule_button_release(12, Button.UP)
        kernel.device.schedule_button_press(14, Button.DOWN)
        kernel.device.schedule_button_release(16, Button.DOWN)
        kernel.device.run_until_idle()
        keys = [e[3] for e in recorded_events(kernel)
                if e[0] == EventType.keyDownEvent]
        assert keys == [Button.UP, Button.DOWN]


class TestAppSwitching:
    def test_hard_button_switches_app(self):
        kernel = make_kernel(apps=[
            RECORDER_APP,
            type(BLANK_APP)(name="blank", source=BLANK_APP.source,
                            button=Button.MEMO),
        ])
        assert kernel.current_app_name() == "recorder"
        kernel.device.schedule_button_press(20, Button.MEMO)
        kernel.device.schedule_button_release(22, Button.MEMO)
        kernel.device.run_until_idle()
        assert kernel.current_app_name() == "blank"
        # The recorder saw an appStopEvent as its final event.
        assert recorded_events(kernel)[-1][0] == EventType.appStopEvent

    def test_launch_db_records_switches(self):
        kernel = make_kernel(apps=[
            RECORDER_APP,
            type(BLANK_APP)(name="blank", source=BLANK_APP.source,
                            button=Button.MEMO),
        ])
        db = kernel.dm_host.find(LAUNCH_DB_NAME)
        before = kernel.dm_host.read_record(db, 0)
        kernel.device.schedule_button_press(20, Button.MEMO)
        kernel.device.schedule_button_release(22, Button.MEMO)
        kernel.device.run_until_idle()
        after = kernel.dm_host.read_record(db, 0)
        assert after != before  # launch count/app updated


class TestTrapSemantics:
    """Direct trap calls through the host thunk driver."""

    def test_ticks_and_seconds(self):
        kernel = make_kernel()
        kernel.device.run_ticks(300)
        ticks = kernel.call_trap(Trap.TimGetTicks)
        assert ticks >= 300
        seconds = kernel.call_trap(Trap.TimGetSeconds)
        assert seconds == kernel.device.rtc.seconds_at(kernel.device.tick)

    def test_ticks_per_second(self):
        kernel = make_kernel()
        assert kernel.call_trap(Trap.SysTicksPerSecond) == 100

    def test_sysrandom_sequence_and_seeding(self):
        kernel = make_kernel()
        a = kernel.call_trap(Trap.SysRandom, 0)
        b = kernel.call_trap(Trap.SysRandom, 0)
        assert a != b
        # Re-seeding restarts the sequence.
        c1 = kernel.call_trap(Trap.SysRandom, 777)
        c2 = kernel.call_trap(Trap.SysRandom, 0)
        d1 = kernel.call_trap(Trap.SysRandom, 777)
        d2 = kernel.call_trap(Trap.SysRandom, 0)
        assert (c1, c2) == (d1, d2)
        assert all(0 <= v <= 0x7FFF for v in (a, b, c1, c2))

    def test_key_current_state(self):
        kernel = make_kernel()
        kernel.device.buttons.press(Button.UP)
        assert kernel.call_trap(Trap.KeyCurrentState) == Button.UP
        kernel.device.buttons.release(Button.UP)
        assert kernel.call_trap(Trap.KeyCurrentState) == 0

    def test_mem_ptr_new_and_free(self):
        kernel = make_kernel()
        ptr = kernel.call_trap(Trap.MemPtrNew, 128)
        assert L.DYNAMIC_HEAP_BASE < ptr < L.DYNAMIC_HEAP_LIMIT
        assert kernel.call_trap(Trap.MemPtrSize, ptr) >= 128
        assert kernel.call_trap(Trap.MemPtrFree, ptr) == 0

    def test_memmove_via_guest_copy_loop(self):
        kernel = make_kernel()
        src = kernel.call_trap(Trap.MemPtrNew, 64)
        dst = kernel.call_trap(Trap.MemPtrNew, 64)
        kernel.host.write_bytes(src, bytes(range(64)))
        kernel.allow_native = False  # force the 68k data plane
        assert kernel.call_trap(Trap.MemMove, dst, src, 64) == 0
        kernel.allow_native = True
        assert kernel.host.read_bytes(dst, 64) == bytes(range(64))

    def test_memmove_overlapping_forward(self):
        kernel = make_kernel()
        buf = kernel.call_trap(Trap.MemPtrNew, 32)
        kernel.host.write_bytes(buf, bytes(range(16)) + bytes(16))
        kernel.allow_native = False
        kernel.call_trap(Trap.MemMove, buf + 4, buf, 16)
        kernel.allow_native = True
        assert kernel.host.read_bytes(buf + 4, 16) == bytes(range(16))

    def test_memset(self):
        kernel = make_kernel()
        buf = kernel.call_trap(Trap.MemPtrNew, 40)
        kernel.allow_native = False
        kernel.call_trap(Trap.MemSet, buf, 40, 0xAB)
        kernel.allow_native = True
        assert kernel.host.read_bytes(buf, 40) == b"\xab" * 40

    def test_database_traps_end_to_end(self):
        kernel = make_kernel()
        # Write a name string into guest scratch.
        name_addr = 0x38000
        kernel.host.write_bytes(name_addr, b"TrapDB\x00")
        db = kernel.call_trap(Trap.DmCreateDatabase, name_addr,
                              fourcc("DATA"), fourcc("test"), 0)
        assert db
        assert kernel.call_trap(Trap.DmFindDatabase, name_addr) == db
        rec = kernel.call_trap(Trap.DmNewRecord, db,
                               L.DM_MAX_RECORD_INDEX, 16)
        assert rec
        assert kernel.call_trap(Trap.DmNumRecords, db) == 1
        # Write through the trap, read back host-side.
        src = 0x38100
        kernel.host.write_bytes(src, b"0123456789abcdef")
        err = kernel.call_trap(Trap.DmWriteRecord, db, 0, 0, src, 16)
        assert err == 0
        db_host = kernel.dm_host.find("TrapDB")
        assert kernel.dm_host.read_record(db_host, 0) == b"0123456789abcdef"
        got = kernel.call_trap(Trap.DmGetRecord, db, 0)
        assert got == rec

    def test_database_traps_through_dispatcher(self):
        """Same operations with the native fast path disabled: the ROM
        dispatcher, stub walk loops, and F-line callbacks must agree."""
        kernel = make_kernel()
        kernel.allow_native = False
        name_addr = 0x38000
        kernel.host.write_bytes(name_addr, b"SlowDB\x00")
        db = kernel.call_trap(Trap.DmCreateDatabase, name_addr,
                              fourcc("DATA"), fourcc("test"), 0)
        values = [5, 6, 7, 8]
        for value in values:
            rec = kernel.call_trap(Trap.DmNewRecord, db,
                                   L.DM_MAX_RECORD_INDEX, 1)
            assert rec
            kernel.host.write8(rec, value)
        assert kernel.call_trap(Trap.DmNumRecords, db) == 4
        err = kernel.call_trap(Trap.DmRemoveRecord, db, 1)
        assert err == 0
        kernel.allow_native = True
        db_host = kernel.dm_host.find("SlowDB")
        got = [kernel.dm_host.read_record(db_host, i)[0] for i in range(3)]
        assert got == [5, 7, 8]

    def test_invalid_record_index_errors(self):
        kernel = make_kernel()
        name_addr = 0x38000
        kernel.host.write_bytes(name_addr, b"ErrDB\x00")
        db = kernel.call_trap(Trap.DmCreateDatabase, name_addr, 0, 0, 0)
        for native in (True, False):
            kernel.allow_native = native
            assert kernel.call_trap(Trap.DmGetRecord, db, 3) == 0
            assert kernel.call_trap(Trap.DmGetLastErr) != 0
        kernel.allow_native = True

    def test_trap_address_get_set(self):
        kernel = make_kernel()
        orig = kernel.call_trap(Trap.SysGetTrapAddress, int(Trap.SysRandom))
        assert orig == kernel.default_stubs[int(Trap.SysRandom)]
        old = kernel.call_trap(Trap.SysSetTrapAddress,
                               int(Trap.SysRandom), 0x123456)
        assert old == orig
        assert kernel.call_trap(Trap.SysGetTrapAddress,
                                int(Trap.SysRandom)) == 0x123456
        kernel.call_trap(Trap.SysSetTrapAddress, int(Trap.SysRandom), orig)

    def test_drawing_traps_write_framebuffer(self):
        kernel = make_kernel()
        kernel.allow_native = False
        kernel.call_trap(Trap.WinDrawRectangle, 10, 10, 4, 3, 0x1234)
        kernel.allow_native = True
        fb = L.FRAMEBUFFER
        assert kernel.host.read16(fb + (10 * 160 + 10) * 2) == 0x1234
        assert kernel.host.read16(fb + (12 * 160 + 13) * 2) == 0x1234
        assert kernel.host.read16(fb + (12 * 160 + 14) * 2) == 0

    def test_drawing_native_matches_guest(self):
        k1 = make_kernel()
        k2 = make_kernel()
        k2.allow_native = False
        for k in (k1, k2):
            k.call_trap(Trap.WinDrawRectangle, 5, 6, 7, 8, 0xBEEF)
            k.call_trap(Trap.WinDrawPixel, 100, 100, 0x0F0F)
        fb1 = k1.host.read_bytes(L.FRAMEBUFFER, 160 * 160 * 2)
        fb2 = k2.host.read_bytes(L.FRAMEBUFFER, 160 * 160 * 2)
        assert fb1 == fb2

    def test_erase_window_fills_white(self):
        kernel = make_kernel()
        kernel.allow_native = False
        kernel.call_trap(Trap.WinEraseWindow, max_ticks=200_000)
        kernel.allow_native = True
        assert kernel.host.read_bytes(L.FRAMEBUFFER, 64) == b"\xff" * 64


class TestDeterminism:
    def _run_session(self, seed):
        kernel = make_kernel(entropy_seed=seed)
        kernel.device.schedule_pen_down(10, 30, 30)
        kernel.device.schedule_pen_up(14)
        kernel.device.schedule_button_press(30, Button.UP)
        kernel.device.schedule_button_release(33, Button.UP)
        kernel.device.run_until_idle()
        return recorded_events(kernel), kernel.device.cpu.instructions

    def test_identical_runs_are_bit_identical(self):
        """The deterministic state machine model, verified: same initial
        state + same inputs = same execution."""
        events1, instr1 = self._run_session(seed=9)
        events2, instr2 = self._run_session(seed=9)
        assert events1 == events2
        assert instr1 == instr2
