"""Tests for the Palm m515 device model: interrupt plumbing, pen
sampling at 50 Hz, button latching, doze-mode time skipping, the RTC,
and the memory map."""

import pytest

from repro.device import Button, PalmDevice, constants as C
from repro.device.memmap import KIND_FETCH, KIND_READ, KIND_WRITE
from repro.device import REGION_FLASH, REGION_RAM
from repro.emulator.profiling import Profiler
from repro.m68k.asm import assemble
from repro.m68k.errors import BusError

# A minimal "ROM": boot installs a level-4 autovector ISR that counts
# pen, key, and timer interrupts into RAM cells, then sleeps forever.
TEST_ROM = """
        org     $10000000
        dc.l    $7000               ; initial SSP
        dc.l    boot                ; reset PC
boot:   lea     isr,a0
        move.l  a0,$70              ; vector 28 (autovector level 4)
        move    #$2000,sr           ; unmask interrupts
loop:   stop    #$2000
        bra.s   loop
isr:    movem.l d0-d1/a0,-(sp)
        move.l  $fffff000,d0        ; INT_STATUS
        btst    #1,d0               ; pen?
        beq.s   nopen
        lea     $6000,a0
        addq.l  #1,(a0)             ; pen count
        move.l  $fffff010,d1        ; PEN_SAMPLE
        move.l  d1,4(a0)
nopen:  btst    #2,d0               ; key?
        beq.s   nokey
        lea     $6010,a0
        addq.l  #1,(a0)             ; key count
        move.l  $fffff018,d1        ; KEY_EVENT
        move.l  d1,4(a0)
nokey:  btst    #0,d0               ; timer?
        beq.s   notmr
        lea     $6020,a0
        addq.l  #1,(a0)             ; timer count
notmr:  move.l  d0,$fffff004        ; INT_ACK
        movem.l (sp)+,d0-d1/a0
        rte
"""

PEN_COUNT = 0x6000
PEN_LAST = 0x6004
KEY_COUNT = 0x6010
KEY_LAST = 0x6014
TMR_COUNT = 0x6020


def make_device() -> PalmDevice:
    device = PalmDevice(ram_size=1 << 20, flash_size=1 << 20)
    program = assemble(TEST_ROM)
    for addr, blob in program.segments:
        device.mem.load_flash_image(blob, offset=addr - C.FLASH_BASE)
    device.soft_reset()
    return device


class TestPenSampling:
    def test_held_stylus_samples_at_50hz(self):
        device = make_device()
        device.schedule_pen_down(10, 80, 80)
        device.schedule_pen_up(110)  # held exactly one second
        device.advance(150)
        # 50 down-samples (ticks 10..108) plus the pen-up sample.
        assert device.mem.ram.read32(PEN_COUNT) == 51

    def test_pen_up_sample_has_down_flag_clear(self):
        device = make_device()
        device.schedule_pen_down(10, 30, 40)
        device.schedule_pen_up(12)
        device.advance(30)
        last = device.mem.ram.read32(PEN_LAST)
        assert (last >> 24) & 0x80 == 0  # up
        assert (last >> 8) & 0xFF == 30
        assert last & 0xFF == 40

    def test_pen_coordinates_clamped_to_screen(self):
        device = make_device()
        device.digitizer.pen_down(500, -3)
        assert device.digitizer.x == C.SCREEN_WIDTH - 1
        assert device.digitizer.y == 0

    def test_pen_moves_tracked_between_samples(self):
        device = make_device()
        device.schedule_pen_down(10, 10, 10)
        device.schedule_pen_move(11, 99, 98)  # between samples
        device.advance(13)
        last = device.mem.ram.read32(PEN_LAST)
        assert (last >> 8) & 0xFF == 99
        assert last & 0xFF == 98


class TestButtons:
    def test_press_and_release_interrupt(self):
        device = make_device()
        device.schedule_button_press(20, Button.MEMO)
        device.schedule_button_release(30, Button.MEMO)
        device.advance(50)
        assert device.mem.ram.read32(KEY_COUNT) == 2
        # Release was the last transition: down flag clear, MEMO bit set.
        assert device.mem.ram.read32(KEY_LAST) == Button.MEMO

    def test_key_state_reflects_held_buttons(self):
        device = make_device()
        device.schedule_button_press(20, Button.UP)
        device.advance(25)
        assert device.buttons.state == Button.UP

    def test_double_press_is_one_transition(self):
        device = make_device()
        device.buttons.press(Button.UP)
        device.buttons.press(Button.UP)
        device.buttons.release(Button.UP)
        device.buttons.release(Button.UP)
        # Status bit was raised twice total (press + release).
        assert device.buttons.state == 0


class TestDozing:
    def test_idle_device_skips_time_cheaply(self):
        device = make_device()
        device.advance(10)
        before = device.cpu.instructions
        device.advance(100_000)  # 1000 virtual seconds
        executed = device.cpu.instructions - before
        assert executed < 100  # dozing costs no instruction work
        assert device.tick == 100_000

    def test_cycles_track_ticks_through_doze(self):
        device = make_device()
        device.advance(5_000)
        assert device.cpu.cycles >= 5_000 * C.CYCLES_PER_TICK

    def test_wake_request_fires_timer_interrupt(self):
        device = make_device()
        device.advance(10)
        base = device.mem.ram.read32(TMR_COUNT)
        device.request_wake(500)
        device.advance(600)
        assert device.mem.ram.read32(TMR_COUNT) > base

    def test_run_until_idle_returns_promptly(self):
        device = make_device()
        device.schedule_button_press(40, Button.UP)
        device.schedule_button_release(45, Button.UP)
        idle_tick = device.run_until_idle()
        assert idle_tick >= 45


class TestClocks:
    def test_rtc_advances_with_ticks(self):
        device = make_device()
        start = device.rtc.seconds_at(device.tick)
        device.advance(250)
        assert device.rtc.seconds_at(device.tick) == start + 2

    def test_tick_register_readable_by_guest(self):
        device = make_device()
        device.advance(123)
        assert device.mem.read32(C.REG_TMR_TICKS) == 123

    def test_device_id(self):
        device = make_device()
        assert device.mem.read32(C.REG_DEVICE_ID) == C.DEVICE_ID_M515

    def test_entropy_is_deterministic_per_seed(self):
        a = PalmDevice(ram_size=1 << 16, flash_size=1 << 16, entropy_seed=42)
        b = PalmDevice(ram_size=1 << 16, flash_size=1 << 16, entropy_seed=42)
        assert [a.entropy() for _ in range(5)] == [b.entropy() for _ in range(5)]


class TestSoftReset:
    def test_reset_loads_vectors_from_flash(self):
        device = make_device()
        assert device.cpu.pc == C.FLASH_BASE + 8  # `boot` label
        assert device.cpu.a[7] == 0x7000

    def test_reset_restarts_tick_counter(self):
        device = make_device()
        device.advance(500)
        device.soft_reset()
        assert device.tick == 0

    def test_ram_survives_soft_reset(self):
        device = make_device()
        device.mem.ram.write32(0x8000, 0xDEADBEEF)
        device.soft_reset()
        assert device.mem.ram.read32(0x8000) == 0xDEADBEEF


class TestMemoryMap:
    def test_flash_write_protected(self):
        device = make_device()
        with pytest.raises(BusError):
            device.mem.write16(C.FLASH_BASE + 0x100, 1)

    def test_unmapped_address_raises(self):
        device = make_device()
        with pytest.raises(BusError):
            device.mem.read8(0x0800_0000)

    def test_region_classification(self):
        device = make_device()
        assert device.mem.region_of(0x1000) == REGION_RAM
        assert device.mem.region_of(C.FLASH_BASE) == REGION_FLASH

    def test_tracer_sees_fetches_and_data(self):
        device = make_device()
        profiler = Profiler()
        device.mem.tracer = profiler
        device.schedule_button_press(5, Button.UP)
        device.advance(20)
        counts = profiler.counts
        assert counts.get((KIND_FETCH, REGION_FLASH), 0) > 0  # ISR code
        assert counts.get((KIND_WRITE, REGION_RAM), 0) > 0   # counters
        assert counts.get((KIND_READ, REGION_RAM), 0) > 0

    def test_long_access_counts_two_references(self):
        device = make_device()
        profiler = Profiler()
        device.mem.tracer = profiler
        device.mem.read32(0x1000)
        assert profiler.counts[(KIND_READ, REGION_RAM)] == 2

    def test_flash_image_roundtrip(self):
        device = make_device()
        image = device.mem.dump_flash_image()
        assert len(image) == 1 << 20
        fresh = PalmDevice(ram_size=1 << 20, flash_size=1 << 20)
        fresh.mem.load_flash_image(image)
        assert fresh.mem.dump_flash_image() == image
