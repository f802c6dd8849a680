"""Tests for the hack framework: installation, interception, logging,
reset persistence, and the overhead measurements of §2.3.3."""

import pytest

from repro.device import Button
from repro.hacks import (
    HackManager,
    measure_hack_overhead,
    measure_pen_sampling_rate,
    prefill_log,
    run_trap_loop,
)
from repro.hacks.logging_hacks import (
    evt_enqueue_key_hack,
    key_current_state_hack,
    sys_random_hack,
)
from repro.palmos import EXTENSIONS_DB_NAME, Trap
from repro.palmos import layout as L
from repro.tracelog import (
    LogEventType,
    create_log_database,
    read_activity_log,
)

from tests.palmos_utils import make_kernel


def kernel_with_hacks(**kwargs):
    kernel = make_kernel(**kwargs)
    create_log_database(kernel)
    manager = HackManager(kernel)
    manager.install_standard()
    return kernel, manager


class TestInstallation:
    def test_install_patches_trap_table(self):
        kernel = make_kernel()
        manager = HackManager(kernel)
        hack = manager.install(evt_enqueue_key_hack())
        entry = kernel.host.read32(L.TRAP_TABLE + int(Trap.EvtEnqueueKey) * 4)
        assert entry == hack.code_addr
        assert entry != kernel.default_stubs[int(Trap.EvtEnqueueKey)]

    def test_install_records_in_extensions_db(self):
        kernel = make_kernel()
        manager = HackManager(kernel)
        manager.install_standard()
        db = kernel.dm_host.find(EXTENSIONS_DB_NAME)
        # The paper's five hacks plus the reset extension.
        assert kernel.dm_host.num_records(db) == 6

    def test_double_install_rejected(self):
        kernel = make_kernel()
        manager = HackManager(kernel)
        manager.install(evt_enqueue_key_hack())
        with pytest.raises(ValueError):
            manager.install(evt_enqueue_key_hack())

    def test_uninstall_restores_table(self):
        kernel = make_kernel()
        manager = HackManager(kernel)
        manager.install(evt_enqueue_key_hack())
        manager.uninstall(Trap.EvtEnqueueKey)
        entry = kernel.host.read32(L.TRAP_TABLE + int(Trap.EvtEnqueueKey) * 4)
        assert entry == kernel.default_stubs[int(Trap.EvtEnqueueKey)]

    def test_hacks_survive_soft_reset(self):
        """X-Master behaviour: extensions re-patch the table at boot."""
        kernel, _ = kernel_with_hacks()
        kernel.boot()
        entry = kernel.host.read32(L.TRAP_TABLE + int(Trap.EvtEnqueueKey) * 4)
        assert entry != kernel.default_stubs[int(Trap.EvtEnqueueKey)]
        # And they still log after the reset.
        kernel.device.schedule_button_press(kernel.device.tick + 5, Button.UP)
        kernel.device.schedule_button_release(kernel.device.tick + 8, Button.UP)
        kernel.device.run_until_idle()
        log = read_activity_log(kernel)
        assert len(log.of_type(LogEventType.KEY)) >= 2


class TestLogging:
    def test_key_events_logged_with_timestamps(self):
        kernel, _ = kernel_with_hacks()
        kernel.device.schedule_button_press(40, Button.MEMO)
        kernel.device.schedule_button_release(45, Button.MEMO)
        kernel.device.run_until_idle()
        records = read_activity_log(kernel).of_type(LogEventType.KEY)
        assert len(records) == 2
        down, up = records
        assert down.key_down and down.key_code == Button.MEMO
        assert not up.key_down and up.key_code == Button.MEMO
        assert down.tick == 40 and up.tick == 45
        assert down.rtc == kernel.device.rtc.seconds_at(40)

    def test_pen_events_logged_with_coordinates(self):
        kernel, _ = kernel_with_hacks()
        kernel.device.schedule_pen_down(20, 55, 66)
        kernel.device.schedule_pen_up(24)
        kernel.device.run_until_idle()
        records = read_activity_log(kernel).of_type(LogEventType.PEN)
        assert len(records) >= 2
        assert records[0].pen_down
        assert (records[0].pen_x, records[0].pen_y) == (55, 66)
        assert not records[-1].pen_down

    def test_boot_random_seeding_logged(self):
        """The boot-time SysRandom(entropy) call goes through the trap
        path, so the hack captures the seed — the mechanism that makes
        replay deterministic even with different hardware entropy."""
        kernel, _ = kernel_with_hacks()
        kernel.boot()
        seeds = read_activity_log(kernel).of_type(LogEventType.RANDOM)
        assert len(seeds) == 1
        assert seeds[0].data != 0

    def test_sysrandom_zero_not_logged(self):
        kernel, _ = kernel_with_hacks()
        kernel.call_trap(Trap.SysRandom, 0)
        kernel.call_trap(Trap.SysRandom, 1234)
        seeds = read_activity_log(kernel).of_type(LogEventType.RANDOM)
        assert [s.data for s in seeds] == [1234]

    def test_keycurrentstate_logged_as_short_record(self):
        kernel, _ = kernel_with_hacks()
        kernel.device.buttons.press(Button.UP)
        kernel.call_trap(Trap.KeyCurrentState)
        kernel.device.buttons.release(Button.UP)
        records = read_activity_log(kernel).of_type(LogEventType.KEYSTATE)
        assert len(records) == 1
        assert records[0].data == Button.UP
        assert records[0].size == 12

    def test_notify_broadcast_logged(self):
        kernel, _ = kernel_with_hacks()
        kernel.call_trap(Trap.SysNotifyBroadcast, 0xCAFE)
        records = read_activity_log(kernel).of_type(LogEventType.NOTIFY)
        assert len(records) == 1
        assert records[0].data == 0xCAFE

    def test_hack_chains_to_original(self):
        """With the hack installed the event must still reach the app's
        queue (log and deliver, not log instead of deliver)."""
        kernel, _ = kernel_with_hacks()
        from tests.palmos_utils import recorded_events
        kernel.device.schedule_button_press(40, Button.UP)
        kernel.device.schedule_button_release(44, Button.UP)
        kernel.device.run_until_idle()
        events = recorded_events(kernel)
        assert any(e[0] == 4 and e[3] == Button.UP for e in events)  # keyDown

    def test_isolated_hack_does_not_chain(self):
        kernel = make_kernel()
        create_log_database(kernel)
        manager = HackManager(kernel)
        manager.install(evt_enqueue_key_hack(isolate=True))
        from tests.palmos_utils import recorded_events
        kernel.device.schedule_button_press(40, Button.UP)
        kernel.device.run_until_idle()
        # Logged but never enqueued.
        assert len(read_activity_log(kernel).of_type(LogEventType.KEY)) == 1
        assert not any(e[0] == 4 for e in recorded_events(kernel))


class TestOverheadMeasurements:
    def test_pen_sampling_rate_is_50_per_second(self):
        """§2.3.3: 'The device recorded an average of 50.0 pen events
        per second in the database.'"""
        kernel = make_kernel()
        rate = measure_pen_sampling_rate(kernel, seconds=2)
        assert rate == pytest.approx(50.0, abs=1.0)

    def test_overhead_grows_with_database_size(self):
        """Figure 3's shape: per-call overhead grows linearly with the
        number of records already in the log."""
        kernel = make_kernel(ram_size=1 << 23)
        points = measure_hack_overhead(
            kernel, evt_enqueue_key_hack(isolate=True), arg=0x8000_0001,
            db_sizes=[0, 1000, 4000], calls_per_size=8)
        cycles = [p.avg_cycles for p in points]
        assert cycles[0] < cycles[1] < cycles[2]
        # Roughly linear: the 4000-record point is ~4x the 1000 one.
        growth_1k = cycles[1] - cycles[0]
        growth_4k = cycles[2] - cycles[0]
        assert 3.0 <= growth_4k / growth_1k <= 5.0

    def test_all_five_hacks_have_similar_overhead(self):
        """Figure 3 shows the five hacks within a narrow band."""
        results = {}
        for spec, arg in [
            (evt_enqueue_key_hack(isolate=True), 0x8000_0001),
            (key_current_state_hack(isolate=True), 0),
            (sys_random_hack(isolate=True), 42),
        ]:
            kernel = make_kernel()
            prefill_log(kernel, 500)
            manager = HackManager(kernel)
            manager.install(spec)
            results[spec.name] = run_trap_loop(kernel, spec.trap, arg, 8)
            manager.uninstall_all()
        values = list(results.values())
        assert max(values) / min(values) < 1.5

    def test_record_storage_footprint(self):
        """§2.3.3: 'The individual records each consume twelve or
        sixteen bytes'; a full database costs about 1536 KB."""
        from repro.tracelog.records import LogRecord
        long_rec = LogRecord(LogEventType.PEN, 0, 0, 0)
        short_rec = LogRecord(LogEventType.KEYSTATE, 0, 0, 0)
        assert long_rec.size == 16
        assert short_rec.size == 12
        full = 65_536 * 16 + 65_536 * 8  # records + index overhead
        assert full / 1024 == pytest.approx(1536, rel=0.01)
