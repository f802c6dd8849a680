"""Tests for the soft-reset extension (the paper's deferred future
work): mid-session resets are logged, epochs split correctly, and
replay reproduces sessions across resets bit-exactly."""

import pytest

from repro import UserScript, collect_session, replay_session, standard_apps
from repro.device import Button
from repro.palmos import PalmOS
from repro.tracelog import (
    ActivityLog,
    LogEventType,
    LogRecord,
    read_activity_log,
    split_epochs,
)
from repro.validation import correlate_final_states, correlate_logs

EMU_KW = {"ram_size": 8 << 20, "flash_size": 1 << 20}


def reset_script() -> UserScript:
    """Tap the launcher's reset corner, then (epoch 2) use MemoPad."""
    return (UserScript("with-reset").at(80)
            .tap(150, 150).wait(150)     # launcher corner -> soft reset
            .tap(60, 40).wait(60)        # epoch 2: row 1 -> memopad
            .tap(40, 120).wait(60)       # epoch 2: write a memo
            .press(Button.UP).wait(60))  # epoch 2: list memos


class TestWarmReset:
    def test_sysreset_trap_restarts_guest_clock(self):
        kernel = PalmOS(apps=standard_apps(), **EMU_KW,
                        default_app="launcher")
        kernel.boot()
        kernel.device.run_ticks(500)
        wall_before = kernel.device.tick
        boots_before = kernel.boot_count
        kernel.device.warm_reset()
        kernel.device.run_until_idle()
        assert kernel.boot_count == boots_before + 1
        assert kernel.device.tick >= wall_before       # wall time continues
        assert kernel.device.guest_tick < 100          # guest clock restarted

    def test_storage_survives_warm_reset(self):
        kernel = PalmOS(apps=standard_apps(), **EMU_KW,
                        default_app="launcher")
        kernel.boot()
        db = kernel.dm_host.create("Keep")
        addr = kernel.dm_host.new_record(db, 0, 4)
        kernel.host.write32(addr, 0x5EED)
        kernel.device.warm_reset()
        kernel.device.run_until_idle()
        db = kernel.dm_host.find("Keep")
        assert kernel.dm_host.read_record(db, 0) == (0x5EED).to_bytes(4, "big")

    def test_launcher_corner_triggers_reset(self):
        kernel = PalmOS(apps=standard_apps(), **EMU_KW,
                        default_app="launcher")
        kernel.boot()
        before = kernel.boot_count
        kernel.device.schedule_pen_down(50, 150, 150)
        kernel.device.schedule_pen_up(54)
        kernel.device.run_until_idle()
        # A held stylus may re-sample as a fresh penDown after the reset
        # clears pen state, so one physical tap can produce more than
        # one reset — deterministically, which is all replay requires.
        assert kernel.boot_count > before

    def test_rtc_continues_across_warm_reset(self):
        kernel = PalmOS(apps=standard_apps(), **EMU_KW,
                        default_app="launcher")
        kernel.boot()
        kernel.device.run_ticks(500)
        seconds_before = kernel.now_seconds()
        kernel.device.warm_reset()
        kernel.device.run_until_idle()
        assert kernel.now_seconds() >= seconds_before


class TestEpochSplitting:
    def test_split_no_resets_is_one_epoch(self):
        log = ActivityLog(records=[LogRecord(LogEventType.PEN, 1, 0, 0)])
        assert len(split_epochs(log)) == 1

    def test_split_at_reset_records(self):
        log = ActivityLog(records=[
            LogRecord(LogEventType.PEN, 1, 0, 0),
            LogRecord(LogEventType.RESET, 2, 0, 0),
            LogRecord(LogEventType.RANDOM, 0, 0, 99),
            LogRecord(LogEventType.PEN, 5, 0, 0),
        ])
        epochs = split_epochs(log)
        assert len(epochs) == 2
        assert epochs[0].records[-1].type == LogEventType.RESET
        assert len(epochs[1]) == 2

    def test_trailing_reset_makes_no_empty_epoch(self):
        log = ActivityLog(records=[
            LogRecord(LogEventType.PEN, 1, 0, 0),
            LogRecord(LogEventType.RESET, 2, 0, 0),
        ])
        assert len(split_epochs(log)) == 1

    def test_reset_record_is_short(self):
        assert LogRecord(LogEventType.RESET, 0, 0, 0).size == 12


class TestResetReplay:
    @pytest.fixture(scope="class")
    def run(self):
        apps = standard_apps()
        session = collect_session(apps, reset_script(), name="reset",
                                  ram_size=EMU_KW["ram_size"])
        emulator, _, result = replay_session(
            session.initial_state, session.log, apps=apps, profile=False,
            emulator_kwargs=dict(EMU_KW, entropy_seed=0xFACE))
        return session, emulator, result

    def test_reset_recorded_in_log(self, run):
        session, _, _ = run
        resets = session.log.of_type(LogEventType.RESET)
        assert len(resets) >= 1

    def test_epoch_ticks_restart(self, run):
        session, _, _ = run
        epochs = split_epochs(session.log)
        assert len(epochs) >= 2
        # Second epoch's first records carry restarted (small) ticks.
        later = [r for r in epochs[1] if r.type == LogEventType.RANDOM]
        assert later and later[0].tick < 10

    def test_replay_is_bit_exact_across_reset(self, run):
        session, emulator, _ = run
        corr = correlate_logs(session.log,
                              read_activity_log(emulator.kernel))
        assert corr.valid, corr.summary()
        assert corr.exact_matches == corr.total_original

    def test_final_state_matches_across_reset(self, run):
        session, emulator, _ = run
        corr = correlate_final_states(session.final_state,
                                      emulator.final_state())
        assert corr.valid, corr.summary()
        # The memo written after the reset made it into both states.
        device_dbs = {d.name for d in session.final_state}
        assert "MemoDB" in device_dbs

    def test_boot_seeds_served_per_epoch(self, run):
        session, _, result = run
        seeds = session.log.of_type(LogEventType.RANDOM)
        # One seeding per boot epoch at minimum, all served from the
        # queue during replay.
        assert len(seeds) >= 2
        assert result.seeds_served >= len(seeds)
        assert result.seeds_missing == 0
