"""Edge-case and failure-injection tests for the kernel layer: queue
overflow, heap exhaustion, error codes through the trap interface, and
kernel robustness under misuse."""

import pytest

from repro.device import Button
from repro.palmos import EventType, PalmOS, Trap
from repro.palmos import layout as L
from repro.palmos.events import Event
from repro.palmos.traps import (
    ERR_DM_INDEX_OUT_OF_RANGE,
    ERR_EVT_QUEUE_FULL,
    ERR_MEM_INVALID_PTR,
)

from tests.palmos_utils import make_kernel


class TestEventQueueOverflow:
    def test_enqueue_fails_when_full(self):
        kernel = make_kernel()
        queue = kernel.queue
        accepted = 0
        for i in range(L.EVENT_QUEUE_CAPACITY + 10):
            if queue.enqueue(Event(EventType.keyDownEvent, key=i & 0xFF)):
                accepted += 1
        assert accepted == L.EVENT_QUEUE_CAPACITY

    def test_trap_returns_queue_full_error(self):
        kernel = make_kernel()
        for _ in range(L.EVENT_QUEUE_CAPACITY):
            assert kernel.queue.enqueue(Event(EventType.nilEvent))
        err = kernel.call_trap(Trap.EvtEnqueueKey, 0x8000_0001)
        assert err == ERR_EVT_QUEUE_FULL

    def test_queue_drains_in_fifo_order(self):
        kernel = make_kernel()
        for i in range(5):
            kernel.queue.enqueue(Event(EventType.keyDownEvent, key=i))
        keys = [kernel.queue.dequeue().key for _ in range(5)]
        assert keys == [0, 1, 2, 3, 4]
        assert kernel.queue.dequeue() is None

    def test_flush_via_trap(self):
        kernel = make_kernel()
        for i in range(5):
            kernel.queue.enqueue(Event(EventType.keyDownEvent, key=i))
        kernel.call_trap(Trap.EvtFlushQueue)
        assert kernel.queue.count == 0

    def test_wraparound_many_times(self):
        kernel = make_kernel()
        for round_no in range(10):
            for i in range(L.EVENT_QUEUE_CAPACITY // 2):
                assert kernel.queue.enqueue(Event(EventType.keyDownEvent,
                                                  key=(round_no + i) & 0xFF))
            for i in range(L.EVENT_QUEUE_CAPACITY // 2):
                ev = kernel.queue.dequeue()
                assert ev.key == (round_no + i) & 0xFF


class TestHeapExhaustion:
    def test_mem_ptr_new_returns_zero_when_exhausted(self):
        kernel = make_kernel()
        ptrs = []
        while True:
            ptr = kernel.call_trap(Trap.MemPtrNew, 16384)
            if ptr == 0:
                break
            ptrs.append(ptr)
            assert len(ptrs) < 1000
        assert ptrs  # got some allocations before exhaustion
        # Freeing one lets allocation succeed again.
        assert kernel.call_trap(Trap.MemPtrFree, ptrs[0]) == 0
        assert kernel.call_trap(Trap.MemPtrNew, 16384) != 0

    def test_free_bogus_pointer_reports_error(self):
        kernel = make_kernel()
        err = kernel.call_trap(Trap.MemPtrFree, L.DYNAMIC_HEAP_BASE + 8)
        assert err == ERR_MEM_INVALID_PTR

    def test_storage_exhaustion_fails_record_creation(self):
        # A tiny device: the storage heap fills up quickly.
        kernel = make_kernel(ram_size=512 << 10)
        db = kernel.dm_host.create("Fill")
        name_addr = 0x38000
        kernel.host.write_bytes(name_addr, b"Fill\x00")
        created = 0
        while created < 100:
            rec = kernel.call_trap(Trap.DmNewRecord, db,
                                   L.DM_MAX_RECORD_INDEX, 4096)
            if rec == 0:
                break
            created += 1
        assert 0 < created < 100
        assert kernel.call_trap(Trap.DmGetLastErr) != 0


class TestTrapErrorPaths:
    def test_dm_get_record_bad_index_both_paths(self):
        kernel = make_kernel()
        name_addr = 0x38000
        kernel.host.write_bytes(name_addr, b"E\x00")
        db = kernel.call_trap(Trap.DmCreateDatabase, name_addr, 0, 0, 0)
        for native in (True, False):
            kernel.allow_native = native
            assert kernel.call_trap(Trap.DmGetRecord, db, 0) == 0
            assert kernel.call_trap(Trap.DmGetLastErr) == \
                ERR_DM_INDEX_OUT_OF_RANGE
        kernel.allow_native = True

    def test_dm_write_record_overflow_rejected(self):
        kernel = make_kernel()
        name_addr = 0x38000
        kernel.host.write_bytes(name_addr, b"W\x00")
        db = kernel.call_trap(Trap.DmCreateDatabase, name_addr, 0, 0, 0)
        kernel.call_trap(Trap.DmNewRecord, db, L.DM_MAX_RECORD_INDEX, 8)
        for native in (True, False):
            kernel.allow_native = native
            err = kernel.call_trap(Trap.DmWriteRecord, db, 0, 4, 0x38100, 8)
            assert err == ERR_DM_INDEX_OUT_OF_RANGE, f"native={native}"
        kernel.allow_native = True

    def test_open_missing_database(self):
        kernel = make_kernel()
        assert kernel.call_trap(Trap.DmOpenDatabase, 0) == 0
        assert kernel.call_trap(Trap.DmGetLastErr) != 0

    def test_create_duplicate_database(self):
        kernel = make_kernel()
        name_addr = 0x38000
        kernel.host.write_bytes(name_addr, b"Dup\x00")
        assert kernel.call_trap(Trap.DmCreateDatabase, name_addr, 0, 0, 0)
        assert kernel.call_trap(Trap.DmCreateDatabase, name_addr, 0, 0, 0) == 0

    def test_delete_missing_database(self):
        kernel = make_kernel()
        name_addr = 0x38000
        kernel.host.write_bytes(name_addr, b"Gone\x00")
        assert kernel.call_trap(Trap.DmDeleteDatabase, name_addr) != 0

    def test_unimplemented_trap_panics(self):
        """Calling an undefined trap index reaches the ROM's
        unimplemented stub, which surfaces a host error rather than
        executing garbage."""
        kernel = make_kernel()
        with pytest.raises(RuntimeError, match="panic"):
            kernel.call_trap(0x100)  # no such system call

    def test_dm_next_database_iterates_all(self):
        kernel = make_kernel()
        names = []
        db = kernel.call_trap(Trap.DmNextDatabase, 0)
        while db:
            names.append(kernel.dm_host.name_of(db))
            db = kernel.call_trap(Trap.DmNextDatabase, db)
        assert "psysLaunchDB" in names


class TestDatabaseInfoTraps:
    def test_database_info_copies_pdb_header(self):
        kernel = make_kernel()
        name_addr = 0x38000
        kernel.host.write_bytes(name_addr, b"Info\x00")
        db = kernel.call_trap(Trap.DmCreateDatabase, name_addr,
                              0x54455354, 0x63726561, 0)  # 'TEST','crea'
        buf = 0x38100
        assert kernel.call_trap(Trap.DmDatabaseInfo, db, buf) == 0
        header = kernel.host.read_bytes(buf, L.PDB_SIZE)
        assert header[:4] == b"Info"
        assert header[L.PDB_TYPE:L.PDB_TYPE + 4] == b"TEST"

    def test_set_database_info_updates_attributes(self):
        kernel = make_kernel()
        name_addr = 0x38000
        kernel.host.write_bytes(name_addr, b"Attr\x00")
        db = kernel.call_trap(Trap.DmCreateDatabase, name_addr, 0, 0, 0)
        kernel.call_trap(Trap.DmSetDatabaseInfo, db, L.DM_ATTR_BACKUP)
        assert kernel.dm_host.attributes(db) == L.DM_ATTR_BACKUP

    def test_record_info_roundtrip_via_traps(self):
        kernel = make_kernel()
        name_addr = 0x38000
        kernel.host.write_bytes(name_addr, b"RI\x00")
        db = kernel.call_trap(Trap.DmCreateDatabase, name_addr, 0, 0, 0)
        kernel.call_trap(Trap.DmNewRecord, db, L.DM_MAX_RECORD_INDEX, 4)
        kernel.call_trap(Trap.DmSetRecordInfo, db, 0, 0x40, 0xABCDE)
        packed = kernel.call_trap(Trap.DmRecordInfo, db, 0)
        assert packed == (0x40 << 24) | 0xABCDE


class TestKernelRobustness:
    def test_many_resets_in_sequence(self):
        kernel = make_kernel()
        for _ in range(5):
            kernel.boot()
        assert kernel.device.cpu.stopped
        assert kernel.boot_count >= 6

    def test_app_switch_storm(self):
        """Rapid app-button mashing must always land in a valid app."""
        from repro.apps import standard_apps
        kernel = PalmOS(apps=standard_apps(), ram_size=4 << 20,
                        flash_size=1 << 20, default_app="launcher")
        kernel.boot()
        buttons = [Button.MEMO, Button.ADDRESS, Button.DATEBOOK]
        tick = 30
        for i in range(12):
            button = buttons[i % 3]
            kernel.device.schedule_button_press(tick, button)
            kernel.device.schedule_button_release(tick + 2, button)
            tick += 6
        kernel.device.run_until_idle()
        assert kernel.current_app_name() in ("memopad", "addressbook",
                                             "puzzle")

    def test_interleaved_pen_and_buttons(self):
        kernel = make_kernel()
        tick = 20
        for i in range(10):
            kernel.device.schedule_pen_down(tick, 10 + i, 20 + i)
            kernel.device.schedule_button_press(tick + 1, Button.UP)
            kernel.device.schedule_pen_up(tick + 3)
            kernel.device.schedule_button_release(tick + 4, Button.UP)
            tick += 10
        kernel.device.run_until_idle()
        from tests.palmos_utils import recorded_events
        events = recorded_events(kernel)
        pen_downs = sum(1 for e in events if e[0] == EventType.penDownEvent)
        key_downs = sum(1 for e in events if e[0] == EventType.keyDownEvent)
        assert pen_downs == 10
        assert key_downs == 10
