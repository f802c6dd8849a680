"""System call semantics — the kernel's control plane.

Every trap has its semantics implemented here.  Two entry paths exist,
mirroring the Palm OS Emulator's architecture the paper describes in
§2.4.2:

* **F-line path** (always correct, used when profiling): the A-line
  trap vectors through the ROM trap dispatcher, the ROM stub runs its
  68k prologue/data-plane, and its F-line emucall lands in
  :meth:`SysCalls.fline`, which executes the semantics.
* **Native path** (POSE's speed optimisation, used when profiling is
  off): :meth:`SysCalls.aline` services the trap directly, skipping
  the dispatcher — unless the dispatch-table entry has been patched
  (a hack is installed), in which case it declines and the 68k path
  runs so the hack executes.

All guest state is manipulated through the traced accessor, so even
Python-executed semantics charge bus cycles and appear in reference
traces ("microcode").
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from ..device import constants as C
from .access import TracedAccess
from . import layout as L
from .database import DmError
from .events import Event, EventType
from .heap import HeapError
from .rom import STUB_SAVED_BYTES
from .traps import (
    CALL_APP_RETURNED,
    CALL_BOOT,
    CALL_DELAY_TRY,
    CALL_EVT_TRY,
    CALL_GET_APP,
    CALL_PANIC,
    ERR_DM_INDEX_OUT_OF_RANGE,
    ERR_DM_NOT_FOUND,
    ERR_EVT_QUEUE_FULL,
    ERR_MEM_INVALID_PTR,
    ERR_MEM_NOT_ENOUGH,
    EVT_WAIT_FOREVER,
    PHASE_DONE,
    Trap,
    decode_emucall,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..m68k.cpu import CPU
    from .kernel import PalmOS

_SCREEN_W = C.SCREEN_WIDTH
_SCREEN_H = C.SCREEN_HEIGHT
_ROW_BYTES = _SCREEN_W * C.SCREEN_BYTES_PER_PIXEL
#: MemSet writes its run in chunks of this many bytes.  The length is an
#: unchecked 32-bit guest argument: a bad one must fault at the first
#: unmapped byte, as the byte loop does, without first asking the host
#: for up to 4 GiB.  The chunk is even, so every chunk starts on the
#: same microcode-fetch parity as the whole run would.
_MEMSET_CHUNK = 0x10000


class SysCalls:
    """Trap semantics bound to a :class:`repro.palmos.kernel.PalmOS`."""

    def __init__(self, kernel: "PalmOS"):
        self.k = kernel
        self._ctx: List[dict] = []
        #: Replay hooks (installed by the playback driver).
        self.key_state_override: Optional[Callable[[int, int], int]] = None
        self.random_seed_override: Optional[Callable[[int], int]] = None

        self._prep: Dict[int, Callable] = {}
        self._done: Dict[int, Callable] = {}
        self._native: Dict[int, Callable] = {}
        self._fast_table: Optional[List[Optional[Callable]]] = None
        self._register_handlers()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def fline(self, cpu: "CPU", op: int) -> bool:
        code, phase = decode_emucall(op)
        if code >= 0x700:
            if code == CALL_BOOT:
                self.k.on_boot()
            elif code == CALL_GET_APP:
                cpu.d[0] = self.k.select_app()
            elif code == CALL_APP_RETURNED:
                self.k.on_app_returned()
            elif code == CALL_EVT_TRY:
                self._evt_try(cpu)
            elif code == CALL_DELAY_TRY:
                self._delay_try(cpu)
            elif code == CALL_PANIC:
                raise RuntimeError("guest panic emucall")
            else:
                return False
            return True
        if phase == PHASE_DONE:
            handler = self._done.get(code)
        else:
            handler = self._prep.get(code)
        if handler is None:
            return False
        handler(cpu, 6 + STUB_SAVED_BYTES.get(code, 0))
        return True

    def aline(self, cpu: "CPU", op: int) -> bool:
        """A-line hook: seed override, then the native fast path.

        §2.4.2: for non-zero SysRandom calls "the seed value from the
        queue is queried before SysRandom is called.  The parameter is
        overwritten with the seed value from the queue and execution
        continues" — done here, before any dispatch, so installed hacks
        log the overridden value exactly as the original session's
        hacks logged theirs.
        """
        idx = op & 0x1FF
        if idx == int(Trap.SysRandom) and self.random_seed_override is not None:
            seed = self.acc.read32(cpu.a[7])
            if seed:
                replacement = self.random_seed_override(seed) & 0xFFFFFFFF
                self.acc.write32(cpu.a[7], replacement)
        if not self.k.allow_native:
            return False
        handler = self._native.get(idx)
        if handler is None:
            return False
        # A patched dispatch-table entry (a hack) disables the fast path
        # for that trap so the hack code actually executes.
        entry = self.k.host.read32(L.TRAP_TABLE + idx * 4)
        if entry != self.k.default_stubs.get(idx):
            return False
        handler(cpu, 0)
        return True

    def aline_fast_table(self) -> List[Optional[Callable]]:
        """A 512-entry per-trap-number dispatch table for the block
        core's trap tail (see ``BlockCore._resolve_trap_table``).

        Each entry is ``fn(cpu, op) -> bool`` with semantics identical
        to :meth:`aline` for that trap number — the per-call dynamic
        state (``allow_native``, the hack-patch check against the
        guest dispatch table, the replay seed override) is read inside
        the closure, so installing a hack or a replay hook mid-run
        behaves exactly as on the generic path.  Numbers with no
        native handler are ``None`` (straight to the guest exception
        path), except ``SysRandom``, whose seed-override preamble must
        run even when the dispatch itself declines.
        """
        table = self._fast_table
        if table is not None:
            return table
        k = self.k
        host_read = k.host.read32
        stubs = k.default_stubs

        def make(idx: int, handler: Callable) -> Callable:
            entry_addr = L.TRAP_TABLE + idx * 4
            expected = stubs.get(idx)

            def fast(cpu: "CPU", op: int) -> bool:
                if not k.allow_native:
                    return False
                if host_read(entry_addr) != expected:
                    return False
                handler(cpu, 0)
                return True

            return fast

        table = [None] * 512
        for idx, handler in self._native.items():
            table[idx] = make(idx, handler)

        rand_idx = int(Trap.SysRandom)
        native_rand = table[rand_idx]

        def fast_random(cpu: "CPU", op: int) -> bool:
            if self.random_seed_override is not None:
                seed = self.acc.read32(cpu.a[7])
                if seed:
                    self.acc.write32(
                        cpu.a[7],
                        self.random_seed_override(seed) & 0xFFFFFFFF)
            if native_rand is None:
                return False
            return native_rand(cpu, op)

        table[rand_idx] = fast_random
        self._fast_table = table
        return table

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    @property
    def acc(self) -> TracedAccess:
        return self.k.traced

    def _arg(self, cpu: "CPU", base: int, i: int) -> int:
        return self.acc.read32(cpu.a[7] + base + 4 * i)

    def _cstring(self, addr: int, limit: int = 32) -> str:
        out: List[str] = []
        for i in range(limit):
            byte = self.acc.read8(addr + i)
            if byte == 0:
                break
            out.append(chr(byte))
        return "".join(out)

    def _set_last_err(self, code: int) -> None:
        self.acc.write32(L.G_DM_LAST_ERR, code)

    def _register_handlers(self) -> None:
        for trap in Trap:
            name = f"t_{trap.name}"
            if hasattr(self, name):
                fn = getattr(self, name)
                self._prep[int(trap)] = fn
                self._native[int(trap)] = fn
        # Two-phase traps: distinct prep/done/native functions.
        two_phase = {
            Trap.EvtGetEvent: (self.p_EvtGetEvent, None, None),
            Trap.SysTaskDelay: (self.p_SysTaskDelay, None, None),
            Trap.DmNewRecord: (self.p_DmNewRecord, self.d_DmNewRecord,
                               self.n_DmNewRecord),
            Trap.DmGetRecord: (self.p_DmGetRecord, self.d_DmGetRecord,
                               self.n_DmGetRecord),
            Trap.DmQueryRecord: (self.p_DmGetRecord, self.d_DmGetRecord,
                                 self.n_DmGetRecord),
            Trap.DmRemoveRecord: (self.p_DmRemoveRecord, self.d_DmRemoveRecord,
                                  self.n_DmRemoveRecord),
            Trap.DmWriteRecord: (self.p_DmWriteRecord, self.d_DmWriteRecord,
                                 self.n_DmWriteRecord),
            Trap.WinDrawRectangle: (self.p_WinDrawRectangle, None,
                                    self.n_WinDrawRectangle),
            Trap.WinDrawChars: (self.p_WinDrawChars, None,
                                self.n_WinDrawChars),
            Trap.WinEraseWindow: (None, None, self.n_WinEraseWindow),
            Trap.MemMove: (None, None, self.n_MemMove),
            Trap.MemSet: (None, None, self.n_MemSet),
        }
        for trap, (prep, done, native) in two_phase.items():
            idx = int(trap)
            self._prep.pop(idx, None)
            self._native.pop(idx, None)
            if prep is not None:
                self._prep[idx] = prep
            if done is not None:
                self._done[idx] = done
            if native is not None:
                self._native[idx] = native

    # ==================================================================
    # Event manager
    # ==================================================================
    def t_EvtEnqueueKey(self, cpu: "CPU", base: int) -> None:
        packed = self._arg(cpu, base, 0)
        down = bool(packed & 0x8000_0000)
        event = Event(EventType.keyDownEvent if down else EventType.keyUpEvent,
                      key=packed & 0xFF)
        ok = self.k.queue.enqueue(event)
        cpu.d[0] = 0 if ok else ERR_EVT_QUEUE_FULL

    def t_EvtEnqueuePenPoint(self, cpu: "CPU", base: int) -> None:
        packed = self._arg(cpu, base, 0)
        down = bool(packed & 0x8000_0000)
        x = (packed >> 8) & 0xFF
        y = packed & 0xFF
        prev = self.acc.read32(L.G_PEN_PREV)
        prev_down = bool(prev & 0x8000_0000)
        self.acc.write32(L.G_PEN_PREV, packed)
        if down and not prev_down:
            etype = EventType.penDownEvent
        elif down:
            etype = EventType.penMoveEvent
        elif prev_down:
            etype = EventType.penUpEvent
        else:
            cpu.d[0] = 0
            return
        ok = self.k.queue.enqueue(Event(etype, x=x, y=y))
        cpu.d[0] = 0 if ok else ERR_EVT_QUEUE_FULL

    def t_EvtEnqueueEvent(self, cpu: "CPU", base: int) -> None:
        ptr = self._arg(cpu, base, 0)
        event = Event.read_from(self.acc, ptr)
        cpu.d[0] = 0 if self.k.queue.enqueue(event) else ERR_EVT_QUEUE_FULL

    def t_EvtFlushQueue(self, cpu: "CPU", base: int) -> None:
        self.k.queue.flush()
        cpu.d[0] = 0

    # -- EvtGetEvent (blocking, F-line path only) -----------------------
    def p_EvtGetEvent(self, cpu: "CPU", base: int) -> None:
        event_ptr = self._arg(cpu, base, 0)
        timeout = self._arg(cpu, base, 1)
        self.acc.write32(L.G_EVT_PTR, event_ptr)
        if timeout == EVT_WAIT_FOREVER or timeout == 0:
            deadline = 0
        else:
            deadline = self.k.device.tick + timeout
            self.k.device.request_wake(deadline)
        self.acc.write32(L.G_EVT_DEADLINE, deadline)

    def _evt_try(self, cpu: "CPU") -> None:
        event = self.k.queue.dequeue()
        if event is not None:
            event = self.k.map_hard_button(event)
        else:
            deadline = self.acc.read32(L.G_EVT_DEADLINE)
            if deadline and self.k.device.tick >= deadline:
                event = Event(EventType.nilEvent)
            else:
                idle = self.acc.read32(L.G_IDLE_COUNT)
                self.acc.write32(L.G_IDLE_COUNT, (idle + 1) & 0xFFFFFFFF)
                cpu.d[0] = 0
                return
        event.write_to(self.acc, self.acc.read32(L.G_EVT_PTR))
        cpu.d[0] = 1

    # -- SysTaskDelay ----------------------------------------------------
    def p_SysTaskDelay(self, cpu: "CPU", base: int) -> None:
        ticks = self._arg(cpu, base, 0)
        deadline = self.k.device.tick + ticks
        self.acc.write32(L.G_DELAY_DEADLINE, deadline)
        self.k.device.request_wake(deadline)

    def _delay_try(self, cpu: "CPU") -> None:
        deadline = self.acc.read32(L.G_DELAY_DEADLINE)
        cpu.d[0] = 1 if self.k.device.tick >= deadline else 0

    # ==================================================================
    # Key / system / time
    # ==================================================================
    def t_KeyCurrentState(self, cpu: "CPU", base: int) -> None:
        raw = self.acc.read32(C.REG_KEY_STATE)
        if self.key_state_override is not None:
            # Recorded bit fields are keyed by guest tick (the clock
            # the hack logged), which restarts at warm resets.
            raw = self.key_state_override(self.k.device.guest_tick, raw)
        cpu.d[0] = raw

    def t_SysRandom(self, cpu: "CPU", base: int) -> None:
        # Replay's seed override happens at A-line dispatch (see aline).
        seed = self._arg(cpu, base, 0)
        if seed:
            self.acc.write32(L.G_RAND_SEED, seed & 0x7FFFFFFF)
        state = self.acc.read32(L.G_RAND_SEED)
        state = (state * 1_103_515_245 + 12_345) & 0x7FFFFFFF
        self.acc.write32(L.G_RAND_SEED, state)
        cpu.d[0] = (state >> 16) & 0x7FFF

    def t_SysNotifyBroadcast(self, cpu: "CPU", base: int) -> None:
        notify_type = self._arg(cpu, base, 0)
        ok = self.k.queue.enqueue(Event(EventType.notifyEvent,
                                        data=notify_type))
        cpu.d[0] = 0 if ok else ERR_EVT_QUEUE_FULL

    def t_SysUIAppSwitch(self, cpu: "CPU", base: int) -> None:
        app_id = self._arg(cpu, base, 0)
        self.acc.write32(L.G_NEXT_APP, app_id)
        self.k.queue.enqueue(Event(EventType.appStopEvent))
        cpu.d[0] = 0

    def t_SysTicksPerSecond(self, cpu: "CPU", base: int) -> None:
        cpu.d[0] = C.TICKS_PER_SECOND

    def t_SysSetTrapAddress(self, cpu: "CPU", base: int) -> None:
        trap = self._arg(cpu, base, 0) & 0x1FF
        addr = self._arg(cpu, base, 1)
        entry = L.TRAP_TABLE + trap * 4
        old = self.acc.read32(entry)
        self.acc.write32(entry, addr)
        cpu.d[0] = old

    def t_SysGetTrapAddress(self, cpu: "CPU", base: int) -> None:
        trap = self._arg(cpu, base, 0) & 0x1FF
        cpu.d[0] = self.acc.read32(L.TRAP_TABLE + trap * 4)

    def t_SysCurrentApp(self, cpu: "CPU", base: int) -> None:
        cpu.d[0] = self.acc.read32(L.G_CURRENT_APP)

    def t_TimGetTicks(self, cpu: "CPU", base: int) -> None:
        cpu.d[0] = self.acc.read32(C.REG_TMR_TICKS)

    def t_SysReset(self, cpu: "CPU", base: int) -> None:
        """Soft reset, mid-session (the paper's deferred future work).

        The device performs a warm reset immediately: the CPU restarts
        at the flash reset vector, the guest tick counter returns to
        zero, the storage heap (and thus any installed hacks and the
        activity log) survives.  This handler never "returns" to the
        caller — reset discards the in-flight trap frame."""
        self.k.device.warm_reset()

    def t_TimGetSeconds(self, cpu: "CPU", base: int) -> None:
        cpu.d[0] = self.k.now_seconds(charge=True)

    # ==================================================================
    # Memory manager
    # ==================================================================
    def t_MemPtrNew(self, cpu: "CPU", base: int) -> None:
        size = self._arg(cpu, base, 0)
        ptr = self.k.dyn_heap.alloc(size, L.OWNER_APP)
        if not ptr:
            self._set_last_err(ERR_MEM_NOT_ENOUGH)
        cpu.d[0] = ptr

    def t_MemPtrFree(self, cpu: "CPU", base: int) -> None:
        ptr = self._arg(cpu, base, 0)
        try:
            self.k.dyn_heap.free(ptr)
            cpu.d[0] = 0
        except HeapError:
            cpu.d[0] = ERR_MEM_INVALID_PTR

    def t_MemPtrSize(self, cpu: "CPU", base: int) -> None:
        try:
            cpu.d[0] = self.k.dyn_heap.payload_size(self._arg(cpu, base, 0))
        except HeapError:
            cpu.d[0] = 0

    def t_MemHeapFreeBytes(self, cpu: "CPU", base: int) -> None:
        heap = self.k.dyn_heap if self._arg(cpu, base, 0) == 0 else self.k.sto_heap
        cpu.d[0] = heap.free_bytes()

    def n_MemMove(self, cpu: "CPU", base: int) -> None:
        dst = self._arg(cpu, base, 0)
        src = self._arg(cpu, base, 1)
        length = self._arg(cpu, base, 2)
        data = self.acc.read_bytes(src, length)
        self.acc.write_bytes(dst, data)
        cpu.d[0] = 0

    def n_MemSet(self, cpu: "CPU", base: int) -> None:
        ptr = self._arg(cpu, base, 0)
        length = self._arg(cpu, base, 1)
        value = self._arg(cpu, base, 2) & 0xFF
        run = bytes([value]) * min(length, _MEMSET_CHUNK)
        for off in range(0, length, _MEMSET_CHUNK):
            self.acc.write_bytes(ptr + off, run[:length - off])
        cpu.d[0] = 0

    # ==================================================================
    # Data manager — simple traps
    # ==================================================================
    def t_DmCreateDatabase(self, cpu: "CPU", base: int) -> None:
        from .database import fourcc_str
        name = self._cstring(self._arg(cpu, base, 0))
        type_code = fourcc_str(self._arg(cpu, base, 1))
        creator = fourcc_str(self._arg(cpu, base, 2))
        attrs = self._arg(cpu, base, 3) & 0xFFFF
        try:
            cpu.d[0] = self.k.dm.create(name, type_code or "DATA",
                                        creator or "repr", attrs)
            self._set_last_err(0)
        except DmError as err:
            self._set_last_err(err.code)
            cpu.d[0] = 0

    def t_DmDeleteDatabase(self, cpu: "CPU", base: int) -> None:
        name = self._cstring(self._arg(cpu, base, 0))
        try:
            self.k.dm.delete(name)
            cpu.d[0] = 0
        except DmError as err:
            self._set_last_err(err.code)
            cpu.d[0] = err.code

    def t_DmFindDatabase(self, cpu: "CPU", base: int) -> None:
        name = self._cstring(self._arg(cpu, base, 0))
        db = self.k.dm.find(name)
        if not db:
            self._set_last_err(ERR_DM_NOT_FOUND)
        cpu.d[0] = db

    def t_DmOpenDatabase(self, cpu: "CPU", base: int) -> None:
        db = self._arg(cpu, base, 0)
        if db:
            self.k.dm.open_db(db)
        else:
            self._set_last_err(ERR_DM_NOT_FOUND)
        cpu.d[0] = db

    def t_DmCloseDatabase(self, cpu: "CPU", base: int) -> None:
        db = self._arg(cpu, base, 0)
        if db:
            self.k.dm.close_db(db)
        cpu.d[0] = 0

    def t_DmDatabaseInfo(self, cpu: "CPU", base: int) -> None:
        db = self._arg(cpu, base, 0)
        buf = self._arg(cpu, base, 1)
        header = self.acc.read_bytes(db + L.DB_PDB, L.PDB_SIZE)
        self.acc.write_bytes(buf, header)
        cpu.d[0] = 0

    def t_DmSetDatabaseInfo(self, cpu: "CPU", base: int) -> None:
        db = self._arg(cpu, base, 0)
        attrs = self._arg(cpu, base, 1) & 0xFFFF
        self.k.dm.set_attributes(db, attrs)
        cpu.d[0] = 0

    def t_DmNumRecords(self, cpu: "CPU", base: int) -> None:
        cpu.d[0] = self.k.dm.num_records(self._arg(cpu, base, 0))

    def t_DmRecordInfo(self, cpu: "CPU", base: int) -> None:
        db = self._arg(cpu, base, 0)
        index = self._arg(cpu, base, 1)
        try:
            attr, uid, _size = self.k.dm.record_info(db, index)
            cpu.d[0] = (attr << 24) | uid
        except DmError as err:
            self._set_last_err(err.code)
            cpu.d[0] = 0

    def t_DmSetRecordInfo(self, cpu: "CPU", base: int) -> None:
        db = self._arg(cpu, base, 0)
        index = self._arg(cpu, base, 1)
        attr = self._arg(cpu, base, 2) & 0xFF
        uid = self._arg(cpu, base, 3) & 0x00FFFFFF
        try:
            self.k.dm.set_record_info(db, index, attr, uid)
            cpu.d[0] = 0
        except DmError as err:
            self._set_last_err(err.code)
            cpu.d[0] = err.code

    def t_DmReleaseRecord(self, cpu: "CPU", base: int) -> None:
        db = self._arg(cpu, base, 0)
        if db:
            self.k.dm.touch(db)
        cpu.d[0] = 0

    def t_DmGetLastErr(self, cpu: "CPU", base: int) -> None:
        cpu.d[0] = self.acc.read32(L.G_DM_LAST_ERR)

    def t_DmNextDatabase(self, cpu: "CPU", base: int) -> None:
        prev = self._arg(cpu, base, 0)
        if prev:
            cpu.d[0] = self.acc.read32(prev + L.DB_NEXT)
        else:
            cpu.d[0] = self.acc.read32(L.DB_LIST_HEAD)

    # ==================================================================
    # Data manager — walk-based traps (68k data plane)
    # ==================================================================
    def _walk_setup(self, cpu: "CPU", db: int, index: int) -> None:
        """Load d0 = hop count, a0 = head field for the ROM walk loop."""
        cpu.d[0] = index
        cpu.a[0] = db + L.DB_FIRST_RECORD

    def _prep_indexed(self, cpu: "CPU", base: int, *,
                      for_insert: bool, extra: dict) -> None:
        db = self._arg(cpu, base, 0)
        index = self._arg(cpu, base, 1)
        count = self.k.dm.num_records(db) if db else 0
        if index == L.DM_MAX_RECORD_INDEX:
            index = count
        limit = count + 1 if for_insert else count
        if not db or index >= limit:
            self._ctx.append({"err": ERR_DM_INDEX_OUT_OF_RANGE})
            cpu.d[0] = 0
            cpu.a[0] = L.G_DM_LAST_ERR  # harmless readable address
            return
        ctx = {"db": db, "index": index}
        ctx.update(extra)
        self._ctx.append(ctx)
        self._walk_setup(cpu, db, index)

    # -- DmNewRecord(db, index, size) ------------------------------------
    def p_DmNewRecord(self, cpu: "CPU", base: int) -> None:
        size = self._arg(cpu, base, 2)
        self._prep_indexed(cpu, base, for_insert=True, extra={"size": size})
        ctx = self._ctx[-1]
        if "err" in ctx:
            return
        rec = self.k.sto_heap.alloc(L.REC_OVERHEAD + size, L.OWNER_DATABASE)
        if not rec:
            ctx.clear()
            ctx["err"] = ERR_MEM_NOT_ENOUGH
            cpu.d[0] = 0
            cpu.a[0] = L.G_DM_LAST_ERR
            return
        ctx["rec"] = rec

    def d_DmNewRecord(self, cpu: "CPU", base: int) -> None:
        ctx = self._ctx.pop()
        slot = cpu.a[7]  # saved d0 (result slot)
        if "err" in ctx:
            self._set_last_err(ctx["err"])
            self.acc.write32(slot, 0)
            return
        a = self.acc
        db, rec, size = ctx["db"], ctx["rec"], ctx["size"]
        field = cpu.a[0]
        pdb = db + L.DB_PDB
        uid = a.read32(pdb + L.PDB_UNIQUE_ID_SEED) + 1
        a.write32(pdb + L.PDB_UNIQUE_ID_SEED, uid)
        a.write32(rec + L.REC_NEXT, a.read32(field))
        a.write32(rec + L.REC_ATTR_UID, uid & 0x00FFFFFF)
        a.write32(rec + L.REC_LEN, size)
        a.write32(field, rec)
        a.write16(pdb + L.PDB_NUM_RECORDS, self.k.dm.num_records(db) + 1)
        self.k.dm.touch(db)
        self._set_last_err(0)
        a.write32(slot, rec + L.REC_DATA)

    def n_DmNewRecord(self, cpu: "CPU", base: int) -> None:
        db = self._arg(cpu, base, 0)
        index = self._arg(cpu, base, 1)
        size = self._arg(cpu, base, 2)
        try:
            cpu.d[0] = self.k.dm.new_record(db, index, size)
            self._set_last_err(0)
        except DmError as err:
            self._set_last_err(err.code)
            cpu.d[0] = 0

    # -- DmGetRecord / DmQueryRecord(db, index) ---------------------------
    def p_DmGetRecord(self, cpu: "CPU", base: int) -> None:
        self._prep_indexed(cpu, base, for_insert=False, extra={})

    def d_DmGetRecord(self, cpu: "CPU", base: int) -> None:
        ctx = self._ctx.pop()
        slot = cpu.a[7]
        if "err" in ctx:
            self._set_last_err(ctx["err"])
            self.acc.write32(slot, 0)
            return
        rec = self.acc.read32(cpu.a[0])
        self._set_last_err(0)
        self.acc.write32(slot, rec + L.REC_DATA)

    def n_DmGetRecord(self, cpu: "CPU", base: int) -> None:
        db = self._arg(cpu, base, 0)
        index = self._arg(cpu, base, 1)
        try:
            addr, _length = self.k.dm.get_record(db, index)
            cpu.d[0] = addr
            self._set_last_err(0)
        except DmError as err:
            self._set_last_err(err.code)
            cpu.d[0] = 0

    # -- DmRemoveRecord(db, index) ----------------------------------------
    def p_DmRemoveRecord(self, cpu: "CPU", base: int) -> None:
        self._prep_indexed(cpu, base, for_insert=False, extra={})

    def d_DmRemoveRecord(self, cpu: "CPU", base: int) -> None:
        ctx = self._ctx.pop()
        slot = cpu.a[7]
        if "err" in ctx:
            self._set_last_err(ctx["err"])
            self.acc.write32(slot, ctx["err"])
            return
        a = self.acc
        db = ctx["db"]
        field = cpu.a[0]
        rec = a.read32(field)
        a.write32(field, a.read32(rec + L.REC_NEXT))
        self.k.sto_heap.free(rec)
        pdb = db + L.DB_PDB
        a.write16(pdb + L.PDB_NUM_RECORDS, self.k.dm.num_records(db) - 1)
        self.k.dm.touch(db)
        self._set_last_err(0)
        a.write32(slot, 0)

    def n_DmRemoveRecord(self, cpu: "CPU", base: int) -> None:
        db = self._arg(cpu, base, 0)
        index = self._arg(cpu, base, 1)
        try:
            self.k.dm.remove_record(db, index)
            cpu.d[0] = 0
        except DmError as err:
            self._set_last_err(err.code)
            cpu.d[0] = err.code

    # -- DmWriteRecord(db, index, offset, srcPtr, len) ----------------------
    def p_DmWriteRecord(self, cpu: "CPU", base: int) -> None:
        offset = self._arg(cpu, base, 2)
        src = self._arg(cpu, base, 3)
        length = self._arg(cpu, base, 4)
        self._prep_indexed(cpu, base, for_insert=False,
                           extra={"offset": offset, "src": src,
                                  "len": length})

    def d_DmWriteRecord(self, cpu: "CPU", base: int) -> None:
        ctx = self._ctx.pop()
        slot = cpu.a[7]  # saved d0
        if "err" in ctx:
            self._set_last_err(ctx["err"])
            self.acc.write32(slot, ctx["err"])
            cpu.d[0] = 0  # skip the copy loop
            return
        a = self.acc
        rec = a.read32(cpu.a[0])
        rec_len = a.read32(rec + L.REC_LEN)
        if ctx["offset"] + ctx["len"] > rec_len:
            self._set_last_err(ERR_DM_INDEX_OUT_OF_RANGE)
            a.write32(slot, ERR_DM_INDEX_OUT_OF_RANGE)
            cpu.d[0] = 0
            return
        # Arm the 68k copy loop.
        cpu.a[0] = ctx["src"]
        cpu.a[1] = rec + L.REC_DATA + ctx["offset"]
        cpu.d[0] = ctx["len"]
        self.k.dm.touch(ctx["db"])
        self._set_last_err(0)
        a.write32(slot, 0)

    def n_DmWriteRecord(self, cpu: "CPU", base: int) -> None:
        db = self._arg(cpu, base, 0)
        index = self._arg(cpu, base, 1)
        offset = self._arg(cpu, base, 2)
        src = self._arg(cpu, base, 3)
        length = self._arg(cpu, base, 4)
        try:
            data = self.acc.read_bytes(src, length)
            self.k.dm.write_record(db, index, offset, data)
            cpu.d[0] = 0
        except DmError as err:
            self._set_last_err(err.code)
            cpu.d[0] = err.code

    # ==================================================================
    # Expansion manager (memory cards)
    # ==================================================================
    def t_ExpCardPresent(self, cpu: "CPU", base: int) -> None:
        cpu.d[0] = self.acc.read32(C.REG_CARD_STATUS)

    def t_ExpCardInfo(self, cpu: "CPU", base: int) -> None:
        """Write the inserted card's name (NUL-terminated) to the
        caller's buffer; returns 0, or an error when no card is in."""
        buf = self._arg(cpu, base, 0)
        card = self.k.device.card_slot.card
        if card is None:
            cpu.d[0] = ERR_DM_NOT_FOUND
            return
        name = card.name.encode("latin-1")[:31] + b"\x00"
        self.acc.write_bytes(buf, name)
        cpu.d[0] = 0

    # ==================================================================
    # Window manager
    # ==================================================================
    def _clip_rect(self, x: int, y: int, w: int,
                   h: int) -> tuple[int, int, int, int]:
        x0, y0 = max(0, x), max(0, y)
        x1, y1 = min(_SCREEN_W, x + w), min(_SCREEN_H, y + h)
        return x0, y0, max(0, x1 - x0), max(0, y1 - y0)

    def p_WinDrawRectangle(self, cpu: "CPU", base: int) -> None:
        x = self._arg(cpu, base, 0)
        y = self._arg(cpu, base, 1)
        w = self._arg(cpu, base, 2)
        h = self._arg(cpu, base, 3)
        color = self._arg(cpu, base, 4) & 0xFFFF
        x, y, w, h = self._clip_rect(x, y, w, h)
        if w == 0 or h == 0:
            cpu.d[0] = 0
            return
        cpu.a[0] = L.FRAMEBUFFER + (y * _SCREEN_W + x) * 2
        cpu.d[0] = h
        cpu.d[1] = w
        cpu.d[2] = color
        cpu.d[3] = (_SCREEN_W - w) * 2

    def n_WinDrawRectangle(self, cpu: "CPU", base: int) -> None:
        x = self._arg(cpu, base, 0)
        y = self._arg(cpu, base, 1)
        w = self._arg(cpu, base, 2)
        h = self._arg(cpu, base, 3)
        color = self._arg(cpu, base, 4) & 0xFFFF
        x, y, w, h = self._clip_rect(x, y, w, h)
        a = self.acc
        row = bytes([color >> 8, color & 0xFF]) * w
        for j in range(h):
            a.write_bytes(L.FRAMEBUFFER + ((y + j) * _SCREEN_W + x) * 2, row)
        cpu.d[0] = 0

    def p_WinDrawChars(self, cpu: "CPU", base: int) -> None:
        text = self._arg(cpu, base, 0)
        length = self._arg(cpu, base, 1)
        x = self._arg(cpu, base, 2)
        y = self._arg(cpu, base, 3)
        x = max(0, min(_SCREEN_W - 6, x))
        y = max(0, min(_SCREEN_H - 8, y))
        length = min(length, (_SCREEN_W - x) // 6)
        if length <= 0:
            cpu.d[0] = 0
            return
        cpu.a[0] = text
        cpu.a[1] = L.FRAMEBUFFER + (y * _SCREEN_W + x) * 2
        cpu.d[0] = length

    def n_WinDrawChars(self, cpu: "CPU", base: int) -> None:
        text = self._arg(cpu, base, 0)
        length = self._arg(cpu, base, 1)
        x = self._arg(cpu, base, 2)
        y = self._arg(cpu, base, 3)
        x = max(0, min(_SCREEN_W - 6, x))
        y = max(0, min(_SCREEN_H - 8, y))
        length = min(length, (_SCREEN_W - x) // 6)
        a = self.acc
        for i in range(max(0, length)):
            ch = a.read8(text + i)
            word = (ch << 8) | ch
            cell = L.FRAMEBUFFER + (y * _SCREEN_W + x + i * 6) * 2
            for row in range(8):
                a.write16(cell + row * _ROW_BYTES, word)
        cpu.d[0] = 0

    def n_WinEraseWindow(self, cpu: "CPU", base: int) -> None:
        self.acc.write_bytes(L.FRAMEBUFFER, b"\xff" * C.FRAMEBUFFER_SIZE)
        cpu.d[0] = 0

    def t_WinDrawLine(self, cpu: "CPU", base: int) -> None:
        x0 = self._arg(cpu, base, 0)
        y0 = self._arg(cpu, base, 1)
        x1 = self._arg(cpu, base, 2)
        y1 = self._arg(cpu, base, 3)
        color = self._arg(cpu, base, 4) & 0xFFFF
        a = self.acc
        dx, dy = abs(x1 - x0), -abs(y1 - y0)
        sx = 1 if x0 < x1 else -1
        sy = 1 if y0 < y1 else -1
        err = dx + dy
        while True:
            if 0 <= x0 < _SCREEN_W and 0 <= y0 < _SCREEN_H:
                a.write16(L.FRAMEBUFFER + (y0 * _SCREEN_W + x0) * 2, color)
            if x0 == x1 and y0 == y1:
                break
            e2 = 2 * err
            if e2 >= dy:
                err += dy
                x0 += sx
            if e2 <= dx:
                err += dx
                y0 += sy
        cpu.d[0] = 0

    def t_WinDrawPixel(self, cpu: "CPU", base: int) -> None:
        x = self._arg(cpu, base, 0)
        y = self._arg(cpu, base, 1)
        color = self._arg(cpu, base, 2) & 0xFFFF
        if 0 <= x < _SCREEN_W and 0 <= y < _SCREEN_H:
            self.acc.write16(L.FRAMEBUFFER + (y * _SCREEN_W + x) * 2, color)
        cpu.d[0] = 0

    def t_WinGetPixel(self, cpu: "CPU", base: int) -> None:
        x = self._arg(cpu, base, 0)
        y = self._arg(cpu, base, 1)
        if 0 <= x < _SCREEN_W and 0 <= y < _SCREEN_H:
            cpu.d[0] = self.acc.read16(L.FRAMEBUFFER + (y * _SCREEN_W + x) * 2)
        else:
            cpu.d[0] = 0
