"""The ROM builder: assembles the flash image.

The ROM contains genuine 68k code for everything on the hot path the
paper's profiling mode must see executed:

* the boot stub (vector installation, RNG seeding *through the trap
  path* so the SysRandom hack can log it, the application run loop);
* the **trap dispatcher** — reads the A-line word through the stacked
  PC, indexes the dispatch table in RAM, and jumps to the handler,
  exactly the TrapDispatcher behaviour §2.4.2 quotes from the POSE
  documentation;
* the interrupt service routine, which enqueues pen and key input by
  *calling the corresponding traps*, so installed hacks intercept them
  just as on real hardware;
* one stub per system trap.  Data-plane work (memory copies, record
  list walks, framebuffer fills) is real 68k executing from flash;
  control-plane work transfers to the Python kernel through an F-line
  "emucall" (POSE used reserved opcodes the same way).

ROM-resident applications are appended after the kernel stubs; the
Palm m515's built-in applications live in ROM, which is why roughly
two thirds of all memory references hit flash (Table 1).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..device import constants as C
from ..m68k.asm import Program, assemble
from . import layout as L
from .traps import (
    CALL_APP_RETURNED,
    CALL_BOOT,
    CALL_DELAY_TRY,
    CALL_EVT_TRY,
    CALL_GET_APP,
    CALL_PANIC,
    PHASE_DONE,
    PHASE_PREP,
    Trap,
    aline_word,
    emucall_word,
)


@dataclass
class AppSpec:
    """One ROM-resident application.

    ``source`` must define the label ``app_<name>`` as its entry point;
    the app is invoked with ``jsr`` and returns with ``rts`` after it
    receives ``appStopEvent``.  ``button`` optionally binds a hardware
    application button to the app.
    """

    name: str
    source: str
    button: int = 0


#: Traps whose stub is a single "semantics" emucall plus RTE.
_SIMPLE_TRAPS = [
    Trap.EvtEnqueueKey, Trap.EvtEnqueuePenPoint, Trap.EvtEnqueueEvent,
    Trap.EvtFlushQueue, Trap.KeyCurrentState, Trap.SysRandom,
    Trap.SysNotifyBroadcast, Trap.SysUIAppSwitch, Trap.SysTicksPerSecond,
    Trap.SysSetTrapAddress, Trap.SysGetTrapAddress, Trap.SysCurrentApp,
    Trap.TimGetTicks, Trap.TimGetSeconds, Trap.SysReset,
    Trap.MemPtrNew, Trap.MemPtrFree, Trap.MemPtrSize, Trap.MemHeapFreeBytes,
    Trap.DmCreateDatabase, Trap.DmDeleteDatabase, Trap.DmFindDatabase,
    Trap.DmOpenDatabase, Trap.DmCloseDatabase, Trap.DmDatabaseInfo,
    Trap.DmSetDatabaseInfo, Trap.DmNumRecords, Trap.DmRecordInfo,
    Trap.DmSetRecordInfo, Trap.DmReleaseRecord, Trap.DmGetLastErr,
    Trap.DmNextDatabase,
    Trap.ExpCardPresent, Trap.ExpCardInfo,
    Trap.WinDrawLine, Trap.WinDrawPixel, Trap.WinGetPixel,
]

#: Bytes of registers each stub saves before its PREP emucall; the
#: kernel uses this to locate trap arguments on the stack.
STUB_SAVED_BYTES: Dict[int, int] = {}
for _trap in _SIMPLE_TRAPS:
    STUB_SAVED_BYTES[int(_trap)] = 0
STUB_SAVED_BYTES[int(Trap.EvtGetEvent)] = 0
STUB_SAVED_BYTES[int(Trap.SysTaskDelay)] = 0
STUB_SAVED_BYTES[int(Trap.DmNewRecord)] = 12       # d0-d1/a0
STUB_SAVED_BYTES[int(Trap.DmGetRecord)] = 12
STUB_SAVED_BYTES[int(Trap.DmQueryRecord)] = 12
STUB_SAVED_BYTES[int(Trap.DmRemoveRecord)] = 12
STUB_SAVED_BYTES[int(Trap.DmWriteRecord)] = 16     # d0-d1/a0-a1
STUB_SAVED_BYTES[int(Trap.WinDrawRectangle)] = 24  # d0-d4/a0
STUB_SAVED_BYTES[int(Trap.WinDrawChars)] = 20      # d0-d2/a0-a1
STUB_SAVED_BYTES[int(Trap.WinEraseWindow)] = 0
STUB_SAVED_BYTES[int(Trap.MemMove)] = 0            # pure 68k, no emucall
STUB_SAVED_BYTES[int(Trap.MemSet)] = 0


def _symbols() -> Dict[str, int]:
    syms: Dict[str, int] = {
        "TRAP_TABLE": L.TRAP_TABLE,
        "KSTACK_TOP": L.STACK_TOP,
        "G_TICKS": L.G_TICKS,
        "FRAMEBUFFER": L.FRAMEBUFFER,
        "FB_LONGS": C.FRAMEBUFFER_SIZE // 4,
        "REG_INT_STATUS": C.REG_INT_STATUS,
        "REG_INT_ACK": C.REG_INT_ACK,
        "REG_PEN_SAMPLE": C.REG_PEN_SAMPLE,
        "REG_KEY_EVENT": C.REG_KEY_EVENT,
        "REG_RNG_ENTROPY": C.REG_RNG_ENTROPY,
        "REG_CARD_EVENT": C.REG_CARD_EVENT,
        "REG_CARD_STATUS": C.REG_CARD_STATUS,
        "CARD_WINDOW": 0x2000_0000,
        "EC_BOOT": emucall_word(CALL_BOOT),
        "EC_GET_APP": emucall_word(CALL_GET_APP),
        "EC_APP_RETURNED": emucall_word(CALL_APP_RETURNED),
        "EC_EVT_TRY": emucall_word(CALL_EVT_TRY),
        "EC_DELAY_TRY": emucall_word(CALL_DELAY_TRY),
        "EC_PANIC": emucall_word(CALL_PANIC),
    }
    for trap in Trap:
        syms[f"SYS_{trap.name}"] = aline_word(trap)
        syms[f"EC_{trap.name}"] = emucall_word(trap, PHASE_PREP)
        syms[f"ECD_{trap.name}"] = emucall_word(trap, PHASE_DONE)
    return syms


_KERNEL_ASM_HEAD = """
        org     $10000000
        dc.l    KSTACK_TOP              ; reset: initial SSP
        dc.l    rom_boot                ; reset: initial PC
        dc.b    "PalmRepro ROM v1.0"
        even

; =====================================================================
; Boot
; =====================================================================
rom_boot:
        lea     trap_dispatcher,a0
        move.l  a0,$28                  ; vector 10: A-line (system traps)
        lea     rom_isr,a0
        move.l  a0,$70                  ; vector 28: autovector level 4
        dc.w    EC_BOOT                 ; kernel init (heaps, queue, traps)
        ; Seed the RNG through the trap path so the hack sees it.
        move.l  REG_RNG_ENTROPY,-(sp)
        dc.w    SYS_SysRandom
        addq.l  #4,sp
        move    #$2000,sr               ; enable interrupts
app_loop:
        dc.w    EC_GET_APP              ; d0 = entry of the app to run
        movea.l d0,a0
        jsr     (a0)
        dc.w    EC_APP_RETURNED
        bra.s   app_loop

; =====================================================================
; Trap dispatcher (runs for every A-line system call)
; =====================================================================
trap_dispatcher:
        ori     #$0700,sr               ; mask interrupts: system code is
                                        ; not reentrant (RTE restores SR)
        subq.l  #4,sp                   ; slot for the handler address
        move.l  a0,-(sp)
        move.l  d0,-(sp)
        move.l  14(sp),a0               ; stacked PC -> the A-line word
        move.w  (a0),d0                 ; fetch the trap word
        addq.l  #2,a0
        move.l  a0,14(sp)               ; resume past the trap word
        and.l   #$1ff,d0                ; dispatch index
        lsl.l   #2,d0
        add.l   #TRAP_TABLE,d0
        movea.l d0,a0
        move.l  (a0),8(sp)              ; handler -> slot
        move.l  (sp)+,d0
        movea.l (sp)+,a0
        rts                             ; jump to handler (frame stays)

; =====================================================================
; Interrupt service routine (level 4 autovector)
; =====================================================================
rom_isr:
        movem.l d0-d2/a0-a1,-(sp)
        move.l  REG_INT_STATUS,d2
        btst    #1,d2                   ; pen sample?
        beq.s   isr_nopen
        move.l  REG_PEN_SAMPLE,-(sp)
        dc.w    SYS_EvtEnqueuePenPoint  ; hacks intercept here
        addq.l  #4,sp
isr_nopen:
        btst    #2,d2                   ; key transition?
        beq.s   isr_nokey
        move.l  REG_KEY_EVENT,-(sp)
        dc.w    SYS_EvtEnqueueKey       ; hacks intercept here
        addq.l  #4,sp
isr_nokey:
        btst    #3,d2                   ; card transition?
        beq.s   isr_nocard
        move.l  REG_CARD_EVENT,-(sp)
        dc.w    SYS_SysNotifyBroadcast  ; the notify hack detects cards
        addq.l  #4,sp
isr_nocard:
        btst    #0,d2                   ; system tick?
        beq.s   isr_notmr
        addq.l  #1,G_TICKS              ; kernel tick mirror
isr_notmr:
        move.l  d2,REG_INT_ACK
        movem.l (sp)+,d0-d2/a0-a1
        rte

; =====================================================================
; Blocking stubs
; =====================================================================
stub_EvtGetEvent:
        dc.w    EC_EvtGetEvent          ; latch event*, compute deadline
evt_loop:
        dc.w    EC_EVT_TRY              ; d0 != 0 when delivered
        tst.l   d0
        bne.s   evt_done
        stop    #$2000                  ; doze until any interrupt
        bra.s   evt_loop
evt_done:
        moveq   #0,d0
        rte

stub_SysTaskDelay:
        dc.w    EC_SysTaskDelay         ; compute wake deadline
delay_loop:
        dc.w    EC_DELAY_TRY
        tst.l   d0
        bne.s   delay_done
        stop    #$2000
        bra.s   delay_loop
delay_done:
        moveq   #0,d0
        rte

; =====================================================================
; Pure 68k data-plane stubs
; =====================================================================
; MemMove(dst, src, len) - overlap-safe byte copy.
stub_MemMove:
        movem.l d0/a0-a1,-(sp)          ; args now at 18(sp)
        movea.l 18(sp),a1               ; dst
        movea.l 22(sp),a0               ; src
        move.l  26(sp),d0               ; len
        tst.l   d0
        beq.s   mm_done
        cmpa.l  a0,a1
        bls.s   mm_fwd                  ; dst <= src: copy ascending
        adda.l  d0,a0
        adda.l  d0,a1
mm_bwd: move.b  -(a0),-(a1)
        subq.l  #1,d0
        bne.s   mm_bwd
        bra.s   mm_done
mm_fwd: move.b  (a0)+,(a1)+
        subq.l  #1,d0
        bne.s   mm_fwd
mm_done:
        movem.l (sp)+,d0/a0-a1
        moveq   #0,d0
        rte

; MemSet(ptr, len, value)
stub_MemSet:
        movem.l d0-d1/a0,-(sp)          ; args at 18(sp)
        movea.l 18(sp),a0
        move.l  22(sp),d0
        move.l  26(sp),d1
        tst.l   d0
        beq.s   ms_done
ms_loop:
        move.b  d1,(a0)+
        subq.l  #1,d0
        bne.s   ms_loop
ms_done:
        movem.l (sp)+,d0-d1/a0
        moveq   #0,d0
        rte

; WinEraseWindow() - clear the frame buffer to white.
stub_WinEraseWindow:
        movem.l d0-d1/a0,-(sp)
        lea     FRAMEBUFFER,a0
        move.l  #FB_LONGS/4,d0
        move.l  #$ffffffff,d1
wew_loop:
        move.l  d1,(a0)+                ; unrolled x4
        move.l  d1,(a0)+
        move.l  d1,(a0)+
        move.l  d1,(a0)+
        subq.l  #1,d0
        bne.s   wew_loop
        movem.l (sp)+,d0-d1/a0
        moveq   #0,d0
        rte

; =====================================================================
; Walk-based data manager stubs.  PREP validates arguments and loads
; d0 = hop count, a0 = address of the list head field; the walk itself
; is genuine 68k, so its cost scales with the record count - the
; organic source of Figure 3's overhead growth.
; =====================================================================
stub_DmNewRecord:
        movem.l d0-d1/a0,-(sp)
        dc.w    EC_DmNewRecord
        tst.l   d0
        beq.s   dnr_done
dnr_walk:
        move.b  4(a0),d1                ; record attributes (busy check)
        movea.l (a0),a0
        subq.l  #1,d0
        bne.s   dnr_walk
dnr_done:
        dc.w    ECD_DmNewRecord         ; splice; result -> saved d0
        movem.l (sp)+,d0-d1/a0
        rte

stub_DmGetRecord:
        movem.l d0-d1/a0,-(sp)
        dc.w    EC_DmGetRecord
        tst.l   d0
        beq.s   dgr_done
dgr_walk:
        move.b  4(a0),d1                ; record attributes (busy check)
        movea.l (a0),a0
        subq.l  #1,d0
        bne.s   dgr_walk
dgr_done:
        dc.w    ECD_DmGetRecord
        movem.l (sp)+,d0-d1/a0
        rte

stub_DmQueryRecord:
        movem.l d0-d1/a0,-(sp)
        dc.w    EC_DmQueryRecord
        tst.l   d0
        beq.s   dqr_done
dqr_walk:
        move.b  4(a0),d1                ; record attributes (busy check)
        movea.l (a0),a0
        subq.l  #1,d0
        bne.s   dqr_walk
dqr_done:
        dc.w    ECD_DmQueryRecord
        movem.l (sp)+,d0-d1/a0
        rte

stub_DmRemoveRecord:
        movem.l d0-d1/a0,-(sp)
        dc.w    EC_DmRemoveRecord
        tst.l   d0
        beq.s   drr_done
drr_walk:
        move.b  4(a0),d1                ; record attributes (busy check)
        movea.l (a0),a0
        subq.l  #1,d0
        bne.s   drr_walk
drr_done:
        dc.w    ECD_DmRemoveRecord
        movem.l (sp)+,d0-d1/a0
        rte

; DmWriteRecord(db, index, offset, srcPtr, len)
stub_DmWriteRecord:
        movem.l d0-d1/a0-a1,-(sp)
        dc.w    EC_DmWriteRecord        ; d0 = hops, a0 = head field
        tst.l   d0
        beq.s   dwr_setup
dwr_walk:
        move.b  4(a0),d1                ; record attributes (busy check)
        movea.l (a0),a0
        subq.l  #1,d0
        bne.s   dwr_walk
dwr_setup:
        dc.w    ECD_DmWriteRecord       ; a0=src, a1=dst, d0=len (0 on err)
        tst.l   d0
        beq.s   dwr_done
dwr_copy:
        move.b  (a0)+,(a1)+
        subq.l  #1,d0
        bne.s   dwr_copy
dwr_done:
        movem.l (sp)+,d0-d1/a0-a1
        rte

; =====================================================================
; Drawing stubs
; =====================================================================
; WinDrawRectangle(x, y, w, h, color)
stub_WinDrawRectangle:
        movem.l d0-d4/a0,-(sp)
        dc.w    EC_WinDrawRectangle     ; a0=start, d0=rows, d1=words/row,
                                        ; d2=colour, d3=row skip bytes
        tst.l   d0
        beq.s   wdr_done
wdr_row:
        move.l  d1,d4
wdr_col:
        move.w  d2,(a0)+
        subq.l  #1,d4
        bne.s   wdr_col
        adda.l  d3,a0
        subq.l  #1,d0
        bne.s   wdr_row
wdr_done:
        movem.l (sp)+,d0-d4/a0
        rte

; WinDrawChars(textPtr, len, x, y) - 6x8 cells, one stripe per row.
stub_WinDrawChars:
        movem.l d0-d2/a0-a1,-(sp)
        dc.w    EC_WinDrawChars         ; a0=text, a1=cell base, d0=len
        tst.l   d0
        beq.s   wdc_done
wdc_char:
        move.b  (a0)+,d1
        move.w  d1,d2
        lsl.w   #8,d2
        move.b  d1,d2                   ; d2 = char | char<<8
        move.w  d2,0(a1)
        move.w  d2,320(a1)
        move.w  d2,640(a1)
        move.w  d2,960(a1)
        move.w  d2,1280(a1)
        move.w  d2,1600(a1)
        move.w  d2,1920(a1)
        move.w  d2,2240(a1)
        adda.l  #12,a1                  ; next 6-pixel cell
        subq.l  #1,d0
        bne.s   wdc_char
wdc_done:
        movem.l (sp)+,d0-d2/a0-a1
        rte

; Unimplemented trap: surface a host error instead of running wild.
rom_unimplemented:
        dc.w    EC_PANIC
        rte

; =====================================================================
; The built-in null application: an empty event loop.  Runs when no
; application is registered or selected; exits on appStopEvent.
; =====================================================================
app_null:
        link    a6,#-16                 ; event buffer in the frame
anull_loop:
        move.l  #$ffffffff,-(sp)        ; evtWaitForever
        pea     -16(a6)                 ; &event
        dc.w    SYS_EvtGetEvent
        addq.l  #8,sp
        move.w  -16(a6),d0              ; event.eType
        cmpi.w  #22,d0                  ; appStopEvent
        bne.s   anull_loop
        unlk    a6
        rts
"""


def _simple_stub(trap: Trap) -> str:
    return (
        f"stub_{trap.name}:\n"
        f"        dc.w    EC_{trap.name}\n"
        f"        rte\n"
    )


@functools.lru_cache(maxsize=8)
def _assemble_rom(source: str,
                  symbols: Tuple[Tuple[str, int], ...]) -> Program:
    """Assemble a ROM once per process for each distinct source text and
    symbol set: collecting a session and replaying it boot the same ROM,
    as does every kernel a test or sweep creates.  Callers share the
    returned :class:`Program`; nothing mutates one after assembly."""
    return assemble(source, origin=C.FLASH_BASE, symbols=dict(symbols))


class RomBuilder:
    """Assembles the kernel ROM plus any ROM-resident applications."""

    def __init__(self, apps: Sequence[AppSpec] = ()):
        self.apps = list(apps)

    def source(self) -> str:
        parts = [_KERNEL_ASM_HEAD]
        for trap in _SIMPLE_TRAPS:
            parts.append(_simple_stub(trap))
        parts.append("\n; ======================= applications =====================\n")
        for app in self.apps:
            parts.append(f"\n; ---- application: {app.name} ----\n")
            parts.append(app.source)
            parts.append("\n        even\n")
        return "\n".join(parts)

    def build(self) -> Program:
        program = _assemble_rom(self.source(), tuple(_symbols().items()))
        self._check(program)
        return program

    def _check(self, program: Program) -> None:
        for trap in Trap:
            label = f"stub_{trap.name}"
            if label not in program.symbols:
                raise AssertionError(f"ROM is missing {label}")
        for app in self.apps:
            if f"app_{app.name}" not in program.symbols:
                raise AssertionError(f"app {app.name} lacks entry label")

    def stub_addresses(self, program: Program) -> Dict[int, int]:
        """Trap index -> ROM stub address (for the dispatch table)."""
        return {int(trap): program.symbols[f"stub_{trap.name}"]
                for trap in Trap}

    def app_entries(self, program: Program) -> List[Tuple[AppSpec, int]]:
        return [(app, program.symbols[f"app_{app.name}"]) for app in self.apps]
