"""Unit tests for the 68000 interpreter: data movement, arithmetic,
logic, shifts, branches, subroutines, and the exception machinery."""

import pytest

from repro.m68k.errors import AddressError

from tests.m68k_utils import run_asm, run_asm_mem


class TestMove:
    def test_moveq_sign_extends(self):
        cpu = run_asm("moveq #-1,d0\n moveq #5,d1")
        assert cpu.d[0] == 0xFFFFFFFF
        assert cpu.d[1] == 5

    def test_move_immediate_sizes(self):
        cpu = run_asm("""
            move.l  #$12345678,d0
            move.w  #$abcd,d1
            move.b  #$7f,d2
        """)
        assert cpu.d[0] == 0x12345678
        assert cpu.d[1] == 0xABCD
        assert cpu.d[2] == 0x7F

    def test_move_byte_merges_into_register(self):
        cpu = run_asm("""
            move.l  #$11223344,d0
            move.b  #$ff,d0
        """)
        assert cpu.d[0] == 0x112233FF

    def test_movea_word_sign_extends(self):
        cpu = run_asm("movea.w #$8000,a0")
        assert cpu.a[0] == 0xFFFF8000

    def test_move_to_memory_and_back(self):
        cpu, mem = run_asm_mem("""
            lea     $3000,a0
            move.l  #$cafebabe,(a0)
            move.l  (a0),d0
        """)
        assert mem.read32(0x3000) == 0xCAFEBABE
        assert cpu.d[0] == 0xCAFEBABE

    def test_postincrement_and_predecrement(self):
        cpu = run_asm("""
            lea     $3000,a0
            move.w  #$1111,(a0)+
            move.w  #$2222,(a0)+
            move.w  -(a0),d0
            move.w  -(a0),d1
        """)
        assert cpu.d[0] == 0x2222
        assert cpu.d[1] == 0x1111
        assert cpu.a[0] == 0x3000

    def test_displacement_addressing(self):
        cpu = run_asm("""
            lea     $3000,a0
            move.w  #$42,8(a0)
            move.w  8(a0),d0
            move.w  #$43,-4(a0)
            move.w  -4(a0),d1
        """)
        assert cpu.d[0] == 0x42
        assert cpu.d[1] == 0x43

    def test_indexed_addressing(self):
        cpu = run_asm("""
            lea     $3000,a0
            moveq   #8,d1
            move.w  #$77,2(a0,d1.l)
            move.w  2(a0,d1.l),d0
        """)
        assert cpu.d[0] == 0x77

    def test_indexed_word_index_sign_extends(self):
        cpu = run_asm("""
            lea     $3000,a0
            move.l  #$fffffffc,d1       ; -4 as a word index
            move.w  #$99,(a0)
            move.w  4(a0,d1.w),d0
        """)
        assert cpu.d[0] == 0x99

    def test_absolute_short_and_long(self):
        cpu = run_asm("""
            move.w  #$1234,$3000.w
            move.w  $3000.w,d0
            move.l  #$9876,$3004
            move.l  $3004,d1
        """)
        assert cpu.d[0] == 0x1234
        assert cpu.d[1] == 0x9876

    def test_pc_relative_read(self):
        cpu = run_asm("""
            bra.s   go
    value:  dc.w    $4242
    go:     move.w  value(pc),d0
        """)
        assert cpu.d[0] == 0x4242

    def test_byte_postinc_on_sp_moves_two(self):
        cpu = run_asm("""
            move.l  sp,d1
            move.b  #5,-(sp)
            move.l  sp,d0
        """)
        assert (cpu.d[1] - cpu.d[0]) == 2

    def test_move_sets_flags(self):
        cpu = run_asm("move.l #0,d0")
        assert cpu.z == 1 and cpu.n == 0
        cpu = run_asm("move.w #$8000,d0")
        assert cpu.n == 1 and cpu.z == 0

    def test_movea_does_not_set_flags(self):
        cpu = run_asm("""
            move.l  #0,d0       ; set Z
            movea.l #$100,a0    ; must leave Z alone
        """)
        assert cpu.z == 1

    def test_lea_and_pea(self):
        cpu, mem = run_asm_mem("""
            lea     $1234,a0
            pea     $5678
            move.l  (sp)+,d0
        """)
        assert cpu.a[0] == 0x1234
        assert cpu.d[0] == 0x5678


class TestArithmetic:
    def test_add_and_carry(self):
        cpu = run_asm("""
            move.l  #$ffffffff,d0
            addq.l  #1,d0
        """)
        assert cpu.d[0] == 0
        assert cpu.c == 1 and cpu.x == 1 and cpu.z == 1

    def test_add_overflow_flag(self):
        cpu = run_asm("""
            move.w  #$7fff,d0
            addq.w  #1,d0
        """)
        assert cpu.d[0] & 0xFFFF == 0x8000
        assert cpu.v == 1 and cpu.n == 1 and cpu.c == 0

    def test_sub_borrow(self):
        cpu = run_asm("""
            moveq   #3,d0
            subq.l  #5,d0
        """)
        assert cpu.d[0] == 0xFFFFFFFE
        assert cpu.c == 1 and cpu.n == 1

    def test_sub_word_only_touches_word(self):
        cpu = run_asm("""
            move.l  #$00010000,d0
            subq.w  #1,d0
        """)
        assert cpu.d[0] == 0x0001FFFF

    def test_addi_subi_cmpi(self):
        cpu = run_asm("""
            move.l  #100,d0
            addi.l  #28,d0
            subi.l  #28,d0
            cmpi.l  #100,d0
        """)
        assert cpu.d[0] == 100
        assert cpu.z == 1

    def test_cmp_does_not_modify(self):
        cpu = run_asm("""
            moveq   #7,d0
            moveq   #9,d1
            cmp.l   d1,d0
        """)
        assert cpu.d[0] == 7
        assert cpu.n == 1 and cpu.c == 1  # 7 - 9 borrows

    def test_adda_suba_no_flags(self):
        cpu = run_asm("""
            move.l  #0,d0           ; Z=1
            lea     $100,a0
            adda.l  #$10,a0
            suba.l  #$20,a0
        """)
        assert cpu.a[0] == 0xF0
        assert cpu.z == 1

    def test_adda_word_sign_extends(self):
        cpu = run_asm("""
            lea     $1000,a0
            adda.w  #$8000,a0
        """)
        assert cpu.a[0] == (0x1000 - 0x8000) & 0xFFFFFFFF

    def test_neg(self):
        cpu = run_asm("moveq #5,d0\n neg.l d0")
        assert cpu.d[0] == 0xFFFFFFFB
        assert cpu.c == 1 and cpu.n == 1
        cpu = run_asm("moveq #0,d0\n neg.l d0")
        assert cpu.d[0] == 0 and cpu.c == 0 and cpu.z == 1

    def test_mulu(self):
        cpu = run_asm("""
            move.w  #300,d0
            move.w  #500,d1
            mulu    d1,d0
        """)
        assert cpu.d[0] == 150000

    def test_muls_negative(self):
        cpu = run_asm("""
            move.w  #-3,d0
            move.w  #100,d1
            muls    d1,d0
        """)
        assert cpu.d[0] == (-300) & 0xFFFFFFFF
        assert cpu.n == 1

    def test_divu(self):
        cpu = run_asm("""
            move.l  #100001,d0
            move.w  #10,d1
            divu    d1,d0
        """)
        assert cpu.d[0] & 0xFFFF == 10000       # quotient
        assert (cpu.d[0] >> 16) == 1            # remainder

    def test_divu_overflow_leaves_operand(self):
        cpu = run_asm("""
            move.l  #$10000,d0
            move.w  #1,d1
            divu    d1,d0
        """)
        assert cpu.d[0] == 0x10000
        assert cpu.v == 1

    def test_divs_truncates_toward_zero(self):
        cpu = run_asm("""
            move.l  #-7,d0
            move.w  #2,d1
            divs    d1,d0
        """)
        assert cpu.d[0] & 0xFFFF == (-3) & 0xFFFF
        assert (cpu.d[0] >> 16) & 0xFFFF == (-1) & 0xFFFF

    def test_ext(self):
        cpu = run_asm("""
            move.l  #$00000080,d0
            ext.w   d0
            move.l  #$00008000,d1
            ext.l   d1
        """)
        assert cpu.d[0] & 0xFFFF == 0xFF80
        assert cpu.d[1] == 0xFFFF8000

    def test_addx_chain(self):
        # 32+32 -> 64-bit addition using addx.
        cpu = run_asm("""
            move.l  #$ffffffff,d0   ; low a
            move.l  #1,d1           ; high a
            move.l  #1,d2           ; low b
            move.l  #0,d3           ; high b
            add.l   d2,d0
            addx.l  d3,d1
        """)
        assert cpu.d[0] == 0
        assert cpu.d[1] == 2

    def test_subx(self):
        cpu = run_asm("""
            move.l  #0,d0
            move.l  #5,d1
            sub.l   #1,d0           ; borrows, X=1
            subx.l  d2,d1           ; d2=0, subtract borrow
        """)
        assert cpu.d[1] == 4

    def test_cmpm(self):
        cpu = run_asm("""
            lea     $3000,a0
            lea     $3000,a1
            move.w  #7,(a0)
            cmpm.w  (a0)+,(a1)+
        """)
        assert cpu.z == 1
        assert cpu.a[0] == 0x3002 and cpu.a[1] == 0x3002


class TestLogic:
    def test_and_or_eor_not(self):
        cpu = run_asm("""
            move.l  #$f0f0f0f0,d0
            move.l  #$ffff0000,d1
            and.l   d1,d0
            move.l  #$0000000f,d2
            or.l    d2,d0
            eor.l   d1,d0
            not.l   d0
        """)
        expected = 0xF0F00000
        expected = (expected | 0xF) ^ 0xFFFF0000
        expected = (~expected) & 0xFFFFFFFF
        assert cpu.d[0] == expected

    def test_andi_ori_eori(self):
        cpu = run_asm("""
            move.l  #$12345678,d0
            andi.l  #$ffff0000,d0
            ori.l   #$00000042,d0
            eori.l  #$ff000000,d0
        """)
        assert cpu.d[0] == ((0x12340000 | 0x42) ^ 0xFF000000)

    def test_tst(self):
        cpu = run_asm("""
            move.l  #$80000000,d0
            tst.l   d0
        """)
        assert cpu.n == 1 and cpu.z == 0

    def test_clr(self):
        cpu = run_asm("""
            move.l  #$12345678,d0
            clr.w   d0
        """)
        assert cpu.d[0] == 0x12340000
        assert cpu.z == 1

    def test_swap(self):
        cpu = run_asm("""
            move.l  #$12345678,d0
            swap    d0
        """)
        assert cpu.d[0] == 0x56781234

    def test_exg(self):
        cpu = run_asm("""
            moveq   #1,d0
            moveq   #2,d1
            exg     d0,d1
            lea     $10,a0
            exg     d0,a0
        """)
        assert cpu.d[1] == 1
        assert cpu.d[0] == 0x10
        assert cpu.a[0] == 2

    def test_bit_ops_register(self):
        cpu = run_asm("""
            moveq   #0,d0
            bset    #4,d0
            btst    #4,d0
        """)
        assert cpu.d[0] == 0x10
        assert cpu.z == 0
        cpu = run_asm("""
            moveq   #0,d0
            bset    #35,d0      ; modulo 32 -> bit 3
        """)
        assert cpu.d[0] == 8

    def test_bit_ops_memory_are_byte_wide(self):
        cpu, mem = run_asm_mem("""
            lea     $3000,a0
            move.b  #0,(a0)
            bset    #7,(a0)
            bchg    #0,(a0)
            bclr    #7,(a0)
        """)
        assert mem.read8(0x3000) == 0x01

    def test_bit_op_dynamic(self):
        cpu = run_asm("""
            moveq   #0,d0
            moveq   #6,d1
            bset    d1,d0
        """)
        assert cpu.d[0] == 0x40


class TestShifts:
    def test_lsl_lsr(self):
        cpu = run_asm("""
            move.l  #1,d0
            lsl.l   #4,d0
            move.l  #$80000000,d1
            lsr.l   #4,d1
        """)
        assert cpu.d[0] == 0x10
        assert cpu.d[1] == 0x08000000

    def test_lsl_carry_out(self):
        cpu = run_asm("""
            move.b  #$80,d0
            lsl.b   #1,d0
        """)
        assert cpu.d[0] & 0xFF == 0
        assert cpu.c == 1 and cpu.x == 1 and cpu.z == 1

    def test_asr_sign_fill(self):
        cpu = run_asm("""
            move.w  #$8000,d0
            asr.w   #3,d0
        """)
        assert cpu.d[0] & 0xFFFF == 0xF000
        assert cpu.n == 1

    def test_asl_overflow(self):
        cpu = run_asm("""
            move.b  #$40,d0
            asl.b   #1,d0
        """)
        assert cpu.v == 1  # sign changed

    def test_shift_by_register_count(self):
        cpu = run_asm("""
            move.l  #1,d0
            moveq   #10,d1
            lsl.l   d1,d0
        """)
        assert cpu.d[0] == 1024

    def test_shift_count_zero_from_register(self):
        cpu = run_asm("""
            move.l  #5,d0
            moveq   #0,d1
            lsr.l   d1,d0
        """)
        assert cpu.d[0] == 5
        assert cpu.c == 0

    def test_rol_ror(self):
        cpu = run_asm("""
            move.w  #$8001,d0
            rol.w   #1,d0
            move.w  #$8001,d1
            ror.w   #1,d1
        """)
        assert cpu.d[0] & 0xFFFF == 0x0003
        assert cpu.d[1] & 0xFFFF == 0xC000

    def test_roxl_uses_x(self):
        cpu = run_asm("""
            move.l  #$80000000,d0
            add.l   d0,d0           ; sets X=1
            move.w  #0,d1
            roxl.w  #1,d1           ; rotates X in
        """)
        assert cpu.d[1] & 0xFFFF == 1

    def test_memory_shift_word(self):
        cpu, mem = run_asm_mem("""
            lea     $3000,a0
            move.w  #1,(a0)
            lsl     (a0)
        """)
        assert mem.read16(0x3000) == 2


class TestControlFlow:
    def test_bcc_taken_and_not(self):
        cpu = run_asm("""
            moveq   #1,d0
            cmpi.l  #1,d0
            beq.s   yes
            moveq   #0,d7
            bra.s   done
    yes:    moveq   #42,d7
    done:
        """)
        assert cpu.d[7] == 42

    def test_signed_vs_unsigned_conditions(self):
        cpu = run_asm("""
            moveq   #-1,d0
            cmpi.l  #1,d0           ; -1 vs 1
            sgt     d1              ; signed: -1 > 1 false -> 0
            shi     d2              ; unsigned: ffffffff > 1 true -> ff
        """)
        assert cpu.d[1] & 0xFF == 0
        assert cpu.d[2] & 0xFF == 0xFF

    def test_dbra_loop(self):
        cpu = run_asm("""
            moveq   #0,d0
            move.w  #9,d1
    loop:   addq.l  #1,d0
            dbra    d1,loop
        """)
        assert cpu.d[0] == 10

    def test_dbcc_exits_on_condition(self):
        cpu = run_asm("""
            moveq   #0,d0
            move.w  #100,d1
    loop:   addq.l  #1,d0
            cmpi.l  #5,d0
            dbeq    d1,loop     ; loop until d0 == 5
        """)
        assert cpu.d[0] == 5

    def test_bsr_rts(self):
        cpu = run_asm("""
            moveq   #0,d0
            bsr.s   sub
            addq.l  #1,d0
            bra.s   done
    sub:    moveq   #10,d0
            rts
    done:
        """)
        assert cpu.d[0] == 11

    def test_jsr_jmp_absolute(self):
        cpu = run_asm("""
            moveq   #0,d0
            jsr     sub
            addq.l  #1,d0
            jmp     done
    sub:    moveq   #20,d0
            rts
    done:
        """)
        assert cpu.d[0] == 21

    def test_jmp_via_register(self):
        cpu = run_asm("""
            lea     target,a0
            jmp     (a0)
            moveq   #1,d7       ; skipped
    target: moveq   #9,d0
        """)
        assert cpu.d[0] == 9
        assert cpu.d[7] == 0

    def test_link_unlk(self):
        cpu = run_asm("""
            move.l  sp,d5
            link    a6,#-16
            move.l  sp,d6
            unlk    a6
            move.l  sp,d7
        """)
        assert cpu.d[5] - cpu.d[6] == 20  # 4 saved + 16 frame
        assert cpu.d[5] == cpu.d[7]

    def test_scc(self):
        cpu = run_asm("""
            moveq   #0,d0
            st      d1
            sf      d2
        """)
        assert cpu.d[1] & 0xFF == 0xFF
        assert cpu.d[2] & 0xFF == 0


class TestMovem:
    def test_roundtrip_via_stack(self):
        cpu = run_asm("""
            moveq   #1,d2
            moveq   #2,d3
            lea     $1234,a2
            movem.l d2-d3/a2,-(sp)
            moveq   #0,d2
            moveq   #0,d3
            suba.l  a2,a2
            movem.l (sp)+,d2-d3/a2
        """)
        assert cpu.d[2] == 1
        assert cpu.d[3] == 2
        assert cpu.a[2] == 0x1234

    def test_predecrement_layout(self):
        # Lowest register ends at the lowest address.
        cpu, mem = run_asm_mem("""
            lea     $3010,a0
            moveq   #$11,d0
            moveq   #$22,d1
            movem.l d0-d1,-(a0)
        """)
        assert mem.read32(0x3008) == 0x11
        assert mem.read32(0x300C) == 0x22
        assert cpu.a[0] == 0x3008

    def test_word_load_sign_extends(self):
        cpu, mem = run_asm_mem("""
            lea     $3000,a0
            move.w  #$8000,(a0)
            movem.w (a0),d0
        """)
        assert cpu.d[0] == 0xFFFF8000

    def test_control_mode_store(self):
        cpu, mem = run_asm_mem("""
            moveq   #7,d0
            moveq   #8,d1
            movem.l d0-d1,$3000
        """)
        assert mem.read32(0x3000) == 7
        assert mem.read32(0x3004) == 8


class TestExceptions:
    def test_trap_instruction_vectors(self):
        cpu = run_asm("""
            lea     handler,a0
            move.l  a0,$80      ; vector 32 = trap #0
            trap    #0
            moveq   #5,d1
            bra.s   done
    handler:
            moveq   #9,d0
            rte
    done:
        """)
        assert cpu.d[0] == 9
        assert cpu.d[1] == 5

    def test_divide_by_zero_vectors(self):
        cpu = run_asm("""
            lea     handler,a0
            move.l  a0,$14      ; vector 5
            moveq   #0,d1
            move.l  #100,d0
            divu    d1,d0
            bra.s   done
    handler:
            moveq   #3,d7
            rte
    done:
        """)
        assert cpu.d[7] == 3

    def test_aline_exception_stacks_faulting_pc(self):
        # The handler inspects the stacked PC, reads the trap word, skips
        # it, and returns - the mechanism the ROM TrapDispatcher uses.
        cpu = run_asm("""
            lea     handler,a0
            move.l  a0,$28          ; vector 10 = A-line
            dc.w    $a123           ; "system call"
            moveq   #1,d6
            bra.s   done
    handler:
            move.l  2(sp),a1        ; stacked PC -> the A-line word
            move.w  (a1),d5         ; capture the trap word
            addq.l  #2,a1
            move.l  a1,2(sp)        ; resume past it
            rte
    done:
        """)
        assert cpu.d[5] & 0xFFFF == 0xA123
        assert cpu.d[6] == 1

    def test_address_error_on_odd_word_access(self):
        cpu, mem = None, None
        from tests.m68k_utils import make_cpu
        cpu, mem = make_cpu("""
            lea     $3001,a0
            move.w  (a0),d0
        """)
        with pytest.raises(AddressError):
            cpu.run(10)

    def test_stop_sets_stopped_and_interrupt_resumes(self):
        from tests.m68k_utils import make_cpu
        cpu, mem = make_cpu("""
            lea     isr,a0
            move.l  a0,$64          ; vector 25 = autovector level 1
            stop    #$2000          ; unmask interrupts, sleep
            moveq   #7,d1
            stop    #$2700
    isr:    moveq   #3,d0
            rte
        """)
        cpu.run(10)
        assert cpu.stopped
        assert cpu.d[1] == 0
        cpu.set_irq(1)
        cpu.step()          # services the interrupt
        cpu.set_irq(0)
        cpu.run(10)
        assert cpu.d[0] == 3
        assert cpu.d[1] == 7

    def test_interrupt_respects_mask(self):
        from tests.m68k_utils import make_cpu
        cpu, _ = make_cpu("""
            moveq   #1,d0
        """)
        cpu.set_irq(1)      # masked: reset leaves imask=7
        cpu.run(5)
        assert cpu.d[0] == 1  # ran to stop without vectoring


class TestStatusRegister:
    def test_move_to_from_sr(self):
        cpu = run_asm("""
            move    #$2705,sr       ; set C and X... (X=bit4) -> CCR=$05
            move    sr,d0
        """)
        assert cpu.d[0] & 0xFF1F == 0x2705 & 0xFF1F

    def test_ccr_ops(self):
        cpu = run_asm("""
            move    #$1f,ccr
            andi    #$1e,ccr        ; clear C
        """)
        assert cpu.c == 0
        assert cpu.x == 1 and cpu.n == 1 and cpu.z == 1 and cpu.v == 1

    def test_supervisor_usp_switch(self):
        cpu = run_asm("""
            lea     $8000,a0
            move.l  a0,usp
            move    usp,a1
        """)
        assert cpu.a[1] == 0x8000


class TestCounters:
    def test_cycles_and_instructions_advance(self):
        cpu = run_asm("""
            moveq   #0,d0
            addq.l  #1,d0
        """)
        assert cpu.instructions == 3  # two + stop
        assert cpu.cycles > 0

    def test_run_budget_respected(self):
        from tests.m68k_utils import make_cpu
        cpu, _ = make_cpu("""
    loop:   addq.l  #1,d0
            bra.s   loop
        """)
        executed = cpu.run(1000)
        assert executed == 1000
        assert not cpu.stopped
