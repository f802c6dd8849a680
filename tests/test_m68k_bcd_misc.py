"""Tests for the rarely-used corners of the 68000 ISA: BCD arithmetic,
TAS, MOVEP, CHK, and TRAPV."""

from tests.m68k_utils import run_asm, run_asm_mem


class TestAbcd:
    def test_simple_bcd_add(self):
        # 27 + 15 = 42 in BCD.
        cpu = run_asm("""
            move    #0,ccr          ; clear X
            move.b  #$27,d0
            move.b  #$15,d1
            abcd    d0,d1
        """)
        assert cpu.d[1] & 0xFF == 0x42
        assert cpu.c == 0

    def test_bcd_add_with_carry_out(self):
        # 95 + 26 = 121 -> digit pair 21, carry set.
        cpu = run_asm("""
            move    #0,ccr
            move.b  #$95,d0
            move.b  #$26,d1
            abcd    d0,d1
        """)
        assert cpu.d[1] & 0xFF == 0x21
        assert cpu.c == 1 and cpu.x == 1

    def test_bcd_extend_chain(self):
        # Multi-byte BCD addition: 0999 + 0001 = 1000.
        cpu, mem = run_asm_mem("""
            lea     $3002,a0        ; a = 09 99 (big endian), end ptrs
            lea     $3006,a1        ; b = 00 01
            move.b  #$09,$3000
            move.b  #$99,$3001
            move.b  #$00,$3004
            move.b  #$01,$3005
            move    #0,ccr
            abcd    -(a1),-(a0)     ; low bytes
            abcd    -(a1),-(a0)     ; high bytes + carry
        """)
        assert mem.read8(0x3000) == 0x10
        assert mem.read8(0x3001) == 0x00

    def test_z_flag_accumulates(self):
        cpu = run_asm("""
            move    #$04,ccr        ; Z set, X clear
            move.b  #$00,d0
            move.b  #$00,d1
            abcd    d0,d1           ; zero result keeps Z
        """)
        assert cpu.z == 1
        cpu = run_asm("""
            move    #$04,ccr
            move.b  #$01,d0
            move.b  #$00,d1
            abcd    d0,d1           ; nonzero clears Z
        """)
        assert cpu.z == 0


class TestSbcdNbcd:
    def test_simple_bcd_sub(self):
        # 42 - 17 = 25 in BCD.
        cpu = run_asm("""
            move    #0,ccr
            move.b  #$17,d0
            move.b  #$42,d1
            sbcd    d0,d1
        """)
        assert cpu.d[1] & 0xFF == 0x25
        assert cpu.c == 0

    def test_bcd_sub_with_borrow(self):
        # 10 - 20 borrows: result 90, carry set.
        cpu = run_asm("""
            move    #0,ccr
            move.b  #$20,d0
            move.b  #$10,d1
            sbcd    d0,d1
        """)
        assert cpu.d[1] & 0xFF == 0x90
        assert cpu.c == 1

    def test_nbcd_negates(self):
        # 0 - 42 (BCD) = 58 with borrow.
        cpu = run_asm("""
            move    #0,ccr
            move.b  #$42,d0
            nbcd    d0
        """)
        assert cpu.d[0] & 0xFF == 0x58
        assert cpu.c == 1

    def test_nbcd_zero(self):
        cpu = run_asm("""
            move    #$04,ccr
            move.b  #$00,d0
            nbcd    d0
        """)
        assert cpu.d[0] & 0xFF == 0
        assert cpu.c == 0


class TestTas:
    def test_sets_high_bit_and_flags(self):
        cpu, mem = run_asm_mem("""
            lea     $3000,a0
            move.b  #$41,(a0)
            tas     (a0)
        """)
        assert mem.read8(0x3000) == 0xC1
        assert cpu.n == 0 and cpu.z == 0  # flags from the OLD value

    def test_zero_value(self):
        cpu, mem = run_asm_mem("""
            lea     $3000,a0
            move.b  #0,(a0)
            tas     (a0)
        """)
        assert mem.read8(0x3000) == 0x80
        assert cpu.z == 1

    def test_spinlock_idiom(self):
        cpu = run_asm("""
            lea     $3000,a0
            move.b  #0,(a0)
            tas     (a0)            ; first take: acquires (Z set)
            seq     d1
            tas     (a0)            ; second take: busy (Z clear)
            seq     d2
        """)
        assert cpu.d[1] & 0xFF == 0xFF
        assert cpu.d[2] & 0xFF == 0x00


class TestMovep:
    def test_word_register_to_memory_interleaves(self):
        cpu, mem = run_asm_mem("""
            lea     $3000,a0
            move.w  #$1234,d0
            movep.w d0,0(a0)
        """)
        assert mem.read8(0x3000) == 0x12
        assert mem.read8(0x3002) == 0x34

    def test_long_roundtrip(self):
        cpu = run_asm("""
            lea     $3000,a0
            move.l  #$cafebabe,d0
            movep.l d0,2(a0)
            moveq   #0,d1
            movep.l 2(a0),d1
        """)
        assert cpu.d[1] == 0xCAFEBABE

    def test_intermediate_bytes_untouched(self):
        cpu, mem = run_asm_mem("""
            lea     $3000,a0
            move.l  #$55555555,d5
            move.l  d5,(a0)
            move.l  d5,4(a0)
            move.w  #$aabb,d0
            movep.w d0,0(a0)
        """)
        assert mem.read8(0x3001) == 0x55  # the skipped odd byte


class TestChkTrapv:
    def test_chk_in_range_continues(self):
        cpu = run_asm("""
            lea     handler,a0
            move.l  a0,$18          ; vector 6
            move.w  #5,d0
            chk     #10,d0
            moveq   #1,d7
            bra.s   done
    handler:
            moveq   #9,d7
            rte
    done:
        """)
        assert cpu.d[7] == 1

    def test_chk_above_bound_traps(self):
        cpu = run_asm("""
            lea     handler,a0
            move.l  a0,$18
            move.w  #11,d0
            moveq   #0,d6
            chk     #10,d0
            moveq   #1,d7
            bra.s   done
    handler:
            moveq   #9,d6
            rte
    done:
        """)
        assert cpu.d[6] == 9
        assert cpu.d[7] == 1  # execution resumed after the chk

    def test_chk_negative_traps(self):
        cpu = run_asm("""
            lea     handler,a0
            move.l  a0,$18
            move.w  #-1,d0
            moveq   #0,d6
            chk     #10,d0
            moveq   #1,d7
            bra.s   done
    handler:
            moveq   #9,d6
            rte
    done:
        """)
        assert cpu.d[6] == 9

    def test_trapv_taken_and_not(self):
        cpu = run_asm("""
            lea     handler,a0
            move.l  a0,$1c          ; vector 7
            moveq   #0,d7
            move.w  #$7fff,d0
            addq.w  #1,d0           ; overflow: V set
            trapv
            move.w  #1,d1
            add.w   d1,d1           ; V clear
            trapv
            bra.s   done
    handler:
            addq.l  #1,d7
            rte
    done:
        """)
        assert cpu.d[7] == 1
