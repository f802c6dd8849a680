"""Integration tests: nontrivial guest programs running on the 68k
core.  These exercise instruction interactions (flag chains, loops,
subroutines, memory addressing) that single-instruction unit tests
cannot."""

from tests.m68k_utils import run_asm, run_asm_mem


class TestMultiPrecision:
    def test_64bit_addition_chain(self):
        # (0x00000001_FFFFFFFF + 0x00000002_00000001) = 0x4_00000000
        cpu = run_asm("""
            move.l  #$ffffffff,d0   ; a low
            move.l  #1,d1           ; a high
            move.l  #1,d2           ; b low
            move.l  #2,d3           ; b high
            add.l   d2,d0
            addx.l  d3,d1
        """)
        assert cpu.d[0] == 0x00000000
        assert cpu.d[1] == 0x00000004

    def test_64bit_subtraction_chain(self):
        # 0x2_00000000 - 0x0_00000001 = 0x1_FFFFFFFF
        cpu = run_asm("""
            moveq   #0,d0           ; a low
            move.l  #2,d1           ; a high
            moveq   #1,d2           ; b low
            moveq   #0,d3           ; b high
            sub.l   d2,d0
            subx.l  d3,d1
        """)
        assert cpu.d[0] == 0xFFFFFFFF
        assert cpu.d[1] == 0x00000001

    def test_addx_z_flag_accumulates(self):
        # Multi-word result of zero keeps Z set throughout the chain.
        cpu = run_asm("""
            move.l  #1,d0
            moveq   #0,d1
            moveq   #-1,d2          ; $ffffffff
            moveq   #0,d3
            add.l   d2,d0           ; 1 + ffffffff = 0, carry
            addx.l  d3,d1           ; 0 + 0 + 1 = 1 -> Z clear
            seq     d7
        """)
        assert cpu.d[1] == 1
        assert cpu.d[7] & 0xFF == 0

    def test_64bit_zero_result_z_set(self):
        cpu = run_asm("""
            moveq   #0,d0
            moveq   #0,d1
            moveq   #0,d2
            moveq   #0,d3
            move    #$04,ccr        ; pre-set Z (accumulating)
            add.l   d2,d0
            addx.l  d3,d1
            seq     d7
        """)
        assert cpu.d[7] & 0xFF == 0xFF


class TestStringRoutines:
    def test_strlen(self):
        cpu = run_asm("""
            lea     text,a0
            moveq   #-1,d0
    sl_loop: addq.l #1,d0
            tst.b   (a0)+
            bne.s   sl_loop
            bra.s   done
    text:   dc.b    "hello palm",0
            even
    done:
        """)
        assert cpu.d[0] == 10

    def test_memcmp_equal_and_differs(self):
        cpu = run_asm("""
            lea     s1,a0
            lea     s2,a1
            moveq   #4,d1
    cmploop: cmpm.b (a0)+,(a1)+
            bne.s   diff
            subq.l  #1,d1
            bne.s   cmploop
            moveq   #0,d0           ; equal
            bra.s   done
    diff:   moveq   #1,d0
            bra.s   done
    s1:     dc.b    "abcd"
    s2:     dc.b    "abcd"
            even
    done:
        """)
        assert cpu.d[0] == 0

    def test_reverse_copy(self):
        cpu, mem = run_asm_mem("""
            lea     src,a0
            lea     $3008,a1        ; destination end
            moveq   #7,d1
    rc_loop: move.b (a0)+,-(a1)
            dbra    d1,rc_loop
            bra.s   done
    src:    dc.b    "ABCDEFGH"
            even
    done:
        """)
        assert mem.dump(0x3000, 8) == b"HGFEDCBA"


class TestSortAndSearch:
    def test_bubble_sort(self):
        source = """
            lea     data,a0
            moveq   #6,d5           ; n-1 passes
    outer:  lea     data,a0
            moveq   #6,d6           ; n-1 comparisons
    inner:  move.w  (a0),d0
            move.w  2(a0),d1
            cmp.w   d0,d1
            bge.s   no_swap
            move.w  d1,(a0)
            move.w  d0,2(a0)
    no_swap: addq.l #2,a0
            dbra    d6,inner
            dbra    d5,outer
            bra.s   done
    data:   dc.w    507, 13, 8000, 2, 42, 999, 1, 300
            even
    done:
        """
        cpu, mem = run_asm_mem(source)
        data_addr = None
        # Locate the sorted block by scanning for the known values.
        values = [mem.read16(0x1000 + i) for i in range(0, 0x100, 2)]
        expected = sorted([507, 13, 8000, 2, 42, 999, 1, 300])
        for start in range(len(values) - 7):
            if values[start:start + 8] == expected:
                data_addr = start
                break
        assert data_addr is not None, values[:40]

    def test_binary_search(self):
        cpu = run_asm("""
            moveq   #0,d2           ; lo
            moveq   #9,d3           ; hi
            move.w  #77,d4          ; needle
    bs_loop: cmp.l  d3,d2
            bgt.s   bs_fail
            move.l  d2,d0
            add.l   d3,d0
            lsr.l   #1,d0           ; mid
            lea     table,a0
            move.l  d0,d1
            add.l   d1,d1
            move.w  0(a0,d1.l),d5
            cmp.w   d4,d5
            beq.s   bs_found
            blt.s   bs_right
            move.l  d0,d3
            subq.l  #1,d3
            bra.s   bs_loop
    bs_right: move.l d0,d2
            addq.l  #1,d2
            bra.s   bs_loop
    bs_found: move.l d0,d7
            moveq   #1,d6
            bra.s   done
    bs_fail: moveq   #0,d6
            bra.s   done
    table:  dc.w    2, 5, 9, 21, 40, 77, 81, 90, 95, 99
            even
    done:
        """)
        assert cpu.d[6] == 1
        assert cpu.d[7] == 5


class TestRecursion:
    def test_recursive_factorial(self):
        cpu = run_asm("""
            moveq   #6,d0
            bsr.s   fact
            bra.s   done
    ; fact(d0) -> d0, recursive, uses the stack
    fact:   cmpi.l  #1,d0
            ble.s   fact_base
            move.l  d0,-(sp)
            subq.l  #1,d0
            bsr.s   fact
            move.l  (sp)+,d1
            mulu    d1,d0
            rts
    fact_base:
            moveq   #1,d0
            rts
    done:
        """)
        assert cpu.d[0] == 720

    def test_fibonacci_iterative(self):
        cpu = run_asm("""
            moveq   #0,d0
            moveq   #1,d1
            move.w  #19,d2          ; 20 iterations -> fib(20)
    fib:    move.l  d1,d3
            add.l   d0,d1
            move.l  d3,d0
            dbra    d2,fib
        """)
        assert cpu.d[0] == 6765


class TestInterruptInteraction:
    def test_nested_subroutine_with_interrupts(self):
        """Interrupts firing mid-computation must not corrupt it."""
        from tests.m68k_utils import make_cpu
        cpu, mem = make_cpu("""
            lea     isr,a0
            move.l  a0,$64          ; level 1 autovector
            move    #$2000,sr
            moveq   #0,d0
            move.w  #999,d1
    loop:   addq.l  #1,d0
            dbra    d1,loop
            bra.s   done
    isr:    addq.l  #1,$3000        ; count interrupts
            rte
    done:
        """)
        fired = 0
        while not cpu.stopped and cpu.instructions < 100_000:
            cpu.run(100)
            if fired < 5 and not cpu.stopped:
                cpu.set_irq(1)
                cpu.step()
                cpu.set_irq(0)
                fired += 1
        assert cpu.d[0] == 1000  # computation unharmed
        assert mem.read32(0x3000) == 5


class TestDisassemblerCoverage:
    def test_disassembles_whole_test_programs(self):
        """The disassembler round-trips every instruction the assembler
        emits for a representative program."""
        from repro.m68k.asm import assemble
        from repro.m68k.disasm import disassemble_one

        source = """
            lea     table(pc),a0
            moveq   #4,d0
    loop:   move.w  (a0)+,d1
            mulu    #3,d1
            move.w  d1,-(sp)
            addq.l  #2,sp
            dbra    d0,loop
            movem.l d0-d2/a0,-(sp)
            movem.l (sp)+,d0-d2/a0
            jsr     sub
            bra.s   over
    sub:    rts
    table:  dc.w    1, 2, 3, 4, 5
    over:   nop
        """
        program = assemble(source, origin=0x1000)
        blob = program.blob

        def fetch(addr):
            off = addr - 0x1000
            return (blob[off] << 8) | blob[off + 1]

        addr = 0x1000
        seen = []
        while addr < 0x1000 + program.symbols["table"] - 0x1000:
            text, length = disassemble_one(fetch, addr)
            assert not text.startswith("dc.w"), f"undecoded at {addr:#x}: {text}"
            seen.append(text)
            addr += length
        assert any("mulu" in t for t in seen)
        assert any("movem" in t for t in seen)
