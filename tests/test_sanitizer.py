"""Tests for the guest memory sanitizer: shadow encoding, heap
integration, the static elision prover, and one deterministic
regression test per defect class (exact address and severity)."""

import pytest

from repro.analysis.sanitizer import (
    A_BIT,
    D_BIT,
    MemorySanitizer,
    OK,
    ShadowMap,
    compute_elision,
)
from repro.analysis.sanitizer import corpus
from repro.analysis.sanitizer.elide import STACK_SLACK
from repro.analysis.static.dataflow import analyze_constprop
from repro.analysis.static.findings import Severity
from repro.analysis.static.walker import walk
from repro.m68k.asm import assemble
from repro.palmos import layout as L
from repro.palmos.kernel import PalmOS
from repro.palmos.traps import Trap


# ----------------------------------------------------------------------
# Shadow map
# ----------------------------------------------------------------------
class TestShadowMap:
    def test_everything_starts_ok(self):
        sh = ShadowMap(0x1000, 0x2000)
        assert sh.state(0x1000) == OK
        assert sh.state(0x1FFF) == OK

    def test_mark_and_query(self):
        sh = ShadowMap(0x1000, 0x2000)
        sh.mark_noaccess(0x1100, 0x10)
        sh.mark_undefined(0x1200, 0x10)
        assert sh.state(0x1100) == 0
        assert sh.state(0x1200) == A_BIT
        assert sh.state(0x1210) == OK

    def test_set_defined_preserves_noaccess(self):
        """A write into a red zone must not make it addressable."""
        sh = ShadowMap(0x1000, 0x2000)
        sh.mark_noaccess(0x1100, 4)
        sh.mark_undefined(0x1104, 4)
        sh.set_defined(0x1100, 8)
        assert sh.state(0x1100) == D_BIT          # still unaddressable
        assert sh.state(0x1104) == OK             # now defined

    def test_fill_clamps_to_window(self):
        sh = ShadowMap(0x1000, 0x1100)
        sh.mark_noaccess(0x0F00, 0x1000)          # spans the whole window
        assert sh.state(0x1000) == 0
        assert sh.state(0x10FF) == 0

    def test_first_missing(self):
        sh = ShadowMap(0x1000, 0x2000)
        sh.mark_undefined(0x1104, 2)
        assert sh.first_missing(0x1100, 8, OK) == 0x1104
        assert sh.first_missing(0x1104, 2, A_BIT) == 0x1104

    def test_wide_probe_at_window_end_is_safe(self):
        sh = ShadowMap(0x1000, 0x2000)
        raw = sh.raw
        off = 0x1FFF - 0x1000
        # The +4 padding keeps the widest access in range.
        assert raw[off] & raw[off + 1] & raw[off + 2] & raw[off + 3] is not None

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            ShadowMap(0x2000, 0x2000)


# ----------------------------------------------------------------------
# Defect corpus: one deterministic regression test per class
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def corpus_results():
    return {r.program.name: r for r in corpus.run_corpus()}


def _single_finding(result):
    assert len(result.findings) == 1, result.findings
    return result.findings[0]


class TestDefectCorpus:
    def test_oob_read(self, corpus_results):
        r = corpus_results["oob-read"]
        code, severity, address = _single_finding(r)
        assert code == "san-oob-read"
        assert severity == "ERROR"
        assert address == r.ptr + 32          # first byte past the payload

    def test_oob_write(self, corpus_results):
        r = corpus_results["oob-write"]
        code, severity, address = _single_finding(r)
        assert code == "san-oob-write"
        assert severity == "ERROR"
        assert address == r.ptr + 16

    def test_use_after_free(self, corpus_results):
        r = corpus_results["uaf"]
        code, severity, address = _single_finding(r)
        assert code == "san-uaf"
        assert severity == "ERROR"
        assert address == r.ptr

    def test_double_free(self, corpus_results):
        r = corpus_results["double-free"]
        code, severity, address = _single_finding(r)
        assert code == "san-double-free"
        assert severity == "ERROR"
        assert address == r.ptr

    def test_uninit_read(self, corpus_results):
        r = corpus_results["uninit-read"]
        code, severity, address = _single_finding(r)
        assert code == "san-uninit-read"
        assert severity == "WARNING"
        assert address == r.ptr

    def test_leak(self, corpus_results):
        r = corpus_results["leak"]
        code, severity, address = _single_finding(r)
        assert code == "san-leak"
        assert severity == "WARNING"
        assert address == r.ptr

    def test_clean_program_reports_nothing(self, corpus_results):
        assert corpus_results["clean"].findings == []

    def test_allocations_are_deterministic(self, corpus_results):
        """Baselines store absolute addresses; the heap walk must hand
        every program the same pointer on every run."""
        ptrs = {r.ptr for r in corpus_results.values()}
        assert len(ptrs) == 1
        assert ptrs.pop() == L.DYNAMIC_HEAP_BASE + L.CHUNK_HEADER_SIZE + 16

    def test_every_program_elides_something(self, corpus_results):
        for r in corpus_results.values():
            assert r.elision.proven_insns > 0
            assert r.san_stats["elided"] > 0

    def test_differential_elided_vs_full(self):
        assert corpus.differential() == []

    def test_baseline_round_trip(self, corpus_results):
        results = list(corpus_results.values())
        baseline = corpus.baseline_keys(results)
        assert corpus.new_findings_against(results, baseline) == []
        assert corpus.missing_classes(results) == []
        # A finding absent from the baseline is reported as new.
        baseline["oob-read"] = []
        fresh = corpus.new_findings_against(results, baseline)
        assert ("oob-read", "san-oob-read",
                results[0].ptr + 32) in fresh


# ----------------------------------------------------------------------
# Heap integration through the real trap path
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def sanitized_kernel():
    kernel = PalmOS(ram_size=2 << 20)
    kernel.boot()
    san = MemorySanitizer()
    san.attach(kernel)
    return kernel, san


class TestHeapIntegration:
    def test_red_zones_surround_payload(self, sanitized_kernel):
        kernel, san = sanitized_kernel
        ptr = kernel.call_trap(Trap.MemPtrNew, 32)
        assert ptr
        info = san.live[ptr]
        assert info.chunk == ptr - san.redzone
        # Front red zone, undefined payload, tail red zone.
        assert san._shadow.state(ptr - 1) == 0
        assert san._shadow.state(ptr) == A_BIT
        assert san._shadow.state(ptr + 32) == 0
        kernel.call_trap(Trap.MemPtrFree, ptr)

    def test_freed_chunk_is_quarantined_noaccess(self, sanitized_kernel):
        kernel, san = sanitized_kernel
        ptr = kernel.call_trap(Trap.MemPtrNew, 16)
        kernel.call_trap(Trap.MemPtrFree, ptr)
        assert ptr in san._quarantined
        assert san._shadow.state(ptr) == 0

    def test_double_free_returns_error_code(self, sanitized_kernel):
        kernel, san = sanitized_kernel
        ptr = kernel.call_trap(Trap.MemPtrNew, 16)
        assert kernel.call_trap(Trap.MemPtrFree, ptr) == 0
        before = len(san.report)
        err = kernel.call_trap(Trap.MemPtrFree, ptr)
        assert err != 0                      # ERR_MEM_INVALID_PTR
        assert len(san.report) == before + 1

    def test_mem_ptr_size_reports_requested_size(self, sanitized_kernel):
        kernel, san = sanitized_kernel
        ptr = kernel.call_trap(Trap.MemPtrNew, 40)
        # Red zones pad the chunk, but the guest-visible size is exact.
        assert kernel.call_trap(Trap.MemPtrSize, ptr) == 40
        kernel.call_trap(Trap.MemPtrFree, ptr)

    def test_kernel_writes_mark_defined(self, sanitized_kernel):
        kernel, san = sanitized_kernel
        ptr = kernel.call_trap(Trap.MemPtrNew, 8)
        assert san._shadow.state(ptr) == A_BIT
        # MemSet runs as kernel microcode: exempt from checking but the
        # bytes it writes become defined.
        kernel.call_trap(Trap.MemSet, ptr, 8, 0xAA)
        assert san._shadow.state(ptr) == OK
        kernel.call_trap(Trap.MemPtrFree, ptr)

    def test_quarantine_drains_under_pressure(self, sanitized_kernel):
        kernel, san = sanitized_kernel
        ptrs = [kernel.call_trap(Trap.MemPtrNew, 24) for _ in range(20)]
        for ptr in ptrs:
            kernel.call_trap(Trap.MemPtrFree, ptr)
        assert len(san._quarantined) <= san.quarantine_chunks


# ----------------------------------------------------------------------
# Static elision prover
# ----------------------------------------------------------------------
def _elision_of(source, heap_hi=0x200000):
    program = assemble(source, origin=0x14000)
    blob = program.image(0x14000, 0x100)

    def fetch(addr):
        off = addr - 0x14000
        return (blob[off] << 8) | blob[off + 1]

    end = 0x14000 + max(len(b) + a - 0x14000 for a, b in program.segments)
    cfg = walk(fetch, [0x14000], code_range=(0x14000, end))
    const = analyze_constprop(cfg, fetch)
    return compute_elision(cfg, const, heap_hi=heap_hi)


class TestElision:
    def test_stack_slot_proven(self):
        res = _elision_of("move.l d0,-(sp)\n rts")
        assert res.proven_insns == 1
        assert res.by_rule["stack"] == 1

    def test_const_outside_window_proven(self):
        res = _elision_of("move.l d0,$13ffc\n rts")
        assert res.proven_insns == 1
        assert res.by_rule["const"] == 1

    def test_const_inside_window_not_proven(self):
        res = _elision_of(f"move.l d0,${L.DYNAMIC_HEAP_BASE + 0x100:x}\n rts")
        assert res.proven_insns == 0
        assert res.candidate_insns == 1

    def test_unknown_base_not_proven(self):
        res = _elision_of("move.l (a0),d0\n rts")
        assert res.proven_insns == 0

    def test_deep_stack_offset_not_proven(self):
        # Beyond the slack the entry-A7 assumption no longer bounds it.
        deep = STACK_SLACK + 4
        res = _elision_of(f"lea -{deep}(sp),a1\n move.l d0,-{deep}(sp)\n rts")
        assert res.by_rule["stack"] == 0

    def test_pc_window_covers_extension_words(self):
        res = _elision_of("move.l d0,$13ffc\n rts")
        insn_addr = 0x14000
        # move.l d0,(xxx).l = opcode + two extension words (6 bytes):
        # pc sweeps [addr+2, addr+6] during execution.
        for pc in (insn_addr + 2, insn_addr + 4, insn_addr + 6):
            assert pc in res.safe_pcs
        assert insn_addr not in res.safe_pcs

    def test_attribution_maps_pc_to_insn(self):
        res = _elision_of("move.l d0,$13ffc\n rts")
        assert res.attribution[0x14002] == 0x14000
        assert res.attribution[0x14006] == 0x14000


# ----------------------------------------------------------------------
# Lifecycle
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_detach_restores_hooks(self):
        kernel = PalmOS(ram_size=2 << 20)
        kernel.boot()
        san = MemorySanitizer()
        san.attach(kernel)
        assert kernel.device.mem.san is san
        assert kernel.dyn_heap.san is san
        san.detach()
        assert kernel.device.mem.san is None
        assert kernel.dyn_heap.san is None
        assert kernel.sanitizer is None

    def test_double_attach_rejected(self):
        kernel = PalmOS(ram_size=2 << 20)
        kernel.boot()
        san = MemorySanitizer()
        san.attach(kernel)
        with pytest.raises(RuntimeError):
            san.attach(kernel)
        san.detach()

    def test_leak_check_only_flags_app_chunks(self):
        kernel = PalmOS(ram_size=2 << 20)
        kernel.boot()
        san = MemorySanitizer()
        san.attach(kernel)
        ptr = kernel.call_trap(Trap.MemPtrNew, 24)   # OWNER_APP
        report = san.detach()
        leaks = [f for f in report if f.code == "san-leak"]
        assert len(leaks) == 1
        assert leaks[0].address == ptr
        assert leaks[0].severity == Severity.WARNING
