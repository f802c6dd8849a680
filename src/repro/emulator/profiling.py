"""Profiling: opcode histograms and memory-reference traces.

The paper's modified POSE "track[s] and output[s] statistical execution
information such as opcodes and memory references ... we treated each
executed opcode as an index into an array, and incremented the
respective array element" (§2.4.2).  The profiler here does exactly
that, plus per-region reference accounting (RAM vs flash — the split
Table 1 reports) and the full reference trace the cache study reads.

Hot-path design: each reference is stored as **one** packed integer
``addr | (kind | region << 4) << 32`` appended to a plain Python list,
which is flushed wholesale into numpy ``uint64`` chunks every
:data:`TRACE_CHUNK` entries.  The flat per-(kind, region) counters are
*derived* from the chunk histograms instead of being incremented per
call — one ``list.append`` per reference.  The profiler is the one
reference recorder: consumers that want less (counts, one cache,
one region) filter its token stream downstream.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Tuple

import numpy as np

from ..device.memmap import (
    KIND_FETCH,
    KIND_READ,
    KIND_WRITE,
    REGION_CARD,
    REGION_FLASH,
    REGION_HW,
    REGION_RAM,
)

#: CPU cycles per reference, by region (§4.2: "The Dragonball
#: MC68VZ328 requires one cycle for RAM accesses and three cycles for
#: flash accesses").
T_RAM_CYCLES = 1
T_FLASH_CYCLES = 3

#: Pending packed references are flushed into a numpy chunk once the
#: list reaches this length (the block core appends fetch tokens in
#: batches, so the flush threshold is a floor, not an exact size).
TRACE_CHUNK = 65536

_MASK32 = 0xFFFFFFFF


def ref_mask_bit(kind: int, region: int) -> int:
    """The ``reference_pcs`` bitmask bit for a (kind, region) pair.

    Only data kinds are tracked: bit ``(kind - 1) * 4 + region`` with
    kind ∈ {READ, WRITE} and region ∈ {RAM, FLASH, HW, CARD} — eight
    bits total, reads in the low nibble, writes in the high nibble.
    """
    return 1 << (((kind - 1) << 2) | region)


def histogram_counts(hist: np.ndarray,
                     memory_only: bool = False) -> Dict[str, int]:
    """The ``{ram, flash, hw, fetch, read, write}`` totals of a
    256-bin histogram of packed kind bytes (``kind | region << 4``).
    ``memory_only`` drops hardware-register references first, which
    matches counting a ``ReferenceTrace.memory_only()`` view."""
    if memory_only:
        hist = hist.copy()
        hist[REGION_HW << 4:(REGION_HW << 4) + 16] = 0
    out = {}
    for region, name in [(REGION_RAM, "ram"), (REGION_FLASH, "flash"),
                         (REGION_HW, "hw")]:
        base = region << 4
        out[name] = int(hist[base:base + 16].sum())
    for kind, name in [(KIND_FETCH, "fetch"), (KIND_READ, "read"),
                       (KIND_WRITE, "write")]:
        out[name] = int(hist[kind::16].sum())
    return out


class Profiler:
    """Accumulates opcode counts and memory references.

    Attach with :meth:`repro.emulator.pose.Emulator.start_profiling`;
    the memory map feeds one call per bus-width reference and the CPU
    feeds one call per executed opcode.  Bulk paths append pre-packed
    tokens directly (``bulk_references``; ``TracedAccess`` byte runs
    and fused blocks) except under per-pc reference tracking, which
    needs the per-reference :meth:`reference` call.
    """

    def __init__(self, track_reference_pcs: bool = False):
        #: When enabled (and the per-address opcode hook is wired),
        #: every non-fetch reference is attributed to the pc of the
        #: instruction that caused it: ``reference_pcs[pc]`` is a
        #: bitmask of observed ``ref_mask_bit(kind, region)`` bits.
        #: The static region classifier cross-checks its per-insn
        #: predictions against this (see ``analysis.static.audit``).
        self.track_reference_pcs = track_reference_pcs
        self.reference_pcs: Dict[int, int] = {}
        self._current_pc = -1
        self.opcode_counts: array = array("Q", bytes(8 * 0x10000))
        #: Packed pending references; flushed into ``_chunks``.  The
        #: list object's identity is stable for the process lifetime —
        #: fast paths bind ``_pending.append`` directly.
        self._pending: List[int] = []
        self._chunks: List[np.ndarray] = []
        self._chunk_counts = np.zeros(256, dtype=np.uint64)
        self.instructions = 0
        #: pc -> opcode word for every executed instruction address,
        #: filled only when the per-address hook is wired (see
        #: :meth:`repro.emulator.pose.Emulator.start_profiling`).  The
        #: static analyzer cross-checks this against its CFG: a pc the
        #: walker never discovered is a decoder or walker bug.
        self.opcode_addresses: Dict[int, int] = {}
        #: Optional streaming trace sink (a PTRC ``ContainerWriter``):
        #: every flushed chunk is appended to it during replay.  With
        #: ``spill`` the chunks are *not* kept in RAM afterwards — the
        #: container on disk becomes the only copy, and the in-RAM
        #: trace accessors refuse to run (see ``attach_trace_sink``).
        self._trace_sink = None
        self._trace_spill = False
        self._spilled_tokens = 0
        if not track_reference_pcs:
            # Shadow the general methods with specialised closures:
            # this is the replay hot path (one append per reference).
            self.reference, self.reference_pair = (  # type: ignore[method-assign]
                self._make_fast_reference())

    # -- hooks ---------------------------------------------------------
    def reference(self, addr: int, kind: int, region: int) -> None:
        self._pending.append((addr & _MASK32) | ((kind | (region << 4)) << 32))
        if len(self._pending) >= TRACE_CHUNK:
            self._flush_trace()
        if self.track_reference_pcs and kind != KIND_FETCH \
                and self._current_pc >= 0:
            # Opcode-word fetches happen *before* the per-pc hook runs
            # and are excluded by the kind test above, so everything
            # recorded here is a data reference of ``_current_pc``.
            self.reference_pcs[self._current_pc] = \
                self.reference_pcs.get(self._current_pc, 0) \
                | ref_mask_bit(kind, region)

    def reference_pair(self, addr: int, kind: int, region: int) -> None:
        """The two consecutive bus-width references of one 32-bit
        access, exactly as two :meth:`reference` calls would record
        them (the bus folds them into one call on its hot paths)."""
        self.reference(addr, kind, region)
        self.reference(addr + 2, kind, region)

    def _make_fast_reference(self):
        """The tracing hot path as a closure over locals.  Semantics are
        identical to the general method without per-pc tracking."""
        pending = self._pending
        append = pending.append
        flush = self._flush_trace

        def reference(addr: int, kind: int, region: int) -> None:
            append((addr & _MASK32) | ((kind | (region << 4)) << 32))
            if len(pending) >= TRACE_CHUNK:
                flush()

        def reference_pair(addr: int, kind: int, region: int) -> None:
            # Identical to two reference() calls: the flush boundary
            # may shift by one token, but the recorded byte stream and
            # derived counts are unchanged (chunking is unobservable).
            kb = (kind | (region << 4)) << 32
            append((addr & _MASK32) | kb)
            append(((addr + 2) & _MASK32) | kb)
            if len(pending) >= TRACE_CHUNK:
                flush()

        return reference, reference_pair

    def bulk_references(self, chunk: np.ndarray) -> None:
        """Append a pre-packed uint64 token block wholesale (the fused
        replay core's vectorized fill path).  Equivalent to one
        :meth:`reference` call per element: chunk boundaries are
        unobservable in the recorded stream and the derived counts.
        It attributes nothing to pcs, so callers skip it under
        ``track_reference_pcs``."""
        self._flush_trace()
        self._store_chunk(chunk)

    def _flush_trace(self) -> None:
        pending = self._pending
        if not pending:
            return
        chunk = np.array(pending, dtype=np.uint64)
        del pending[:]
        self._store_chunk(chunk)

    def _store_chunk(self, chunk: np.ndarray) -> None:
        sink = self._trace_sink
        if sink is not None:
            sink.append_tokens(chunk)
        if sink is not None and self._trace_spill:
            self._spilled_tokens += len(chunk)
        else:
            self._chunks.append(chunk)
        kinds = (chunk >> np.uint64(32)).astype(np.uint8)
        self._chunk_counts += np.bincount(
            kinds, minlength=256).astype(np.uint64)

    # -- streaming access ----------------------------------------------
    def attach_trace_sink(self, sink, spill: bool = False) -> None:
        """Stream the trace into ``sink`` (a PTRC ``ContainerWriter``)
        as it is recorded.  Chunks already buffered are pushed first,
        so the sink always holds the whole trace from reference zero.

        With ``spill`` the profiler stops keeping chunks in RAM — the
        replay runs in bounded memory however long the session is, and
        the container becomes the only copy of the trace (the in-RAM
        accessors :meth:`reference_trace`/:meth:`trace_bytes` then
        raise; resilient replays keep ``spill=False`` because PRCKPT01
        checkpoints serialize the in-RAM trace).
        """
        self._flush_trace()
        for chunk in self._chunks:
            sink.append_tokens(chunk)
        self._trace_sink = sink
        self._trace_spill = spill
        if spill:
            self._spilled_tokens += sum(len(c) for c in self._chunks)
            self._chunks = []

    def flush_trace_sink(self) -> None:
        """Push any still-buffered references through to the attached
        sink.  Call once after the replay finishes and before closing
        the container — the hot path batches tokens, so the final
        partial batch is only in the sink after this."""
        self._flush_trace()

    def _require_in_ram(self) -> None:
        if self._spilled_tokens:
            raise RuntimeError(
                "the trace was spilled to its container sink "
                "(attach_trace_sink(spill=True)); re-open the PTRC "
                "container to read it")

    def chunks(self):
        """Iterate the packed uint64 trace chunk by chunk, without
        concatenating (the streaming counterpart of
        :meth:`reference_trace` — peak memory stays one chunk)."""
        self._require_in_ram()
        self._flush_trace()
        yield from self._chunks

    def cache_chunks(self, memory_only: bool = True):
        """``(addresses, writes)`` pairs per chunk for the out-of-core
        cache kernels, hardware references dropped by default."""
        from ..traces.container import cache_chunks
        return cache_chunks(self.chunks(), memory_only=memory_only)

    def counts_dict(self, memory_only: bool = False) -> Dict[str, int]:
        """``ReferenceTrace.counts()`` without materializing the trace
        (derived from the flat counters).  ``memory_only`` excludes
        hardware references, matching
        ``reference_trace().memory_only().counts()``."""
        return histogram_counts(self._counts_snapshot(), memory_only)

    def _counts_snapshot(self) -> np.ndarray:
        """The 256 flat counters as a uint64 array, derived from the
        trace (spilled chunks included)."""
        out = self._chunk_counts.copy()
        if self._pending:
            kinds = (np.array(self._pending, dtype=np.uint64)
                     >> np.uint64(32)).astype(np.uint8)
            out += np.bincount(kinds, minlength=256).astype(np.uint64)
        return out

    def opcode(self, op: int) -> None:
        self.opcode_counts[op] += 1
        self.instructions += 1

    def opcode_at(self, pc: int, op: int) -> None:
        """Per-address variant of :meth:`opcode` for the static/dynamic
        cross-check; ``pc`` is the address of the opcode word itself."""
        self.opcode_counts[op] += 1
        self.instructions += 1
        self.opcode_addresses[pc] = op
        self._current_pc = pc

    def detach_pc(self) -> None:
        """Stop attributing references to the last opcode (wired to the
        CPU's ``interrupt_hook``: an interrupt's exception-frame pushes
        belong to no instruction)."""
        self._current_pc = -1

    # -- aggregate statistics ---------------------------------------------
    @property
    def counts(self) -> Dict[tuple, int]:
        """The reference counters as the historical ``(kind, region) ->
        count`` mapping (derived from the flat array; zero entries are
        omitted, as the dict-based implementation never created them)."""
        return {(i & 0x0F, i >> 4): int(n)
                for i, n in enumerate(self._counts_snapshot()) if n}

    def _region_total(self, region: int) -> int:
        base = region << 4
        return int(self._counts_snapshot()[base:base + 16].sum())

    @property
    def ram_refs(self) -> int:
        return self._region_total(REGION_RAM)

    @property
    def flash_refs(self) -> int:
        return self._region_total(REGION_FLASH)

    @property
    def hw_refs(self) -> int:
        return self._region_total(REGION_HW)

    @property
    def total_refs(self) -> int:
        return int(self._counts_snapshot().sum())

    def _kind_total(self, kind: int) -> int:
        return int(self._counts_snapshot()[kind::16].sum())

    @property
    def fetch_refs(self) -> int:
        return self._kind_total(KIND_FETCH)

    @property
    def read_refs(self) -> int:
        return self._kind_total(KIND_READ)

    @property
    def write_refs(self) -> int:
        return self._kind_total(KIND_WRITE)

    def average_memory_cycles(self) -> float:
        """Equation 3: average effective memory access time without a
        cache, in cycles per reference."""
        snapshot = self._counts_snapshot()
        ram = int(snapshot[:16].sum())      # registers behave like RAM
        ram += int(snapshot[REGION_HW << 4:(REGION_HW << 4) + 16].sum())
        flash = int(snapshot[REGION_FLASH << 4:(REGION_FLASH << 4) + 16].sum())
        flash += int(snapshot[REGION_CARD << 4:(REGION_CARD << 4) + 16].sum())
        total = ram + flash
        if total == 0:
            return 0.0
        return (ram * T_RAM_CYCLES + flash * T_FLASH_CYCLES) / total

    # -- the reference trace -------------------------------------------------
    def _packed_trace(self) -> np.ndarray:
        """All trace entries as one packed uint64 array (materializes;
        streaming consumers should iterate :meth:`chunks` instead)."""
        self._require_in_ram()
        self._flush_trace()
        if not self._chunks:
            return np.empty(0, dtype=np.uint64)
        if len(self._chunks) == 1:
            return self._chunks[0]
        merged = np.concatenate(self._chunks)
        # Re-consolidate so repeated stats calls stay O(1) chunks.
        self._chunks = [merged]
        return merged

    def reference_trace(self) -> "ReferenceTrace":
        packed = self._packed_trace()
        return ReferenceTrace(
            addresses=(packed & np.uint64(_MASK32)).astype(np.uint32),
            kinds=(packed >> np.uint64(32)).astype(np.uint8),
        )

    # -- checkpoint serialization ---------------------------------------
    # The resilience checkpoints (PRCKPT01) store the trace as two
    # sections (the counters derive from it); these methods own their
    # byte layout so the container stays byte-identical no matter how
    # the profiler buffers its data internally (and across replay
    # cores).
    def trace_bytes(self) -> Tuple[bytes, bytes]:
        """The reference trace as (addresses, kinds) byte strings —
        native uint32 addresses and uint8 packed kinds, exactly the
        historical ``prof_addr``/``prof_kind`` checkpoint sections."""
        packed = self._packed_trace()
        return ((packed & np.uint64(_MASK32)).astype(np.uint32).tobytes(),
                (packed >> np.uint64(32)).astype(np.uint8).tobytes())

    def restore_trace(self, addr_blob: bytes, kind_blob: bytes) -> None:
        addrs = np.frombuffer(addr_blob, dtype=np.uint32).astype(np.uint64)
        kinds = np.frombuffer(kind_blob, dtype=np.uint8)
        packed = addrs | (kinds.astype(np.uint64) << np.uint64(32))
        del self._pending[:]
        self._chunks = [packed] if len(packed) else []
        self._chunk_counts = np.bincount(
            kinds, minlength=256).astype(np.uint64)

    # -- opcode statistics -----------------------------------------------------
    def top_opcodes(self, n: int = 10) -> list[tuple[int, int]]:
        """The ``n`` most-executed opcode words as (opcode, count)."""
        counts = np.frombuffer(self.opcode_counts, dtype=np.uint64)
        n = min(n, counts.size)
        if n <= 0:
            return []
        # Partition out the top-n slice, then sort only that slice —
        # O(N + n log n) instead of a full 65536-entry argsort.
        top = np.argpartition(counts, counts.size - n)[counts.size - n:]
        order = top[np.argsort(counts[top])][::-1]
        return [(int(op), int(counts[op])) for op in order if counts[op]]

    def top_traps(self, n: int = 10) -> list[tuple[int, int]]:
        """The ``n`` most-executed A-line trap numbers as
        (trap, count).  The opcode histogram's 0xA000-0xAFFF rows are
        folded by ``op & 0x1FF`` — the trap-number decode both
        dispatch paths share."""
        counts = np.frombuffer(self.opcode_counts,
                               dtype=np.uint64)[0xA000:0xB000]
        by_trap = counts.reshape(8, 512).sum(axis=0)
        n = min(n, by_trap.size)
        if n <= 0:
            return []
        top = np.argpartition(by_trap, by_trap.size - n)[by_trap.size - n:]
        order = top[np.argsort(by_trap[top])][::-1]
        return [(int(t), int(by_trap[t])) for t in order if by_trap[t]]

    def opcode_histogram(self) -> np.ndarray:
        return np.frombuffer(self.opcode_counts, dtype=np.uint64).copy()


class ReferenceTrace:
    """A memory-reference trace as parallel numpy arrays.

    ``kinds`` packs the access kind in the low nibble and the region in
    the high nibble; helpers below unpack.
    """

    def __init__(self, addresses: np.ndarray, kinds: np.ndarray):
        self.addresses = addresses
        self.kinds = kinds

    def __len__(self) -> int:
        return len(self.addresses)

    @property
    def kind(self) -> np.ndarray:
        return self.kinds & 0x0F

    @property
    def region(self) -> np.ndarray:
        return self.kinds >> 4

    @property
    def is_write(self) -> np.ndarray:
        return (self.kinds & 0x0F) == KIND_WRITE

    def memory_only(self) -> "ReferenceTrace":
        """Drop hardware-register references (not cacheable)."""
        mask = self.region != REGION_HW
        return ReferenceTrace(self.addresses[mask], self.kinds[mask])

    def counts(self) -> dict:
        # One histogram over the packed bytes; region and kind totals
        # are nibble slices of it (six full passes before).  Chunked so
        # the uint8 histogram never needs the whole kinds array resident
        # at once on views of very large traces.
        packed = np.zeros(256, dtype=np.int64)
        for _addrs, kinds in self.chunks():
            packed += np.bincount(kinds, minlength=256)
        return histogram_counts(packed)

    # -- streaming access ----------------------------------------------
    def chunks(self, chunk_tokens: int = TRACE_CHUNK):
        """Iterate ``(addresses, kinds)`` view pairs in windows of
        ``chunk_tokens`` references — no copies, so consumers that
        stream (PTRC writers, the out-of-core kernels) never double
        the trace's memory footprint."""
        n = len(self.addresses)
        for start in range(0, n, chunk_tokens):
            yield (self.addresses[start:start + chunk_tokens],
                   self.kinds[start:start + chunk_tokens])

    def cache_chunks(self, memory_only: bool = True,
                     chunk_tokens: int = TRACE_CHUNK):
        """``(addresses, writes)`` pairs per window for the out-of-core
        cache kernels (hardware references dropped by default)."""
        from ..traces.container import cache_pairs
        return cache_pairs(self.chunks(chunk_tokens), memory_only)
