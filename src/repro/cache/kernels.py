"""Vectorized cache-simulation kernels.

The reference :class:`repro.cache.cache.Cache` walks a trace one
address at a time through Python lists; these kernels produce the exact
same :class:`~repro.cache.cache.CacheStats` from whole-trace numpy
passes.  The design is *set-major*:

1.  Byte addresses are reduced to (set, tag) pairs and the trace is
    partitioned by set index with one stable sort.  References within a
    set keep their program order; references in different sets never
    interact, so any interleaving between sets is legal.
2.  Consecutive same-line references within a set are *run-collapsed*:
    after the first reference of a run the line is resident (the head
    allocates on a miss under write-allocate), and no other reference
    in the set can evict it before the run ends, so the tail of the run
    is a guaranteed hit in every configuration.  Only run heads are
    simulated; per-run write flags are aggregated for dirty tracking.
3.  The surviving run heads are re-ordered into *waves*: wave ``r``
    holds the ``r``-th run of every set that still has one.  Each wave
    touches each set at most once, so a whole wave is simulated with a
    handful of numpy operations on a dense ``(num_sets, assoc)`` state
    matrix — tag in the high bits, write-back dirty flag in bit 0.
4.  Waves shrink as short sets run dry.  Once a wave is narrower than
    ``TAIL_WIDTH`` the numpy call overhead dominates, so the few
    remaining (hot) sets are drained by a scalar per-set loop over the
    same packed state.

The packed state persists between calls, so a trace is simulated as a
*chunk stream*: :class:`ChunkedSimulator` and :class:`ChunkedDepthPass`
are the only engine, and the public entry points turn every input (an
ndarray, a plain list, an empty trace, or a chunk iterator such as
``TraceContainer.cache_chunks()``) into a stream before feeding it.  An
in-RAM trace is a one-chunk stream.

Supported: LRU and FIFO replacement, write-through and write-back,
write-allocate and no-write-allocate (the latter skips run collapsing,
since an unallocated write leaves the resident line in place).  Random
replacement consumes a Python ``random.Random`` stream per eviction and
stays on the scalar simulator; :func:`simulate_auto` hides the
difference.  Every kernel is differential-tested against the scalar
oracle in :mod:`repro.cache.oracle` for byte-for-byte equal statistics.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .cache import (
    Cache,
    CacheConfig,
    CacheStats,
    POLICY_FIFO,
    POLICY_LRU,
    WRITE_BACK,
)

#: Waves narrower than this are drained by the scalar tail loop.
TAIL_WIDTH = 24

#: Packed empty way: tag -1, dirty bit clear.
EMPTY = -2


class KernelUnsupported(ValueError):
    """The configuration needs the scalar reference simulator."""


def supports(config: CacheConfig) -> bool:
    """True if :func:`simulate` handles this configuration.

    Random replacement consumes a Python RNG stream per eviction and
    stays scalar — except direct-mapped caches, where the victim is
    forced and every replacement policy coincides.
    """
    return (config.policy in (POLICY_LRU, POLICY_FIFO)
            or config.associativity == 1)


# ----------------------------------------------------------------------
# Trace preparation
# ----------------------------------------------------------------------

def to_line_addresses(addresses: np.ndarray, line_size: int) -> np.ndarray:
    """Convert byte addresses to line numbers."""
    shift = line_size.bit_length() - 1
    return (np.asarray(addresses, dtype=np.uint32) >> shift).astype(np.uint32)


def _set_tag_split(addresses: np.ndarray, offset_bits: int, num_sets: int
                   ) -> Tuple[np.ndarray, np.ndarray]:
    set_bits = (num_sets - 1).bit_length()
    if addresses.dtype == np.uint32 and offset_bits + set_bits >= 2:
        # 32-bit device addresses: stay in narrow integers (the sort and
        # the wave ops are markedly faster than on int64).  The packed
        # way state stores ``tag << 1 | dirty``, so the tag must fit in
        # 30 bits — true whenever at least two address bits fold into
        # the line offset and set index.
        lines = addresses >> np.uint32(offset_bits)
        sets = (lines & np.uint32(num_sets - 1)).astype(np.int32)
        tags = (lines >> np.uint32(set_bits)).astype(np.int32)
    else:
        lines = addresses.astype(np.int64) >> offset_bits
        sets = (lines & (num_sets - 1)).astype(np.int32)
        tags = lines >> set_bits
    return sets, tags


def _precollapse(addresses: np.ndarray, writes: Optional[np.ndarray],
                 offset_bits: int, allocate: bool = True):
    """Drop references to the line the previous reference just touched.

    Under write-allocate the head of a same-line run leaves the line
    resident for the rest of the run (whatever the set), so the whole
    tail collapses and per-run write flags are OR-aggregated.  Without
    write-allocate only reads guarantee residency, so a reference is
    dropped only when it *and* its predecessor are reads — a read
    leaves its line resident in every configuration, and a dropped read
    carries no dirty information.  Returns
    ``(addresses, run_writes, collapsed)`` where ``collapsed`` counts
    removed guaranteed hits.
    """
    addresses = np.asarray(addresses)
    n = len(addresses)
    if n == 0:
        return addresses, writes, 0
    lines = addresses >> (np.uint32(offset_bits)
                          if addresses.dtype == np.uint32 else offset_bits)
    keep = np.empty(n, dtype=bool)
    keep[0] = True
    np.not_equal(lines[1:], lines[:-1], out=keep[1:])
    if not allocate and writes is not None:
        np.logical_or(keep[1:], writes[1:], out=keep[1:])
        np.logical_or(keep[1:], writes[:-1], out=keep[1:])
    idx = np.flatnonzero(keep)
    if len(idx) == n:
        return addresses, writes, 0
    if writes is None:
        run_writes = None
    elif allocate:
        run_writes = np.logical_or.reduceat(writes, idx)
    else:
        run_writes = writes[idx]  # dropped refs are all reads
    return addresses[idx], run_writes, n - len(idx)


def _sort_by_set(sets: np.ndarray, tags: np.ndarray,
                 writes: Optional[np.ndarray], num_sets: int):
    # With at most 2**16 sets the indexes sort as uint16 keys: numpy's
    # stable argsort radix-sorts 16-bit keys, in the same order.
    keys = sets.astype(np.uint16) if num_sets <= 1 << 16 else sets
    order = np.argsort(keys, kind="stable")
    return (sets[order], tags[order],
            None if writes is None else writes[order])


def _collapse_runs(sets: np.ndarray, tags: np.ndarray,
                   writes: Optional[np.ndarray], allocate: bool = True):
    """Collapse within-set runs of the same tag.

    Under write-allocate the whole tail of a run is a guaranteed hit
    and per-run write flags are OR-aggregated; without it only
    read-after-read references are dropped (see :func:`_precollapse`).
    Returns ``(sets, tags, run_writes, collapsed)`` where ``collapsed``
    is the number of guaranteed hits removed.
    """
    n = len(sets)
    if n == 0:
        return sets, tags, writes, 0
    head = np.empty(n, dtype=bool)
    head[0] = True
    np.not_equal(tags[1:], tags[:-1], out=head[1:])
    np.logical_or(head[1:], sets[1:] != sets[:-1], out=head[1:])
    if not allocate and writes is not None:
        np.logical_or(head[1:], writes[1:], out=head[1:])
        np.logical_or(head[1:], writes[:-1], out=head[1:])
    idx = np.flatnonzero(head)
    if len(idx) == n:
        return sets, tags, writes, 0
    if writes is None:
        run_writes = None
    elif allocate:
        run_writes = np.logical_or.reduceat(writes, idx)
    else:
        run_writes = writes[idx]  # dropped refs are all reads
    return sets[idx], tags[idx], run_writes, n - len(idx)


def _schedule_waves(sets: np.ndarray):
    """Order set-sorted run heads into waves.

    Returns ``(order, wave_bounds, group_start, group_len)`` where
    ``order`` re-indexes the run arrays so wave ``r`` occupies
    ``order[wave_bounds[r]:wave_bounds[r + 1]]``, and the group arrays
    describe each set's contiguous block in set-sorted order (for the
    scalar tail drain).
    """
    m = len(sets)
    new_group = np.empty(m, dtype=bool)
    new_group[0] = True
    np.not_equal(sets[1:], sets[:-1], out=new_group[1:])
    starts = np.flatnonzero(new_group)
    lens = np.diff(np.append(starts, m))
    # Rank of each run within its set.
    rank = np.arange(m, dtype=np.int64) - np.repeat(starts, lens)
    order = np.argsort(rank, kind="stable")
    wave_sizes = np.bincount(rank.astype(np.int64))
    bounds = np.concatenate(([0], np.cumsum(wave_sizes)))
    return order, bounds, starts, lens


# ----------------------------------------------------------------------
# Scalar tail drains (packed state, exact mirror of the wave updates)
# ----------------------------------------------------------------------

def _drain_lru(tags, writes, row, assoc, allocate, track_dirty):
    """Finish one set's run stream on a packed LRU row (MRU first)."""
    hits = 0
    writebacks = 0
    row = list(row)
    for i in range(len(tags)):
        t = int(tags[i])
        w = 0 if writes is None else int(writes[i])
        dirty = w if track_dirty else 0
        found = -1
        for depth in range(assoc):
            if row[depth] >> 1 == t:
                found = depth
                break
        if found >= 0:
            hits += 1
            packed = row.pop(found) | dirty
        else:
            if w and not allocate:
                continue
            victim = row.pop()
            writebacks += victim & 1
            packed = (t << 1) | dirty
        row.insert(0, packed)
    return hits, writebacks, row


def _drain_fifo(tags, writes, row, ptr, assoc, allocate, track_dirty):
    """Finish one set's run stream on a packed FIFO ring."""
    hits = 0
    writebacks = 0
    row = list(row)
    for i in range(len(tags)):
        t = int(tags[i])
        w = 0 if writes is None else int(writes[i])
        dirty = w if track_dirty else 0
        found = -1
        for depth in range(assoc):
            if row[depth] >> 1 == t:
                found = depth
                break
        if found >= 0:
            hits += 1
            row[found] |= dirty
        elif allocate or not w:
            victim = row[ptr]
            writebacks += victim & 1
            row[ptr] = (t << 1) | dirty
            ptr = (ptr + 1) % assoc
    return hits, writebacks, row, ptr


def _drain_depths(tags, row, assoc, hist):
    """Finish one set's run stream recording LRU hit depths."""
    cold = 0
    row = list(row)
    for i in range(len(tags)):
        t = int(tags[i])
        found = -1
        for depth in range(assoc):
            if row[depth] >> 1 == t:
                found = depth
                break
        if found >= 0:
            hist[found] += 1
            packed = row.pop(found)
        else:
            cold += 1
            row.pop()
            packed = t << 1
        row.insert(0, packed)
    return cold, row


# ----------------------------------------------------------------------
# Wave kernels
# ----------------------------------------------------------------------

def _run_waves(sets, tags, writes, state: np.ndarray, fifo: bool = False,
               write_back: bool = False, allocate: bool = True,
               depth_hist: Optional[np.ndarray] = None,
               tail_width: int = TAIL_WIDTH,
               fifo_ptr: Optional[np.ndarray] = None):
    """Simulate set-sorted run heads; returns (hits, writebacks).

    ``state`` is the packed ``(num_sets, assoc)`` way matrix, mutated in
    place; the defaults are an LRU, write-through, write-allocate cache.
    With ``depth_hist`` (LRU only) each hit also increments the
    histogram bucket of its stack depth.  ``fifo_ptr`` carries the
    per-set FIFO insertion pointers; passing it in (mutated in place)
    resumes replacement state across chunk boundaries.
    """
    assoc = state.shape[1]
    track_dirty = writes is not None and write_back
    order, bounds, group_start, group_len = _schedule_waves(sets)
    sets_w = sets[order]
    tags_w = tags[order]
    if writes is not None and (track_dirty or not allocate):
        # No-write-allocate changes hit/miss behaviour even when dirty
        # bits are not tracked (write-through).
        writes_w = writes[order].astype(state.dtype)
    else:
        writes_w = None

    if fifo_ptr is not None:
        ptr = fifo_ptr
    else:
        ptr = np.zeros(state.shape[0], dtype=np.int64) if fifo else None
    cols = np.arange(assoc, dtype=np.int64)
    # Source columns for the LRU rotation: element j takes old j-1 when
    # it sits at or above the touched depth, else stays.  Column 0 is
    # overwritten afterwards, so its source index just needs validity.
    cols_minus = np.maximum(cols - 1, 0)

    hits = 0
    writebacks = 0
    n_waves = len(bounds) - 1
    stop_wave = n_waves
    for r in range(n_waves):
        lo, hi = bounds[r], bounds[r + 1]
        if hi - lo < tail_width:
            stop_wave = r
            break
        s = sets_w[lo:hi]
        t = tags_w[lo:hi]
        rows = state[s]
        match = (rows >> 1) == t[:, None]
        hit = match.any(axis=1)
        hits += int(np.count_nonzero(hit))
        pos = match.argmax(axis=1)
        if depth_hist is not None:
            depth_hist += np.bincount(pos[hit], minlength=assoc)
        w = writes_w[lo:hi] if writes_w is not None else None
        if fifo:
            if track_dirty:
                hw = hit & (w != 0)
                if hw.any():
                    state[s[hw], pos[hw]] |= 1
            miss = ~hit
            if allocate or w is None:
                ins = miss
            else:
                ins = miss & (w == 0)
            sm = s[ins]
            if len(sm):
                pm = ptr[sm]
                victim = state[sm, pm]
                if track_dirty:
                    writebacks += int(np.count_nonzero(victim & 1))
                packed = t[ins] << 1
                if track_dirty:
                    packed |= w[ins]
                state[sm, pm] = packed
                ptr[sm] = (pm + 1) & (assoc - 1)
        else:
            if not allocate and w is not None:
                skip = ~hit & (w != 0)   # unallocated write: no change
                if skip.any():
                    keep = ~skip
                    s, t, hit, pos = s[keep], t[keep], hit[keep], pos[keep]
                    rows = rows[keep]
                    w = w[keep]
            pos = np.where(hit, pos, assoc - 1)
            packed = t << 1
            if track_dirty:
                front = np.take_along_axis(rows, pos[:, None], axis=1)[:, 0]
                writebacks += int(np.count_nonzero(~hit & (front & 1 == 1)))
                packed |= np.where(hit, front & 1, 0) | w
            shift = cols[None, :] <= pos[:, None]
            src = np.where(shift, cols_minus[None, :], cols[None, :])
            new_rows = np.take_along_axis(rows, src, axis=1)
            new_rows[:, 0] = packed
            state[s] = new_rows
    else:
        return hits, writebacks

    # Scalar drain of the sets still holding runs at stop_wave.
    remaining = np.flatnonzero(group_len > stop_wave)
    for g in remaining:
        start = group_start[g] + stop_wave
        end = group_start[g] + group_len[g]
        t_rest = tags[start:end]
        w_rest = None if writes_w is None else writes[start:end].astype(int)
        set_index = int(sets[start])
        row = state[set_index]
        if depth_hist is not None:
            cold, new_row = _drain_depths(t_rest, row, assoc, depth_hist)
            hits += len(t_rest) - cold
        elif fifo:
            h, wb, new_row, p = _drain_fifo(t_rest, w_rest, row,
                                            int(ptr[set_index]), assoc,
                                            allocate, track_dirty)
            hits += h
            writebacks += wb
            ptr[set_index] = p
        else:
            h, wb, new_row = _drain_lru(t_rest, w_rest, row, assoc,
                                        allocate, track_dirty)
            hits += h
            writebacks += wb
        state[set_index] = new_row
    return hits, writebacks


# ----------------------------------------------------------------------
# The engine: chunk streams with persistent state
# ----------------------------------------------------------------------

def as_chunks(trace, writes=None):
    """``trace`` as an iterable of chunks, each an address array or an
    ``(addresses, writes)`` pair.

    An iterator, or a list of arrays or pairs, already is a chunk
    stream; ``writes`` must then be ``None`` (the mask rides inside
    each pair).  Anything else is an in-RAM trace — an ndarray or a
    plain sequence of ints, possibly empty — and becomes a one-chunk
    stream.
    """
    if hasattr(trace, "__next__") or (
            isinstance(trace, (list, tuple)) and len(trace)
            and isinstance(trace[0], (np.ndarray, tuple))):
        if writes is not None:
            raise ValueError(
                "with a chunk iterator, pass writes inside each chunk "
                "as (addresses, writes) pairs")
        return trace
    return [trace if writes is None else (trace, writes)]


def _split_chunk(chunk):
    if isinstance(chunk, tuple):
        addresses, writes = chunk
        return np.asarray(addresses), writes
    return np.asarray(chunk), None


class ChunkedSimulator:
    """:func:`simulate` with cache state carried across chunk feeds.

    Produces the same ``CacheStats`` for every chunking of a trace.
    Two facts make that exact rather than approximate:

    *  The wave kernel's ``(num_sets, assoc)`` packed way matrix (plus
       the FIFO insertion pointers) *is* the cache's complete
       replacement state, so persisting it between chunks resumes the
       simulation mid-trace.
    *  Run collapsing is a pure optimization: a reference that would
       have collapsed into its predecessor's run is, when the run
       straddles a chunk boundary, simulated as a fresh run head
       instead — but its line is by construction resident at MRU (or
       anywhere, for FIFO) in its set, so it scores the same guaranteed
       hit, and the hit update (MRU rotation of the MRU entry, dirty-bit
       OR) is idempotent.  Stats and final state match exactly; only
       the operation count differs.

    Direct-mapped configurations run the general wave path, where
    every replacement policy coincides.
    """

    def __init__(self, config: CacheConfig, flush: bool = False,
                 tail_width: int = TAIL_WIDTH):
        if not supports(config):
            raise KernelUnsupported(
                f"no vectorized kernel for policy {config.policy!r}")
        self.config = config
        self.flush = flush
        self.tail_width = tail_width
        self._offset_bits = config.line_size.bit_length() - 1
        self._write_back = config.write_policy == WRITE_BACK
        self._state: Optional[np.ndarray] = None
        self._ptr: Optional[np.ndarray] = None
        self._accesses = 0
        self._hits = 0
        self._writebacks = 0
        self._write_throughs = 0

    def feed(self, addresses, writes=None) -> None:
        """Simulate the next chunk of the trace."""
        addresses = np.asarray(addresses)
        n = len(addresses)
        if n == 0:
            return
        config = self.config
        if writes is not None:
            writes = np.asarray(writes, dtype=bool)
            if len(writes) != n:
                raise ValueError("writes mask length != chunk length")
            if not self._write_back:
                self._write_throughs += int(np.count_nonzero(writes))
        if self._write_back and writes is None:
            # Dirty state from earlier chunks must keep being tracked
            # through write-free chunks, so the write-back path always
            # carries a mask (all-False is semantically writes=None).
            writes = np.zeros(n, dtype=bool)
        self._accesses += n
        allocate = config.write_allocate
        addresses, writes, collapsed = _precollapse(
            addresses, writes, self._offset_bits, allocate=allocate)
        sets, tags = _set_tag_split(addresses, self._offset_bits,
                                    config.num_sets)
        sets, tags, writes = _sort_by_set(sets, tags, writes,
                                          config.num_sets)
        sets, tags, writes, more = _collapse_runs(sets, tags, writes,
                                                  allocate=allocate)
        self._hits += collapsed + more
        if self._state is None:
            dtype = (tags.dtype if tags.dtype == np.int32 else np.int64)
            self._state = np.full(
                (config.num_sets, config.associativity), EMPTY, dtype=dtype)
            if config.policy == POLICY_FIFO and config.associativity > 1:
                self._ptr = np.zeros(config.num_sets, dtype=np.int64)
        elif tags.dtype != self._state.dtype:
            tags = tags.astype(self._state.dtype)
        track_dirty = writes is not None and self._write_back
        hits, writebacks = _run_waves(
            sets, tags,
            writes if (track_dirty or not allocate) else None,
            self._state, fifo=config.policy == POLICY_FIFO,
            write_back=self._write_back, allocate=allocate,
            tail_width=self.tail_width, fifo_ptr=self._ptr)
        self._hits += hits
        self._writebacks += writebacks

    def finish(self) -> CacheStats:
        """The accumulated stats (with the final flush, if requested).
        The simulator may keep being fed afterwards; ``finish`` only
        snapshots."""
        stats = CacheStats(accesses=self._accesses)
        stats.hits = self._hits
        stats.misses = self._accesses - self._hits
        stats.writebacks = self._writebacks
        stats.write_throughs = self._write_throughs
        if self.flush and self._write_back and self._state is not None:
            stats.writebacks += int((self._state & 1).sum())
        return stats

    def run(self, chunks) -> CacheStats:
        for chunk in chunks:
            addresses, writes = _split_chunk(chunk)
            self.feed(addresses, writes)
        return self.finish()


class ChunkedDepthPass:
    """:func:`lru_hit_depths` with stack state carried across chunks."""

    def __init__(self, num_sets: int, max_depth: int,
                 tail_width: int = TAIL_WIDTH):
        self.num_sets = num_sets
        self.max_depth = max_depth
        self.tail_width = tail_width
        self.hist = np.zeros(max_depth, dtype=np.int64)
        self._state: Optional[np.ndarray] = None
        self._total = 0

    def feed(self, line_addrs, repeats: int = 0) -> None:
        """Simulate the next chunk of line addresses.  ``repeats``
        counts references the caller already dropped from the chunk
        because each repeats the line just before it: they are depth-0
        hits in every set count."""
        line_addrs = np.asarray(line_addrs)
        n = len(line_addrs)
        self._total += n + repeats
        self.hist[0] += repeats
        if n == 0:
            return
        sets, tags = _set_tag_split(line_addrs, 0, self.num_sets)
        sets, tags, _ = _sort_by_set(sets, tags, None, self.num_sets)
        sets, tags, _, collapsed = _collapse_runs(sets, tags, None)
        self.hist[0] += collapsed
        if self._state is None:
            dtype = (tags.dtype if tags.dtype == np.int32 else np.int64)
            self._state = np.full((self.num_sets, self.max_depth), EMPTY,
                                  dtype=dtype)
        elif tags.dtype != self._state.dtype:
            tags = tags.astype(self._state.dtype)
        _run_waves(sets, tags, None, self._state, depth_hist=self.hist,
                   tail_width=self.tail_width)

    def finish(self) -> Tuple[np.ndarray, int]:
        cold = self._total - int(self.hist.sum())
        return self.hist, cold

    def misses(self, associativities: Sequence[int]) -> Dict[int, int]:
        """LRU miss counts so far for associativities up to
        ``max_depth`` (the LRU stack property)."""
        cumulative = np.cumsum(self.hist)
        return {assoc: int(self._total - cumulative[assoc - 1])
                for assoc in associativities}

    def run(self, chunks) -> Tuple[np.ndarray, int]:
        for chunk in chunks:
            self.feed(chunk)
        return self.finish()


# ----------------------------------------------------------------------
# Public entry points
# ----------------------------------------------------------------------

def simulate(addresses, config: CacheConfig, writes=None,
             flush: bool = False, tail_width: int = TAIL_WIDTH
             ) -> CacheStats:
    """Exact ``CacheStats`` of the scalar :class:`Cache` fed the same
    references (plus ``flush_dirty`` when ``flush`` is set).

    ``addresses`` is an in-RAM trace with an optional ``writes`` mask,
    or a chunk iterator such as ``TraceContainer.cache_chunks()``,
    simulated out of core (see :func:`as_chunks`).  Every chunking of
    a trace gives the same stats.

    Raises :class:`KernelUnsupported` for configurations only the
    scalar simulator handles (random replacement).
    """
    chunks = as_chunks(addresses, writes)
    return ChunkedSimulator(config, flush=flush,
                            tail_width=tail_width).run(chunks)


def simulate_auto(addresses, config: CacheConfig, writes=None,
                  flush: bool = False, rng_seed: int = 0) -> CacheStats:
    """:func:`simulate`, falling back to the scalar simulator for
    configurations without a kernel (random replacement).  The
    fallback streams the same chunks (``Cache.run`` is incremental)."""
    if supports(config):
        return simulate(addresses, config, writes=writes, flush=flush)
    cache = Cache(config, rng_seed=rng_seed)
    for chunk in as_chunks(addresses, writes):
        cache.run(*_split_chunk(chunk))
    if flush:
        cache.flush_dirty()
    return cache.stats


def lru_hit_depths(line_addrs: np.ndarray, num_sets: int, max_depth: int,
                   tail_width: int = TAIL_WIDTH
                   ) -> Tuple[np.ndarray, int]:
    """Per-set LRU stack depths of every hit, as ``(hist, cold)``.

    ``hist[d]`` counts hits at stack depth ``d`` (0 = most recently
    used) and ``cold`` counts references that miss at every depth
    below ``max_depth``.  One wave pass with ``max_depth`` ways yields
    the miss count of every associativity up to ``max_depth`` at once
    (the LRU stack property).  ``line_addrs`` is an in-RAM line trace
    or a chunk iterator of line-address arrays.
    """
    return ChunkedDepthPass(num_sets, max_depth,
                            tail_width=tail_width).run(as_chunks(line_addrs))


def kernel_misses_by_associativity(line_addrs: np.ndarray, num_sets,
                                   associativities):
    """LRU miss counts for several associativities sharing one set
    count, from one depth pass.  Accepts the same inputs as
    :func:`lru_hit_depths`.

    ``num_sets`` may also be a sequence of set counts, with
    ``associativities`` then holding one sequence of associativities
    per set count: these families share one read of ``line_addrs``.
    Each chunk drops its references to the line just before them once
    (depth-0 hits at every set count) and feeds every family's depth
    pass, and the result is one dict per family, in order."""
    if np.ndim(num_sets) == 0:
        return kernel_misses_by_associativity(
            line_addrs, [num_sets], [associativities])[0]
    passes = [ChunkedDepthPass(sets, max(assocs))
              for sets, assocs in zip(num_sets, associativities)]
    for chunk in as_chunks(line_addrs):
        heads, _, repeats = _precollapse(np.asarray(chunk), None, 0)
        for depth_pass in passes:
            depth_pass.feed(heads, repeats)
    return [depth_pass.misses(assocs)
            for depth_pass, assocs in zip(passes, associativities)]
