"""Scalar test oracles for the cache engine.

The production engine is the chunked wave kernel in
:mod:`repro.cache.kernels`; it is trusted only because it matches these
slow, obviously-correct passes byte for byte.  They walk the trace one
reference at a time through Python lists, exactly as the paper's single
LRU simulator does, and serve the differential tests and the
``stats_match`` gates of ``benchmarks/perf/run_bench.py``.  No other
module under ``repro`` may import this one.

The stack passes rest on the LRU stack property: for a fixed (line
size, set count), a reference that hits in an ``a``-way cache also hits
in every cache of higher associativity with the same sets.  Keeping one
LRU stack per set and recording the stack depth of each hit therefore
yields, in one pass over the trace, the miss count of every
associativity.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .cache import Cache, CacheConfig
from .kernels import to_line_addresses
from .sweep import (
    PAPER_ASSOCIATIVITIES,
    PAPER_LINE_SIZES,
    PAPER_SIZES,
    SweepPoint,
    _grid_units,
)


def collapse_consecutive(line_addrs: np.ndarray) -> Tuple[np.ndarray, int]:
    """Drop immediately-repeated line references.

    A reference to the line just touched hits in every cache with that
    line size, so only transitions need simulating.  Returns the
    collapsed array and the number of guaranteed hits removed.
    """
    if len(line_addrs) == 0:
        return line_addrs, 0
    keep = np.empty(len(line_addrs), dtype=bool)
    keep[0] = True
    np.not_equal(line_addrs[1:], line_addrs[:-1], out=keep[1:])
    collapsed = line_addrs[keep]
    return collapsed, int(len(line_addrs) - len(collapsed))


def lru_depth_histogram(line_addrs: np.ndarray, num_sets: int,
                        max_depth: int) -> Tuple[np.ndarray, int]:
    """One pass of per-set LRU stacks.

    Returns ``(hist, cold)`` where ``hist[d]`` counts hits at stack
    depth ``d`` (0 = most recently used) for depths below ``max_depth``
    and ``cold`` counts references that missed at every depth
    (capacity beyond ``max_depth`` ways, or compulsory).
    """
    set_mask = num_sets - 1
    tag_shift = num_sets.bit_length() - 1
    stacks: Dict[int, list] = {s: [] for s in range(num_sets)}
    hist = np.zeros(max_depth, dtype=np.int64)
    cold = 0
    for line in line_addrs:
        line = int(line)
        stack = stacks[line & set_mask]
        tag = line >> tag_shift
        try:
            depth = stack.index(tag)
        except ValueError:
            depth = -1
        if 0 <= depth < max_depth:
            hist[depth] += 1
            del stack[depth]
        else:
            cold += 1
            if depth >= 0:
                del stack[depth]
            if len(stack) >= max_depth:
                stack.pop()
        stack.insert(0, tag)
    return hist, cold


def misses_by_associativity(line_addrs: np.ndarray, num_sets: int,
                            associativities: Sequence[int]) -> Dict[int, int]:
    """Miss counts for several associativities in one pass.

    All requested associativities share (line size, set count); the
    total cache size is ``num_sets * line_size * assoc``.
    """
    max_assoc = max(associativities)
    hist, cold = lru_depth_histogram(line_addrs, num_sets, max_assoc)
    total = len(line_addrs)
    out = {}
    for assoc in associativities:
        hits = int(hist[:assoc].sum())
        out[assoc] = total - hits
    assert all(cold <= m for m in out.values())
    return out


def sweep_reference(addresses: np.ndarray,
                    configs: Sequence[CacheConfig],
                    writes: Optional[np.ndarray] = None
                    ) -> List[SweepPoint]:
    """Simulate each configuration independently on a scalar
    :class:`Cache`, with an optional ``writes`` mask (the points then
    carry write-back/write-through counts)."""
    points = []
    for config in configs:
        stats = Cache(config).run(addresses, writes)
        points.append(SweepPoint(config, stats.accesses, stats.misses,
                                 stats.writebacks, stats.write_throughs))
    return points


def sweep_grid(addresses: np.ndarray,
               sizes: Sequence[int] = PAPER_SIZES,
               line_sizes: Sequence[int] = PAPER_LINE_SIZES,
               associativities: Sequence[int] = PAPER_ASSOCIATIVITIES,
               ) -> List[SweepPoint]:
    """All size x line x associativity LRU configurations by scalar
    stack passes, in the order of ``sweep_parallel``: one pass per
    (line size, set count) family over the trace with consecutive
    same-line references collapsed (they hit in any cache of that line
    size)."""
    addresses = np.asarray(addresses, dtype=np.uint32)
    points: List[SweepPoint] = []
    for (line, num_sets, assocs), family in _grid_units(
            sizes, line_sizes, associativities):
        collapsed, _hits = collapse_consecutive(
            to_line_addresses(addresses, line))
        misses = misses_by_associativity(collapsed, num_sets, assocs)
        points += [SweepPoint(config=config, accesses=len(addresses),
                              misses=misses[config.associativity])
                   for config in family]
    points.sort(key=lambda p: (p.config.line_size, p.config.size,
                               p.config.associativity))
    return points
