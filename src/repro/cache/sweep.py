"""Configuration sweeps: the paper's 56-cache-configuration study.

§4.2: "We simulated 56 different cache configurations by varying the
cache size, line size and associativity.  The LRU replacement policy
was used in every configuration."  The grid is seven sizes (1–64 KB) x
two line sizes (16/32 B) x four associativities (1/2/4/8), and the
sweep exploits the LRU stack property to simulate each
(line size, set count) family in a single pass.
"""

from __future__ import annotations

import functools
import os
import traceback
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import kernels
from .cache import CacheConfig
from .hierarchy import RegionMix
from .kernels import to_line_addresses

PAPER_SIZES = [1024 << i for i in range(7)]       # 1 KB .. 64 KB
PAPER_LINE_SIZES = [16, 32]
PAPER_ASSOCIATIVITIES = [1, 2, 4, 8]


def paper_configurations() -> List[CacheConfig]:
    """The 56 configurations of Figures 5 and 6."""
    return [
        CacheConfig(size=size, line_size=line, associativity=assoc)
        for line in PAPER_LINE_SIZES
        for size in PAPER_SIZES
        for assoc in PAPER_ASSOCIATIVITIES
    ]


@dataclass
class SweepPoint:
    """One configuration's results.

    ``writebacks``/``write_throughs`` stay zero for the read-only grid
    passes and are filled by the write-aware sweeps.
    """

    config: CacheConfig
    accesses: int
    misses: int
    writebacks: int = 0
    write_throughs: int = 0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def effective_access_time(self, mix: RegionMix) -> float:
        return mix.cached_time(self.miss_rate)


# ----------------------------------------------------------------------
# Parallel sweep engine
# ----------------------------------------------------------------------
#
# Work units are either whole (line size, set count) families of the
# paper grid (one stack pass each) or individual ablation
# configurations.  The units are dealt round-robin into one share per
# process: the in-process loop holds them all, and with ``jobs > 1``
# each forked worker holds one share.  A process reads its chunk source
# (the PTRC container or archive off disk, or the in-RAM trace as a
# single chunk) once per line size of its grid families, and every
# chunk feeds all the stack passes of that line size; an ablation
# configuration reads the source on its own.  Every pass goes through a
# public kernel entry point (``kernel_misses_by_associativity`` per
# line size, ``simulate_auto`` per configuration), so profilers that
# time those entry points see all of the sweep's simulation work.  The
# source is set in the parent before the pool forks, so workers
# inherit it copy-on-write instead of receiving pickled copies.
# Results go back to their unit's position, so the returned list is
# identical for any job count, including the serial loop.

#: The trace the workers read, set by :func:`_run_units`.
_SOURCE: dict = {}

#: First element of a worker's in-band error report (see :func:`_guard`).
_ERROR_SENTINEL = "__sweep-worker-error__"


class SweepWorkerError(RuntimeError):
    """A sweep worker failed: it raised, was killed, or exceeded the
    timeout on its share of units.

    Deliberately a ``RuntimeError``: :func:`_run_units` falls back to
    the serial loop on ``ValueError`` from pool setup, and a worker's
    *computation* failing must never be mistaken for the *fan-out
    machinery* being unavailable.
    """


def _guard(fn, share):
    """Run one share of work units, converting any failure into an
    in-band error report instead of letting it propagate through the
    pool.

    A raw exception crossing the pool boundary aborts the pool's
    iterator wholesale and (for exotic exception types) can fail to
    unpickle; the sentinel tuple always travels, and the parent
    re-raises it as a typed :class:`SweepWorkerError` naming the share.
    """
    try:
        return fn(share)
    except KeyboardInterrupt:
        raise
    except BaseException as exc:  # noqa: BLE001 - report crosses a process
        return (_ERROR_SENTINEL, type(exc).__name__, str(exc),
                traceback.format_exc(limit=6))


def _check_result(result, share) -> object:
    if (isinstance(result, tuple) and len(result) == 4
            and result[0] == _ERROR_SENTINEL):
        _, name, message, trace = result
        raise SweepWorkerError(
            f"sweep worker failed on its share of units {share!r}: "
            f"{name}: {message}\n{trace}")
    return result


def _source_chunks():
    """The sweep's trace as ``(addresses, writes)`` chunks: streamed
    from the container with bounded memory, or the in-RAM arrays as
    one chunk."""
    container = _SOURCE["container"]
    if container is None:
        yield _SOURCE["addresses"], _SOURCE["writes"]
        return
    from ..traces.container import open_chunk_source

    src = open_chunk_source(container)
    try:
        yield from src.cache_chunks(memory_only=_SOURCE["memory_only"])
    finally:
        if hasattr(src, "close"):
            src.close()


def _grid_share(units: List[Tuple[int, int, Tuple[int, ...]]]):
    """Paper-grid units, each one (line size, set count) family whose
    associativities share one stack pass.  The families of one line
    size run in one :func:`kernels.kernel_misses_by_associativity`
    call over one read of the source, so each chunk is decoded, mapped
    to lines and run-collapsed once per line size.  Returns one
    ``(total_refs, misses)`` per unit, in order."""
    by_line: Dict[int, List[int]] = {}
    for index, (line, _sets, _assocs) in enumerate(units):
        by_line.setdefault(line, []).append(index)
    results: List = [None] * len(units)
    for line, indexes in by_line.items():
        total = 0

        def line_chunks():
            nonlocal total
            for addresses, _writes in _source_chunks():
                total += len(addresses)
                yield to_line_addresses(addresses, line)

        misses = kernels.kernel_misses_by_associativity(
            line_chunks(), [units[i][1] for i in indexes],
            [units[i][2] for i in indexes])
        for index, family_misses in zip(indexes, misses):
            results[index] = (total, family_misses)
    return results


def _config_share(configs: List[CacheConfig]):
    """Ablation units, each one full configuration (any policy) through
    :func:`kernels.simulate_auto` over its own read of the source.
    Returns one ``(accesses, misses, writebacks, write_throughs)`` per
    configuration, in order."""
    results = []
    for config in configs:
        stats = kernels.simulate_auto(_source_chunks(), config)
        results.append((stats.accesses, stats.misses, stats.writebacks,
                        stats.write_throughs))
    return results


def _grid_units(sizes, line_sizes, associativities):
    """The (line, num_sets) families of the grid plus the config list
    each family covers."""
    units = []
    for line in line_sizes:
        by_sets: Dict[int, List[CacheConfig]] = {}
        for size in sizes:
            for assoc in associativities:
                if size < line * assoc:
                    continue
                config = CacheConfig(size=size, line_size=line,
                                     associativity=assoc)
                by_sets.setdefault(config.num_sets, []).append(config)
        for num_sets, family in sorted(by_sets.items()):
            assocs = tuple(sorted({c.associativity for c in family}))
            units.append(((line, num_sets, assocs), family))
    return units


def _run_units(worker, units, jobs: int, addresses: Optional[np.ndarray],
               writes: Optional[np.ndarray],
               chunk_timeout: Optional[float] = None,
               container: Optional[str] = None,
               memory_only: bool = True) -> List:
    """Deal ``units`` round-robin into one share per process and run
    ``worker`` on each share: with ``jobs > 1`` in a pool of up to
    ``jobs`` forked processes (one per share, so a single unit still
    runs in a worker and is timed), else all of them as one share
    in-process.  ``worker`` maps a list of units to a list of results;
    the results come back in unit order.

    The workers' chunk source is ``container`` when set, else the
    in-RAM ``addresses``/``writes``; it is published in :data:`_SOURCE`
    before the fork and cleared on every exit path.  The serial loop
    runs on ``jobs <= 1`` and whenever a fork pool cannot be created.
    A worker that raises surfaces as a typed :class:`SweepWorkerError`;
    with ``chunk_timeout`` set, so does a worker that takes longer than
    that many seconds on its share (the way a SIGKILLed worker shows
    up: its share simply never finishes, because ``Pool`` respawns the
    process but the task is lost).
    """
    units = list(units)
    if not units:
        return []
    processes = max(1, min(jobs, len(units)))
    shares = [units[i::processes] for i in range(processes)]
    _SOURCE.update(addresses=addresses, writes=writes, container=container,
                   memory_only=memory_only)
    try:
        pool = None
        if jobs > 1:
            try:
                import multiprocessing

                pool = multiprocessing.get_context("fork").Pool(processes)
            except (ImportError, OSError, ValueError):
                pass  # no fork: run the serial loop
        if pool is None:
            return _check_result(_guard(worker, units), units)
        results: List = [None] * len(units)
        with pool:
            # imap (not map): per-share collection makes a timeout
            # possible at all — map would block forever on a share
            # whose worker was killed.
            it = pool.imap(functools.partial(_guard, worker), shares,
                           chunksize=1)
            for index, share in enumerate(shares):
                try:
                    result = it.next(chunk_timeout)
                except multiprocessing.TimeoutError:
                    raise SweepWorkerError(
                        f"sweep worker exceeded the {chunk_timeout:g}s "
                        f"chunk timeout on its share of units {share!r} "
                        f"— worker killed or wedged") from None
                results[index::processes] = _check_result(result, share)
        return results
    finally:
        _SOURCE.clear()


def sweep_parallel(addresses: Optional[np.ndarray] = None,
                   writes: Optional[np.ndarray] = None,
                   configs: Optional[Sequence[CacheConfig]] = None,
                   jobs: int = 1,
                   sizes: Sequence[int] = PAPER_SIZES,
                   line_sizes: Sequence[int] = PAPER_LINE_SIZES,
                   associativities: Sequence[int] = PAPER_ASSOCIATIVITIES,
                   chunk_timeout: Optional[float] = None,
                   container: Union[str, "os.PathLike", None] = None,
                   memory_only: bool = True,
                   ) -> List[SweepPoint]:
    """The configuration sweep, fanned out over worker processes.

    Without ``configs`` this runs the paper grid: each (line size,
    set count) family is one work unit simulated in a single vectorized
    stack pass.  With ``configs`` each configuration is one unit
    through the batch kernels — any policy/write-mode mix, e.g. the
    ablation grid — and the returned points carry write-back/
    write-through counts.

    The units are dealt into one share per process (all of them for
    the in-process loop, one share per forked worker otherwise).  A
    process reads the trace once per line size for all the grid
    families of its share, and once per ablation configuration.  The
    trace
    is either in RAM (``addresses`` and an optional ``writes`` mask),
    which forked workers inherit copy-on-write, or a PTRC container
    file or archive directory (``container``), which each process
    streams chunk by chunk — resident memory stays bounded by the
    chunk decode window however large the archived trace is, and
    results are identical to the in-RAM sweep over the same
    references.  ``memory_only`` mirrors
    ``ReferenceTrace.memory_only()`` (drop hardware references).

    Result order is deterministic and independent of ``jobs``;
    ``jobs <= 1`` or an unavailable fork start method degrades
    gracefully to an in-process loop.  A failed worker raises
    :class:`SweepWorkerError` naming the units of its share;
    ``chunk_timeout`` bounds how long a forked worker may take on its
    whole share before the sweep gives up with the same error
    (catching killed/wedged workers).  The in-process loop is not
    timed.
    """
    if container is not None:
        if addresses is not None or writes is not None:
            raise ValueError(
                "pass either in-RAM arrays or container=, not both")
        container = os.fspath(container)
    else:
        if addresses is None:
            raise ValueError("pass addresses or container=")
        addresses = np.ascontiguousarray(addresses, dtype=np.uint32)
        if writes is not None:
            writes = np.ascontiguousarray(writes, dtype=bool)
            if len(writes) != len(addresses):
                raise ValueError("writes mask length != trace length")

    if configs is not None:
        results = _run_units(_config_share, list(configs), jobs,
                             addresses, writes, chunk_timeout,
                             container=container, memory_only=memory_only)
        return [SweepPoint(config=c, accesses=acc, misses=miss,
                           writebacks=wb, write_throughs=wt)
                for c, (acc, miss, wb, wt) in zip(configs, results)]

    units = _grid_units(sizes, line_sizes, associativities)
    results = _run_units(_grid_share, [u for u, _ in units], jobs,
                         addresses, writes, chunk_timeout,
                         container=container, memory_only=memory_only)
    points = [SweepPoint(config=config, accesses=total,
                         misses=misses[config.associativity])
              for (_, family), (total, misses) in zip(units, results)
              for config in family]
    points.sort(key=lambda p: (p.config.line_size, p.config.size,
                               p.config.associativity))
    return points


def grid_by_config(points: Sequence[SweepPoint]) -> Dict[tuple, SweepPoint]:
    return {(p.config.size, p.config.line_size, p.config.associativity): p
            for p in points}


def subsample_trace(addresses: np.ndarray, limit: int,
                    seed: Optional[int] = None) -> np.ndarray:
    """Truncate a trace for quick sweeps (contiguous prefix keeps the
    locality structure intact, unlike random sampling)."""
    if len(addresses) <= limit:
        return addresses
    if seed is None:
        return addresses[:limit]
    rng = np.random.default_rng(seed)
    start = int(rng.integers(0, len(addresses) - limit))
    return addresses[start:start + limit]
