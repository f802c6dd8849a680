"""Configuration sweeps: the paper's 56-cache-configuration study.

§4.2: "We simulated 56 different cache configurations by varying the
cache size, line size and associativity.  The LRU replacement policy
was used in every configuration."  The grid is seven sizes (1–64 KB) x
two line sizes (16/32 B) x four associativities (1/2/4/8), and the
sweep exploits the LRU stack property to simulate each
(line size, set count) family in a single pass.
"""

from __future__ import annotations

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
# Workers read one chunk source: the PTRC container (or archive)
# streamed off disk, or the in-RAM trace as a single chunk.  The source
# is set in the parent before the pool forks, so workers inherit it
# copy-on-write instead of receiving pickled copies.  Work units are
# either whole (line size, set count) families of the paper grid (one
# stack pass each) or individual ablation configurations.  Results are
# keyed by unit index, so assembly order — and therefore the returned
# list — is identical for any job count, including the serial loop.

#: The trace the workers read, set by :func:`_run_units`.
_SOURCE: dict = {}

#: First element of a worker's in-band error report (see :func:`_guard`).
_ERROR_SENTINEL = "__sweep-worker-error__"


class SweepWorkerError(RuntimeError):
    """A sweep worker failed: it raised, was killed, or exceeded the
    per-chunk timeout.

    Deliberately a ``RuntimeError``: :func:`_run_units` falls back to
    the serial loop on ``ValueError`` from pool setup, and a worker's
    *computation* failing must never be mistaken for the *fan-out
    machinery* being unavailable.
    """


def _guard(fn, unit):
    """Run one work unit, converting any failure into an in-band error
    report instead of letting it propagate through the pool.

    A raw exception crossing the pool boundary aborts ``Pool.map``
    wholesale and (for exotic exception types) can fail to unpickle;
    the sentinel tuple always travels, and the parent re-raises it as
    a typed :class:`SweepWorkerError` naming the unit.
    """
    try:
        return fn(unit)
    except KeyboardInterrupt:
        raise
    except BaseException as exc:  # noqa: BLE001 - report crosses a process
        return (_ERROR_SENTINEL, type(exc).__name__, str(exc),
                traceback.format_exc(limit=6))


def _check_result(result, unit) -> object:
    if (isinstance(result, tuple) and len(result) == 4
            and result[0] == _ERROR_SENTINEL):
        _, name, message, trace = result
        raise SweepWorkerError(
            f"sweep worker failed on unit {unit!r}: {name}: {message}\n"
            f"{trace}")
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


def _family_unit_impl(unit: Tuple[int, int, Tuple[int, ...]]):
    """Paper-grid unit: one (line size, set count) family, all
    associativities in a single vectorized stack pass.  Returns
    ``(total_refs, misses)``: the reference count comes from the same
    pass, so a streamed trace is decoded once."""
    line, num_sets, assocs = unit
    total = 0

    def line_chunks():
        nonlocal total
        for addresses, _writes in _source_chunks():
            total += len(addresses)
            yield to_line_addresses(addresses, line)

    misses = kernels.kernel_misses_by_associativity(
        line_chunks(), num_sets, list(assocs))
    return total, misses


def _config_unit_impl(config: CacheConfig) -> Tuple[int, int, int, int]:
    """Ablation unit: one full configuration (any policy) through the
    kernels, with the scalar simulator as automatic fallback."""
    stats = kernels.simulate_auto(_source_chunks(), config)
    return (stats.accesses, stats.misses, stats.writebacks,
            stats.write_throughs)


def _family_unit(unit):
    return _guard(_family_unit_impl, unit)


def _config_unit(config):
    return _guard(_config_unit_impl, config)


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
    """Map ``worker`` over ``units`` with ``jobs`` forked processes, or
    serially in-process.

    The workers' chunk source is ``container`` when set, else the
    in-RAM ``addresses``/``writes``; it is published in :data:`_SOURCE`
    before the fork and cleared on every exit path.  The serial loop
    runs on ``jobs <= 1`` and whenever a fork pool cannot be created.
    A worker that raises surfaces as a typed :class:`SweepWorkerError`;
    with ``chunk_timeout`` set, so does a worker that takes longer than
    that many seconds on one unit (the way a SIGKILLed worker shows up:
    its unit simply never finishes, because ``Pool`` respawns the
    process but the task is lost).
    """
    units = list(units)
    _SOURCE.update(addresses=addresses, writes=writes, container=container,
                   memory_only=memory_only)
    try:
        pool = None
        if jobs > 1:
            try:
                import multiprocessing

                pool = multiprocessing.get_context("fork").Pool(jobs)
            except (ImportError, OSError, ValueError):
                pass  # no fork: run the serial loop
        if pool is None:
            return [_check_result(worker(u), u) for u in units]
        with pool:
            # imap (not map): per-unit collection makes a per-chunk
            # timeout possible at all — map would block forever on a
            # unit whose worker was killed.
            it = pool.imap(worker, units, chunksize=1)
            results = []
            for index, unit in enumerate(units):
                try:
                    result = it.next(chunk_timeout)
                except multiprocessing.TimeoutError:
                    raise SweepWorkerError(
                        f"sweep worker exceeded the {chunk_timeout:g}s "
                        f"chunk timeout on unit {index} "
                        f"({unit!r}) — worker killed or wedged"
                    ) from None
                results.append(_check_result(result, unit))
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

    The trace is either in RAM (``addresses`` and an optional
    ``writes`` mask), which forked workers inherit copy-on-write, or a
    PTRC container file or archive directory (``container``), which
    each worker streams chunk by chunk — resident memory stays bounded
    by the chunk decode window however large the archived trace is,
    and results are identical to the in-RAM sweep over the same
    references.  ``memory_only`` mirrors
    ``ReferenceTrace.memory_only()`` (drop hardware references).

    Result order is deterministic and independent of ``jobs``;
    ``jobs <= 1`` or an unavailable fork start method degrades
    gracefully to an in-process loop.  A failed worker raises
    :class:`SweepWorkerError`; ``chunk_timeout`` bounds how long any
    single work unit may take before the sweep gives up with the same
    error (catching killed/wedged workers).
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
        results = _run_units(_config_unit, list(configs), jobs,
                             addresses, writes, chunk_timeout,
                             container=container, memory_only=memory_only)
        return [SweepPoint(config=c, accesses=acc, misses=miss,
                           writebacks=wb, write_throughs=wt)
                for c, (acc, miss, wb, wt) in zip(configs, results)]

    units = _grid_units(sizes, line_sizes, associativities)
    results = _run_units(_family_unit, [u for u, _ in units], jobs,
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
