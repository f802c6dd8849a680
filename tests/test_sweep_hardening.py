"""Hardened sweep fan-out: typed worker errors, per-share timeouts, no
pool worker left alive on any exit path, and the chunk-major sweep
equal to the scalar oracles over any chunking and job count."""

import multiprocessing
import os
import signal
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import (
    CacheConfig,
    POLICY_FIFO,
    POLICY_LRU,
    POLICY_RANDOM,
    SweepWorkerError,
    WRITE_BACK,
    WRITE_THROUGH,
    sweep_parallel,
)
from repro.cache.kernels import _sort_by_set
from repro.cache.oracle import sweep_grid, sweep_reference
from repro.cache import sweep as sweep_mod
from repro.device.memmap import KIND_READ, KIND_WRITE, REGION_HW
from repro.traces.container import ContainerWriter


def _addresses(n: int = 5000) -> np.ndarray:
    rng = np.random.default_rng(7)
    return rng.integers(0, 1 << 18, n, dtype=np.uint32)


# Module-level so the fork-based pool can resolve them by name.
def _raising_unit(unit):
    raise RuntimeError(f"injected failure on {unit}")


def _suicide_unit(unit):
    # Simulates a worker killed out from under the pool (OOM killer,
    # operator): SIGKILL leaves the pool to respawn the process, but
    # the task itself is lost forever — only the chunk timeout notices.
    os.kill(os.getpid(), signal.SIGKILL)


def _slow_unit(unit):
    time.sleep(30.0)
    return unit


class TestSweepWorkerError:
    def test_is_not_a_value_error(self):
        """The serial fallback catches ValueError (pool setup failures);
        a worker *computation* failure must never qualify."""
        assert issubclass(SweepWorkerError, RuntimeError)
        assert not issubclass(SweepWorkerError, ValueError)

    def test_serial_worker_failure_is_typed(self):
        with pytest.raises(SweepWorkerError, match="injected failure"):
            sweep_mod._run_units(_raising_unit, ["u0"], 1,
                                 _addresses(), None)

    def test_parallel_worker_failure_is_typed_and_cleans_shm(self):
        """The error names the units of the failed share, and no pool
        worker outlives it."""
        with pytest.raises(SweepWorkerError,
                           match=r"share of units \['u0'\].*injected"):
            sweep_mod._run_units(_raising_unit, ["u0", "u1"], 2,
                                 _addresses(), None, 60.0)
        assert multiprocessing.active_children() == []

    def test_sigkilled_worker_hits_chunk_timeout_and_cleans_shm(self):
        start = time.monotonic()
        with pytest.raises(SweepWorkerError, match="chunk timeout"):
            sweep_mod._run_units(_suicide_unit, ["u0"], 2,
                                 _addresses(), None, 2.0)
        assert time.monotonic() - start < 25.0
        assert multiprocessing.active_children() == []

    def test_wedged_worker_hits_chunk_timeout(self):
        with pytest.raises(SweepWorkerError, match="chunk timeout"):
            sweep_mod._run_units(_slow_unit, ["u0"], 2,
                                 _addresses(), None, 1.0)
        assert multiprocessing.active_children() == []


class TestSweepStillCorrect:
    def test_parallel_with_timeout_matches_grid(self):
        addresses = _addresses()
        fast = sweep_parallel(addresses, jobs=2, chunk_timeout=120.0,
                              sizes=[1024, 4096], line_sizes=[16],
                              associativities=[1, 2])
        reference = sweep_grid(addresses, sizes=[1024, 4096],
                               line_sizes=[16], associativities=[1, 2])
        assert [(p.config.size, p.config.associativity, p.misses)
                for p in fast] == \
               [(p.config.size, p.config.associativity, p.misses)
                for p in reference]


def _chunked_session(path, n: int = 1200, chunk_tokens: int = 3):
    """A session-style trace (sequential same-line runs between random
    jumps, about a fifth writes) written to PTRC in tiny chunks, with
    hardware references mixed in so that some chunks hold a single
    memory reference once they are dropped.  Returns the memory-only
    in-RAM ``(addresses, writes)`` of the same trace."""
    rng = np.random.default_rng(11)
    jumps = rng.integers(0, 1 << 24, n // 8, dtype=np.uint64)
    addresses = (np.repeat(jumps, 8)
                 + 2 * np.tile(np.arange(8, dtype=np.uint64), n // 8)
                 ).astype(np.uint32)
    kinds = np.where(rng.random(n) < 0.2, KIND_WRITE,
                     KIND_READ).astype(np.uint8)
    hardware = np.zeros(n, dtype=bool)
    hardware[1::7] = hardware[2::7] = True
    kinds[hardware] |= REGION_HW << 4
    with ContainerWriter(path, chunk_tokens=chunk_tokens) as writer:
        writer.append_reference(addresses, kinds)
    memory = ~hardware
    return addresses[memory], (kinds[memory] & 0x0F) == KIND_WRITE


def _key(points):
    return [(p.config, p.accesses, p.misses, p.writebacks,
             p.write_throughs) for p in points]


class TestChunkMajorSweep:
    """Every process decodes each chunk once and feeds all its passes;
    the results equal the scalar oracles whatever the chunking, the
    grid or the job count."""

    GRIDS = [
        {},  # the paper's 56 configurations
        # 2 MB with 16-byte lines, direct-mapped: 131072 sets, past
        # the 16-bit sort keys.
        dict(sizes=[1 << 21], line_sizes=[16, 32], associativities=[1, 2]),
    ]

    CONFIGS = [
        CacheConfig(4096, 16, 4, policy=policy, write_policy=wp,
                    write_allocate=alloc)
        for policy in (POLICY_LRU, POLICY_FIFO)
        for wp in (WRITE_THROUGH, WRITE_BACK)
        for alloc in (True, False)
    ] + [CacheConfig(2048, 32, 2, policy=POLICY_RANDOM,
                     write_policy=WRITE_BACK),
         CacheConfig(1 << 21, 16, 1, write_policy=WRITE_BACK)]

    def test_grid_matches_oracle_over_tiny_chunks(self, tmp_path):
        path = tmp_path / "t.ptrc"
        addresses, writes = _chunked_session(path)
        for grid in self.GRIDS:
            want = _key(sweep_grid(addresses, **grid))
            for jobs in (1, 2, 3):
                assert _key(sweep_parallel(
                    container=path, jobs=jobs, **grid)) == want, (grid, jobs)
                assert _key(sweep_parallel(
                    addresses, writes, jobs=jobs, **grid)) == want, (grid, jobs)

    def test_configs_match_oracle_over_tiny_chunks(self, tmp_path):
        path = tmp_path / "t.ptrc"
        addresses, writes = _chunked_session(path)
        want = _key(sweep_reference(addresses, self.CONFIGS, writes))
        for jobs in (1, 2, 3):
            assert _key(sweep_parallel(
                configs=self.CONFIGS, container=path, jobs=jobs)) == want, jobs
            assert _key(sweep_parallel(
                addresses, writes, configs=self.CONFIGS, jobs=jobs)) == want, jobs

    @settings(max_examples=60, deadline=None)
    @given(set_bits=st.integers(0, 18), seed=st.integers(0, 2 ** 32 - 1),
           n=st.integers(0, 3000))
    def test_narrow_sort_keys_keep_the_int32_order(self, set_bits, seed, n):
        num_sets = 1 << set_bits
        rng = np.random.default_rng(seed)
        sets = rng.integers(0, num_sets, n).astype(np.int32)
        tags = np.arange(n, dtype=np.int32)
        writes = rng.random(n) < 0.5
        order = np.argsort(sets, kind="stable")
        got_sets, got_tags, got_writes = _sort_by_set(sets, tags, writes,
                                                      num_sets)
        assert np.array_equal(got_sets, sets[order])
        assert np.array_equal(got_tags, tags[order])
        assert np.array_equal(got_writes, writes[order])
