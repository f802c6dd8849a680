"""Differential tests for the vectorized cache kernels and the
parallel sweep engine.

The vectorized paths are trusted only because they match the scalar
reference simulator byte for byte: hypothesis drives randomized traces
through every policy/write-mode combination and compares whole
``CacheStats``; the parallel sweep must return identical points for
any job count and must leave no pool worker alive, even when a worker
fails.  The scalar passes live in :mod:`repro.cache.oracle`.
"""

import ast
import multiprocessing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import (
    Cache,
    CacheConfig,
    KernelUnsupported,
    POLICY_FIFO,
    POLICY_LRU,
    POLICY_RANDOM,
    SweepWorkerError,
    WRITE_BACK,
    WRITE_THROUGH,
    kernel_misses_by_associativity,
    lru_hit_depths,
    simulate,
    simulate_auto,
    sweep_parallel,
    to_line_addresses,
)
from repro.cache.oracle import (
    lru_depth_histogram,
    misses_by_associativity,
    sweep_grid,
)
import repro
import repro.cache
import repro.cache.sweep as sweep_module

STAT_FIELDS = ("accesses", "hits", "misses", "writebacks",
               "write_throughs")


def scalar_stats(addresses, config, writes=None, flush=False, seed=0):
    cache = Cache(config, rng_seed=seed)
    cache.run(np.asarray(addresses),
              None if writes is None else np.asarray(writes))
    if flush:
        cache.flush_dirty()
    return cache.stats


def assert_stats_equal(expected, got, context=""):
    for field in STAT_FIELDS:
        assert getattr(expected, field) == getattr(got, field), (
            f"{context}: {field}: scalar {getattr(expected, field)} "
            f"!= kernel {getattr(got, field)}")


configs = st.builds(
    CacheConfig,
    size=st.sampled_from([256, 1024, 8192]),
    line_size=st.sampled_from([16, 32]),
    associativity=st.sampled_from([1, 2, 4]),
    policy=st.sampled_from([POLICY_LRU, POLICY_FIFO]),
    write_policy=st.sampled_from([WRITE_THROUGH, WRITE_BACK]),
    write_allocate=st.booleans(),
)

traces = st.lists(st.tuples(st.integers(0, 0x7FFF), st.booleans()),
                  min_size=0, max_size=400)


class TestKernelDifferential:
    @settings(max_examples=120, deadline=None)
    @given(config=configs, trace=traces, flush=st.booleans(),
           tail_width=st.sampled_from([0, 3, 10 ** 9]))
    def test_matches_scalar_cache(self, config, trace, flush, tail_width):
        """Byte-for-byte CacheStats equality, on the wave path
        (tail_width 0), the scalar drain path (huge tail_width), and
        the mixed default."""
        addresses = np.array([a for a, _ in trace], dtype=np.uint32)
        writes = np.array([w for _, w in trace], dtype=bool)
        expected = scalar_stats(addresses, config, writes, flush)
        got = simulate(addresses, config, writes=writes, flush=flush,
                       tail_width=tail_width)
        assert_stats_equal(expected, got, context=config.label())

    @settings(max_examples=40, deadline=None)
    @given(config=configs, trace=traces)
    def test_read_only_matches(self, config, trace):
        addresses = np.array([a for a, _ in trace], dtype=np.uint32)
        expected = scalar_stats(addresses, config)
        got = simulate(addresses, config)
        assert_stats_equal(expected, got, context=config.label())

    @settings(max_examples=40, deadline=None)
    @given(trace=traces, flush=st.booleans())
    def test_auto_falls_back_for_random_policy(self, trace, flush):
        config = CacheConfig(512, 16, 4, policy=POLICY_RANDOM)
        addresses = np.array([a for a, _ in trace], dtype=np.uint32)
        writes = np.array([w for _, w in trace], dtype=bool)
        expected = scalar_stats(addresses, config, writes, flush, seed=7)
        got = simulate_auto(addresses, config, writes=writes, flush=flush,
                            rng_seed=7)
        assert_stats_equal(expected, got)

    def test_random_policy_raises_kernel_unsupported(self):
        config = CacheConfig(512, 16, 4, policy=POLICY_RANDOM)
        with pytest.raises(KernelUnsupported):
            simulate(np.arange(10, dtype=np.uint32), config)

    def test_int64_addresses_accepted(self):
        config = CacheConfig(1024, 16, 2)
        addresses = np.array([0, 16, 4096, 0, 16], dtype=np.int64)
        expected = scalar_stats(addresses, config)
        assert_stats_equal(expected, simulate(addresses, config))

    @settings(max_examples=60, deadline=None)
    @given(lines=st.lists(st.integers(0, 2047), max_size=300),
           num_sets=st.sampled_from([1, 4, 64]),
           max_depth=st.sampled_from([1, 3, 8]),
           tail_width=st.sampled_from([0, 3, 10 ** 9]))
    def test_depth_histogram_matches_scalar(self, lines, num_sets,
                                            max_depth, tail_width):
        arr = np.array(lines, dtype=np.uint32)
        hist_ref, cold_ref = lru_depth_histogram(
            arr.astype(np.int64), num_sets, max_depth)
        hist, cold = lru_hit_depths(arr, num_sets, max_depth,
                                    tail_width=tail_width)
        assert np.array_equal(np.asarray(hist_ref), hist)
        assert cold == cold_ref

    def test_misses_by_associativity_matches(self):
        rng = np.random.default_rng(3)
        addrs = rng.integers(0, 1 << 18, 5000, dtype=np.uint64)
        lines = to_line_addresses(addrs.astype(np.uint32), 16)
        ref = misses_by_associativity(lines, 64, [1, 2, 4, 8])
        got = kernel_misses_by_associativity(lines, 64, [1, 2, 4, 8])
        assert ref == got


def _boom(unit):
    # Module-level so the pool can pickle it by name into workers.
    raise RuntimeError("injected worker failure")


class TestSweepParallel:
    def _trace(self, n=40_000):
        rng = np.random.default_rng(5)
        # Mix of sequential runs and random jumps, session-style.
        jumps = rng.integers(0, 1 << 20, n // 8, dtype=np.uint64)
        addrs = (np.repeat(jumps, 8) +
                 2 * np.tile(np.arange(8, dtype=np.uint64), n // 8))
        return addrs.astype(np.uint32)

    def test_matches_previous_engine(self):
        addresses = self._trace()
        ref = sweep_grid(addresses)
        got = sweep_parallel(addresses, jobs=1)
        assert [(p.config, p.accesses, p.misses) for p in ref] == \
               [(p.config, p.accesses, p.misses) for p in got]

    def test_deterministic_jobs_1_vs_4(self):
        addresses = self._trace()
        p1 = sweep_parallel(addresses, jobs=1)
        p4 = sweep_parallel(addresses, jobs=4)
        assert [(p.config, p.accesses, p.misses) for p in p1] == \
               [(p.config, p.accesses, p.misses) for p in p4]

    def test_config_mode_deterministic_and_exact(self):
        addresses = self._trace(8_000)
        writes = np.random.default_rng(6).random(len(addresses)) < 0.3
        cfgs = [
            CacheConfig(8192, 16, 4, policy=POLICY_FIFO,
                        write_policy=WRITE_BACK),
            CacheConfig(8192, 16, 4, policy=POLICY_RANDOM),
            CacheConfig(4096, 32, 2, write_policy=WRITE_BACK,
                        write_allocate=False),
        ]
        p1 = sweep_parallel(addresses, writes=writes, configs=cfgs, jobs=1)
        p4 = sweep_parallel(addresses, writes=writes, configs=cfgs, jobs=4)
        for a, b in zip(p1, p4):
            assert (a.accesses, a.misses, a.writebacks,
                    a.write_throughs) == (b.accesses, b.misses,
                                          b.writebacks, b.write_throughs)
        for config, point in zip(cfgs, p1):
            expected = scalar_stats(addresses, config, writes)
            assert (point.misses, point.writebacks,
                    point.write_throughs) == (expected.misses,
                                              expected.writebacks,
                                              expected.write_throughs)

    def test_no_leaked_segments_after_success(self):
        """No pool worker outlives a sweep that succeeds."""
        sweep_parallel(self._trace(8_000), jobs=2)
        assert multiprocessing.active_children() == []

    def test_no_leaked_segments_after_worker_raises(self, monkeypatch):
        """A worker exception surfaces as a typed error and no pool
        worker outlives it (workers are forked, so the monkeypatched
        per-share function crosses into them)."""

        monkeypatch.setattr(sweep_module, "_grid_share", _boom)
        with pytest.raises(SweepWorkerError,
                           match="injected worker failure"):
            sweep_parallel(self._trace(8_000), jobs=2)
        assert multiprocessing.active_children() == []

    def test_serial_fallback_used_for_single_job(self, monkeypatch):
        """jobs=1 must not touch multiprocessing at all."""

        def no_pool(*a, **k):
            raise AssertionError("Pool should not be created for jobs=1")

        monkeypatch.setattr(multiprocessing, "get_context", no_pool)
        points = sweep_parallel(self._trace(8_000), jobs=1)
        assert len(points) == 56


class TestOracleBoundary:
    #: Scalar passes that must never return to a package namespace.
    ORACLE_NAMES = {"sweep_paper_grid", "sweep_reference",
                    "lru_family_stats", "FamilyStats",
                    "misses_by_associativity", "lru_depth_histogram",
                    "collapse_consecutive"}

    def test_only_tests_import_the_oracle(self):
        """Production code runs the chunked engine only: no module of
        the package imports ``repro.cache.oracle``, and neither package
        namespace exports a scalar pass."""
        root = Path(repro.__file__).parent
        for path in root.rglob("*.py"):
            if path == root / "cache" / "oracle.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom):
                    names = [node.module or ""] + [a.name for a in node.names]
                elif isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                else:
                    continue
                assert not any("oracle" in name.split(".") for name in names), \
                    f"{path.relative_to(root)} imports the oracle"
        assert not self.ORACLE_NAMES & set(repro.__all__)
        assert not self.ORACLE_NAMES & set(repro.cache.__all__)
