"""Tests for the write-buffer extension."""

import numpy as np

from repro.cache import CacheConfig
from repro.cache.writebuffer import (
    WriteBuffer,
    simulate_with_write_buffer,
)


class TestWriteBufferUnit:
    def test_stores_below_depth_are_free(self):
        buffer = WriteBuffer(depth=4, drain_cycles=10)
        stalls = [buffer.store(now=0) for _ in range(4)]
        assert stalls == [0, 0, 0, 0]

    def test_fifth_back_to_back_store_stalls(self):
        buffer = WriteBuffer(depth=4, drain_cycles=10)
        for _ in range(4):
            buffer.store(now=0)
        assert buffer.store(now=0) == 10

    def test_buffer_drains_over_time(self):
        buffer = WriteBuffer(depth=4, drain_cycles=10)
        for _ in range(4):
            buffer.store(now=0)
        # 40 cycles later everything has drained: no stall.
        assert buffer.store(now=40) == 0

    def test_miss_drains_pending_writes(self):
        buffer = WriteBuffer(depth=4, drain_cycles=10)
        for _ in range(3):
            buffer.store(now=0)
        assert buffer.drain_for_miss(now=0) == 30
        assert buffer.drain_for_miss(now=100) == 0

    def test_stats_accumulate(self):
        buffer = WriteBuffer(depth=1, drain_cycles=5)
        buffer.store(now=0)
        buffer.store(now=0)     # stalls 5
        buffer.drain_for_miss(now=0)
        assert buffer.stats.stores == 2
        assert buffer.stats.store_stall_cycles == 5
        assert buffer.stats.total_stall_cycles >= 5


class TestSimulation:
    CONFIG = CacheConfig(1024, 16, 2)

    def _trace(self, n=5_000, write_share=0.3, seed=0):
        rng = np.random.default_rng(seed)
        addresses = (rng.integers(0, 1 << 14, n) * 4).astype(np.uint32)
        writes = rng.random(n) < write_share
        regions = np.zeros(n, dtype=np.uint8)
        return addresses, writes, regions

    def test_read_only_trace_has_no_stalls(self):
        addresses, _, regions = self._trace()
        writes = np.zeros(len(addresses), dtype=bool)
        result = simulate_with_write_buffer(addresses, writes, regions,
                                            self.CONFIG)
        assert result.stall_cycles == 0
        assert result.cycles_per_access >= 1.0

    def test_deeper_buffer_never_hurts(self):
        addresses, writes, regions = self._trace(write_share=0.5)
        shallow = simulate_with_write_buffer(addresses, writes, regions,
                                             self.CONFIG, depth=1)
        deep = simulate_with_write_buffer(addresses, writes, regions,
                                          self.CONFIG, depth=16)
        assert deep.stall_cycles <= shallow.stall_cycles
        assert deep.misses == shallow.misses  # cache behaviour unchanged

    def test_flash_misses_cost_more(self):
        addresses, writes, regions_ram = self._trace()
        regions_flash = np.ones(len(addresses), dtype=np.uint8)
        ram = simulate_with_write_buffer(addresses, writes, regions_ram,
                                         self.CONFIG)
        flash = simulate_with_write_buffer(addresses, writes, regions_flash,
                                           self.CONFIG)
        assert flash.base_cycles > ram.base_cycles
        assert flash.misses == ram.misses

    def test_cycles_per_access_reasonable(self):
        addresses, writes, regions = self._trace()
        result = simulate_with_write_buffer(addresses, writes, regions,
                                            self.CONFIG)
        # Between pure-hit speed and the no-cache RAM baseline + slack.
        assert 1.0 <= result.cycles_per_access < 3.0

    def test_on_real_session_trace(self):
        """Integration: run a real profiled trace through the model."""
        from repro import replay_session, standard_apps
        from repro.device import Button
        from repro.workloads import UserScript, collect_session

        script = (UserScript().at(80).press(Button.MEMO).wait(50)
                  .tap(40, 120).wait(50))
        session = collect_session(standard_apps(), script,
                                  ram_size=8 << 20)
        _, profiler, _ = replay_session(
            session.initial_state, session.log, apps=standard_apps(),
            emulator_kwargs={"ram_size": 8 << 20, "flash_size": 1 << 20})
        trace = profiler.reference_trace().memory_only()
        result = simulate_with_write_buffer(
            trace.addresses[:200_000], trace.is_write[:200_000],
            trace.region[:200_000], self.CONFIG)
        assert result.accesses == min(200_000, len(trace))
        assert 1.0 <= result.cycles_per_access < 2.5
