"""Tests for the framebuffer renderer and online cache simulation."""

import pytest

from repro import replay_session, standard_apps
from repro.analysis.screen import screen_ascii, screen_histogram, screenshot_ppm
from repro.cache import Cache, CacheConfig
from repro.device import Button
from repro.workloads import UserScript, collect_session

EMU_KW = {"ram_size": 8 << 20, "flash_size": 1 << 20}


@pytest.fixture(scope="module")
def session():
    script = (UserScript().at(80)
              .press(Button.DATEBOOK).wait(80)   # puzzle paints tiles
              .tap(50, 10).wait(40).tap(90, 50).wait(40))
    return collect_session(standard_apps(), script,
                           ram_size=EMU_KW["ram_size"])


class TestScreenRendering:
    def test_ascii_renders_painted_screen(self, session):
        emulator, _, _ = replay_session(session.initial_state, session.log,
                                        apps=standard_apps(), profile=False,
                                        emulator_kwargs=EMU_KW)
        art = screen_ascii(emulator.kernel)
        lines = art.splitlines()
        assert len(lines) > 10
        # Painted tiles show up as a mix of characters.
        assert len(set(art) - {"\n"}) > 2

    def test_ppm_screenshot_well_formed(self, session, tmp_path):
        emulator, _, _ = replay_session(session.initial_state, session.log,
                                        apps=standard_apps(), profile=False,
                                        emulator_kwargs=EMU_KW)
        path = tmp_path / "screen.ppm"
        screenshot_ppm(emulator.kernel, path)
        blob = path.read_bytes()
        assert blob.startswith(b"P6\n160 160\n255\n")
        assert len(blob) == len(b"P6\n160 160\n255\n") + 160 * 160 * 3

    def test_histogram_counts_pixels(self, session):
        emulator, _, _ = replay_session(session.initial_state, session.log,
                                        apps=standard_apps(), profile=False,
                                        emulator_kwargs=EMU_KW)
        histogram = screen_histogram(emulator.kernel)
        assert sum(histogram.values()) == 160 * 160
        assert len(histogram) > 2  # several tile colours on screen


class TestOnlineCaches:
    def test_online_matches_offline(self, session):
        """Feeding the cache during replay must agree with running it
        over the stored trace afterwards."""
        config = CacheConfig(4096, 16, 2)
        online = Cache(config)
        emulator, profiler, _ = replay_session(
            session.initial_state, session.log, apps=standard_apps(),
            emulator_kwargs=EMU_KW)
        # Re-run the stored trace offline.
        trace = profiler.reference_trace().memory_only()
        offline = Cache(config)
        offline.run(trace.addresses, trace.is_write)

        # And replay again with the online cache attached.
        emulator2, profiler2, _ = replay_session(
            session.initial_state, session.log, apps=standard_apps(),
            trace_references=False, emulator_kwargs=EMU_KW)
        # Attach mid-definition is not possible through replay_session;
        # verify determinism instead: same counts both replays.
        assert profiler2.total_refs == profiler.total_refs

        # Feed the trace through reference() to exercise the online path.
        probe = Profiler_with_cache(config)
        for addr, kinds in zip(trace.addresses, trace.kinds):
            probe.reference(int(addr), int(kinds) & 0x0F, int(kinds) >> 4)
        assert probe.online_caches[0].stats.misses == offline.stats.misses
        assert probe.online_caches[0].stats.accesses == offline.stats.accesses


def Profiler_with_cache(config):
    from repro.emulator import Profiler

    profiler = Profiler(trace_references=False)
    profiler.online_caches.append(Cache(config))
    return profiler


class TestOnlineCacheDuringReplay:
    def test_online_cache_attached_to_emulator(self, session):
        """Full integration: attach an online cache to a profiled
        replay and compare against the stored-trace result."""
        from repro.emulator import Emulator, PlaybackDriver

        config = CacheConfig(4096, 16, 2)

        def run(online_cache):
            emulator = Emulator(apps=standard_apps(), **EMU_KW)
            emulator.load_state(session.initial_state, final_reset=False)
            profiler = emulator.start_profiling(
                trace_references=online_cache is None)
            if online_cache is not None:
                profiler.online_caches.append(online_cache)
            driver = PlaybackDriver(emulator, session.log)
            driver.run(reset=True)
            return profiler

        with_trace = run(None)
        trace = with_trace.reference_trace().memory_only()
        offline = Cache(config)
        offline.run(trace.addresses, trace.is_write)

        online = Cache(config)
        run(online)
        assert online.stats.accesses == offline.stats.accesses
        assert online.stats.misses == offline.stats.misses
