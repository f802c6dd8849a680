"""Tests for the extension modules: Gremlins fuzzing, trace sampling,
and the instruction-level energy model."""

import numpy as np
import pytest

from repro.analysis import (
    OPCODE_CLASS_ENERGY,
    classify_opcode,
    instruction_energy,
)
from repro.cache import (
    CacheConfig,
    estimate_miss_rate,
    full_miss_rate,
    sample_intervals,
    sampling_error_study,
)
from repro.traces import generate_desktop_trace
from repro.workloads import GremlinConfig, Gremlins, gremlin_session

EMU_KW = {"ram_size": 8 << 20, "flash_size": 1 << 20}


class TestGremlins:
    def test_script_deterministic_per_seed(self):
        a = Gremlins(7).build_script()
        b = Gremlins(7).build_script()
        assert a.actions == b.actions
        assert Gremlins(8).build_script().actions != a.actions

    def test_script_respects_screen_bounds(self):
        script = Gremlins(3, GremlinConfig(events=100)).build_script()
        for _, kind, args in script.actions:
            if kind in ("pen_down", "pen_move"):
                assert 0 <= args[0] < 160 and 0 <= args[1] < 160

    def test_pen_state_machine_well_formed(self):
        script = Gremlins(5, GremlinConfig(events=80)).build_script()
        depth = 0
        for _, kind, _ in sorted(script.actions, key=lambda a: a[0]):
            if kind == "pen_down":
                assert depth == 0
                depth = 1
            elif kind == "pen_up":
                assert depth == 1
                depth = 0
        assert depth == 0

    def test_gremlin_session_survives_and_replays(self):
        """The torture run must neither crash the kernel nor break the
        deterministic replay property."""
        from repro import replay_session, standard_apps
        from repro.tracelog import read_activity_log

        session = gremlin_session(seed=42, events=60,
                                  ram_size=EMU_KW["ram_size"])
        assert session.events > 0
        emulator, _, _ = replay_session(
            session.initial_state, session.log, apps=standard_apps(),
            profile=False, emulator_kwargs=EMU_KW)
        original = [(r.type, r.tick, r.data) for r in session.log]
        replayed = [(r.type, r.tick, r.data)
                    for r in read_activity_log(emulator.kernel)]
        assert replayed == original


class TestTraceSampling:
    @pytest.fixture(scope="class")
    def trace(self):
        return generate_desktop_trace(400_000, seed=12)

    CONFIG = CacheConfig(8192, 16, 2)

    def test_intervals_cover_requested_shape(self):
        slices = sample_intervals(1_000_000, 10, 20_000)
        assert len(slices) == 10
        assert all(s.stop - s.start == 20_000 for s in slices)

    def test_small_trace_collapses_to_full(self):
        slices = sample_intervals(1_000, 10, 500)
        assert slices == [slice(0, 1_000)]

    def test_cold_start_biases_upward(self, trace):
        """Wood/Hill/Kessler's effect: cold intervals over-estimate."""
        study = sampling_error_study(trace, self.CONFIG,
                                     num_samples=8, sample_length=20_000)
        cold_rate, cold_err = study["cold"]
        assert cold_rate >= study["full"]
        assert cold_err > 0

    def test_warmup_discard_reduces_bias(self, trace):
        study = sampling_error_study(trace, self.CONFIG,
                                     num_samples=8, sample_length=20_000)
        _, cold_err = study["cold"]
        _, discard_err = study["discard"]
        assert abs(discard_err) < abs(cold_err)

    def test_continuous_close_to_truth(self, trace):
        study = sampling_error_study(trace, self.CONFIG,
                                     num_samples=8, sample_length=20_000)
        _, continuous_err = study["continuous"]
        assert abs(continuous_err) < 0.5

    def test_estimate_counts_refs(self, trace):
        estimate = estimate_miss_rate(trace, self.CONFIG, num_samples=4,
                                      sample_length=10_000, policy="cold")
        assert estimate.sampled_refs == 40_000
        assert 0 <= estimate.estimated_miss_rate <= 1

    @pytest.mark.parametrize("call", [
        lambda t: estimate_miss_rate(t, TestTraceSampling.CONFIG,
                                     policy="contiuous"),
        lambda t: estimate_miss_rate(t, TestTraceSampling.CONFIG,
                                     num_samples=2, sample_length=10_000,
                                     warmup_fraction=1.5),
        lambda t: sample_intervals(1000, 0, 10),
    ], ids=["misspelled-policy", "warmup-fraction", "zero-samples"])
    def test_bad_arguments_raise_value_error(self, trace, call):
        with pytest.raises(ValueError):
            call(trace)

    @pytest.mark.parametrize("policy", ["cold", "discard", "continuous"])
    def test_estimate_matches_scalar_cache(self, trace, policy):
        """The engine-based estimate equals per-interval scalar
        simulation, for a kernel policy and the scalar-only one."""
        from repro.cache import Cache
        for config in (self.CONFIG, CacheConfig(8192, 16, 2, policy="random")):
            estimate = estimate_miss_rate(trace, config, num_samples=4,
                                          sample_length=10_000, policy=policy)
            cache = Cache(config)
            misses = 0
            for interval in sample_intervals(len(trace), 4, 10_000):
                chunk = trace[interval]
                warm = int(len(chunk) * 0.3) if policy == "discard" else 0
                if policy != "continuous":
                    cache = Cache(config)
                cache.run(chunk[:warm])
                before = cache.stats.misses
                cache.run(chunk[warm:])
                misses += cache.stats.misses - before
            assert estimate.measured_misses == misses, config.policy

    def test_full_rate_matches_direct_simulation(self, trace):
        from repro.cache import Cache
        cache = Cache(self.CONFIG)
        cache.run(trace[:50_000])
        assert full_miss_rate(trace[:50_000], self.CONFIG) == pytest.approx(
            cache.stats.miss_rate)


class TestInstructionEnergy:
    def test_classification(self):
        assert classify_opcode(0x7001) == "move"      # moveq
        assert classify_opcode(0x2200) == "move"      # move.l
        assert classify_opcode(0xD081) == "alu"       # add.l
        assert classify_opcode(0xE388) == "shift"     # lsl.l
        assert classify_opcode(0xC0C1) == "mul"       # mulu
        assert classify_opcode(0x80C1) == "div"       # divu
        assert classify_opcode(0x6604) == "branch"    # bne
        assert classify_opcode(0x4E75) == "control"   # rts
        assert classify_opcode(0xA033) == "system"    # A-line
        assert classify_opcode(0xF123) == "system"    # F-line

    def test_all_classes_have_energies(self):
        for op in (0x7001, 0xD081, 0xE388, 0xC0C1, 0x80C1, 0x6604,
                   0x4E75, 0xA033, 0x4280):
            assert classify_opcode(op) in OPCODE_CLASS_ENERGY

    def test_histogram_aggregation(self):
        histogram = np.zeros(0x10000, dtype=np.uint64)
        histogram[0x7001] = 100     # moves: 100 * 1.0
        histogram[0x80C1] = 10      # divides: 10 * 9.0
        result = instruction_energy(histogram)
        assert result["instructions"] == 110
        assert result["total"] == pytest.approx(100 * 1.0 + 10 * 9.0)
        assert result["by_class"] == {"move": 100, "div": 10}

    def test_profiler_histogram_feeds_model(self):
        from repro import replay_session, standard_apps
        from repro.workloads import UserScript, collect_session
        from repro.device import Button

        script = (UserScript().at(80).press(Button.DATEBOOK).wait(60)
                  .tap(50, 10).wait(30))
        session = collect_session(standard_apps(), script,
                                  ram_size=EMU_KW["ram_size"])
        _, profiler, _ = replay_session(session.initial_state, session.log,
                                        apps=standard_apps(),
                                        emulator_kwargs=EMU_KW)
        result = instruction_energy(profiler.opcode_histogram())
        assert result["instructions"] == profiler.instructions
        assert result["total"] > 0
        assert "move" in result["by_class"]