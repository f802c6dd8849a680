"""PTRC trace containers and the out-of-core cache layer.

Covers the container round trip (both codecs, pathological chunk
sizes), the bit-identity of chunk-streamed cache simulation against
the whole-trace kernels, torn-tail salvage, the profiler's streaming
trace sink, dinero interchange, the fleet's per-session trace archive
with digest verification on resume, and the CLI surface.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import CacheConfig, CacheStats, sweep_parallel
from repro.cache.cache import (
    POLICY_FIFO,
    POLICY_RANDOM,
    WRITE_BACK,
    WRITE_THROUGH,
)
from repro.cache.kernels import (
    kernel_misses_by_associativity,
    lru_hit_depths,
    simulate,
    simulate_auto,
    to_line_addresses,
)
from repro.device.memmap import (
    KIND_FETCH,
    KIND_READ,
    KIND_WRITE,
    REGION_FLASH,
    REGION_HW,
    REGION_RAM,
)
from repro.emulator import ReferenceTrace
from repro.emulator.profiling import Profiler
from repro.traces.container import (
    ContainerWriter,
    TraceArchive,
    TraceContainer,
    TraceContainerError,
    available_codecs,
    open_chunk_source,
    pack_tokens,
    recover_container,
    scan_frames,
    unpack_tokens,
    write_container,
)
from repro.traces.dinero import (
    DineroFormatError,
    read_dinero_chunks,
    write_dinero_chunks,
)

CODECS = [c for c in available_codecs() if c in ("raw", "zlib")]


def random_tokens(n: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    addrs = rng.integers(0, 1 << 26, size=n, dtype=np.uint64)
    kind = rng.choice([KIND_FETCH, KIND_READ, KIND_WRITE], size=n)
    region = rng.choice([REGION_RAM, REGION_FLASH, REGION_HW],
                        size=n, p=[0.6, 0.35, 0.05])
    return pack_tokens(addrs.astype(np.uint32),
                       (kind | (region << 4)).astype(np.uint8))


def random_accesses(n: int, seed: int = 0, addr_bits: int = 14):
    rng = np.random.default_rng(seed)
    addrs = rng.integers(0, 1 << addr_bits, size=n, dtype=np.uint32)
    writes = rng.random(n) < 0.3
    return addrs, writes


def chunked(arr, size):
    return [arr[i:i + size] for i in range(0, len(arr), size)]


def input_forms(addrs, writes=None, chunk_size=97):
    """The trace in each input form the cache engine turns into a chunk
    stream, as ``(trace, writes, n)``: an ndarray, a plain list, a chunk
    list, and the empty trace as an array and as an iterator (``n`` is
    the trace length, 0 for the empty forms)."""
    chunks = chunked(addrs, chunk_size)
    if writes is not None:
        chunks = list(zip(chunks, chunked(writes, chunk_size)))
    n = len(addrs)
    return [
        (addrs, writes, n),
        (addrs.tolist(), None if writes is None else writes.tolist(), n),
        (chunks, None, n),
        (addrs[:0], None if writes is None else writes[:0], 0),
        (iter([]), None, 0),
    ]


# ----------------------------------------------------------------------
# Container round trip
# ----------------------------------------------------------------------

class TestContainerRoundTrip:
    @pytest.mark.parametrize("codec", CODECS)
    @pytest.mark.parametrize("chunk_tokens", [1, 3, 17, 1024])
    def test_round_trip_exact(self, tmp_path, codec, chunk_tokens):
        tokens = random_tokens(401, seed=chunk_tokens)
        path = tmp_path / "t.ptrc"
        manifest = write_container(tokens, path, codec=codec,
                                   chunk_tokens=chunk_tokens)
        assert manifest["tokens"] == 401
        with TraceContainer(path) as container:
            assert np.array_equal(container.tokens_array(), tokens)
            assert container.verify(deep=True)["digest"] == \
                manifest["digest"]

    def test_digest_is_codec_invariant(self, tmp_path):
        tokens = random_tokens(500, seed=7)
        digests = set()
        for codec in CODECS:
            manifest = write_container(tokens, tmp_path / f"{codec}.ptrc",
                                       codec=codec, chunk_tokens=64)
            digests.add(manifest["digest"])
        assert len(digests) == 1

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "empty.ptrc"
        manifest = write_container(np.empty(0, dtype=np.uint64), path)
        assert manifest["tokens"] == 0
        with TraceContainer(path) as container:
            assert len(container.tokens_array()) == 0
            container.verify(deep=True)

    def test_incremental_writes_rechunk(self, tmp_path):
        tokens = random_tokens(300, seed=3)
        path = tmp_path / "t.ptrc"
        with ContainerWriter(path, chunk_tokens=64) as writer:
            for block in chunked(tokens, 7):   # misaligned feed sizes
                writer.append_tokens(block)
        with TraceContainer(path) as container:
            assert all(len(c) == 64 for c in list(container.chunks())[:-1])
            assert np.array_equal(container.tokens_array(), tokens)

    def test_reference_trace_round_trip(self, tmp_path):
        tokens = random_tokens(1000, seed=5)
        addrs, kinds = unpack_tokens(tokens)
        trace = ReferenceTrace(addresses=addrs, kinds=kinds)
        path = tmp_path / "t.ptrc"
        with ContainerWriter(path, chunk_tokens=128) as writer:
            for block_addrs, block_kinds in trace.chunks(300):
                writer.append_reference(block_addrs, block_kinds)
        with TraceContainer(path) as container:
            back = container.reference_trace()
            assert np.array_equal(back.addresses, addrs)
            assert np.array_equal(back.kinds, kinds)
            counts = container.counts()
        assert counts == trace.counts()

    def test_unknown_codec_is_typed_error(self, tmp_path):
        with pytest.raises(TraceContainerError):
            ContainerWriter(tmp_path / "t.ptrc", codec="lz4")

    def test_zstd_gated_when_absent(self, tmp_path):
        if "zstd" in available_codecs():
            pytest.skip("zstd backend available in this environment")
        with pytest.raises(TraceContainerError):
            ContainerWriter(tmp_path / "t.ptrc", codec="zstd")

    def test_corrupt_payload_is_typed_error(self, tmp_path):
        path = tmp_path / "t.ptrc"
        write_container(random_tokens(200, seed=9), path, chunk_tokens=64)
        data = bytearray(path.read_bytes())
        data[80] ^= 0xFF    # inside the first compressed payload
        path.write_bytes(bytes(data))
        with TraceContainer(path) as container:
            with pytest.raises(TraceContainerError):
                container.verify(deep=True)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(0, 200), chunk_tokens=st.integers(1, 64),
           codec=st.sampled_from(CODECS), seed=st.integers(0, 2**16))
    def test_round_trip_property(self, tmp_path_factory, n, chunk_tokens,
                                 codec, seed):
        tokens = random_tokens(n, seed=seed)
        path = tmp_path_factory.mktemp("prop") / "t.ptrc"
        write_container(tokens, path, codec=codec,
                        chunk_tokens=chunk_tokens)
        with TraceContainer(path) as container:
            assert np.array_equal(container.tokens_array(), tokens)
            container.verify(deep=True)


# ----------------------------------------------------------------------
# Out-of-core kernels: chunk streams are bit-identical to whole traces
# ----------------------------------------------------------------------

CONFIG_GRID = [
    CacheConfig(size=2048, line_size=16, associativity=1),
    CacheConfig(size=2048, line_size=16, associativity=4),
    CacheConfig(size=4096, line_size=32, associativity=2,
                policy=POLICY_FIFO),
    CacheConfig(size=2048, line_size=16, associativity=4,
                write_policy=WRITE_THROUGH),
    CacheConfig(size=2048, line_size=16, associativity=2,
                write_allocate=False),
]


class TestOutOfCoreKernels:
    @pytest.mark.parametrize("config", CONFIG_GRID)
    @pytest.mark.parametrize("chunk_size", [1, 7, 64, 1000])
    def test_simulate_chunked_bit_identical(self, config, chunk_size):
        addrs, writes = random_accesses(3000, seed=config.associativity)
        whole = simulate(addrs, config, writes=writes)
        parts = list(zip(chunked(addrs, chunk_size),
                         chunked(writes, chunk_size)))
        assert simulate(iter(parts), config) == whole
        for trace, mask, n in input_forms(addrs, writes, chunk_size):
            assert simulate(trace, config, writes=mask) == \
                (whole if n else CacheStats())

    def test_write_free_chunks_keep_dirty_state(self):
        # A dirty line from chunk 0 must still cost a writeback when
        # evicted in a later all-read chunk (and at the final flush).
        config = CacheConfig(size=512, line_size=16, associativity=1,
                             write_policy=WRITE_BACK)
        addrs = np.array([0x0, 0x1000, 0x0, 0x1000] * 8, dtype=np.uint32)
        writes = np.zeros(len(addrs), dtype=bool)
        writes[:2] = True
        whole = simulate(addrs, config, writes=writes)
        parts = [(addrs[:2], writes[:2])] + \
            [(a, None) for a in chunked(addrs[2:], 3)]
        assert simulate(iter(parts), config) == whole

    def test_simulate_auto_random_policy_streams(self):
        addrs, writes = random_accesses(800, seed=4)
        config = CacheConfig(size=1024, line_size=16, associativity=4,
                             policy=POLICY_RANDOM)
        whole = simulate_auto(addrs, config, writes=writes)
        parts = list(zip(chunked(addrs, 97), chunked(writes, 97)))
        assert simulate_auto(iter(parts), config) == whole
        for trace, mask, n in input_forms(addrs, writes):
            assert simulate_auto(trace, config, writes=mask) == \
                (whole if n else CacheStats())

    def test_lru_hit_depths_chunked(self):
        addrs, _ = random_accesses(2000, seed=5)
        lines = to_line_addresses(addrs, 16)
        whole_hist, whole_cold = lru_hit_depths(lines, 32, 8)
        hist, cold = lru_hit_depths(iter(chunked(lines, 111)), 32, 8)
        assert np.array_equal(hist, whole_hist) and cold == whole_cold
        for trace, _, n in input_forms(lines):
            hist, cold = lru_hit_depths(trace, 32, 8)
            assert np.array_equal(hist, whole_hist if n else np.zeros(8))
            assert cold == (whole_cold if n else 0)

    def test_kernel_misses_chunked(self):
        addrs, _ = random_accesses(1500, seed=8)
        lines = to_line_addresses(addrs, 32)
        whole = kernel_misses_by_associativity(lines, 16, (1, 2, 8))
        parts = iter(chunked(lines, 190))
        assert kernel_misses_by_associativity(parts, 16, (1, 2, 8)) == whole
        for trace, _, n in input_forms(lines):
            assert kernel_misses_by_associativity(trace, 16, (1, 2, 8)) == \
                (whole if n else {1: 0, 2: 0, 8: 0})

    def test_container_simulate_matches_in_ram(self, tmp_path):
        tokens = random_tokens(4000, seed=11)
        path = tmp_path / "t.ptrc"
        write_container(tokens, path, chunk_tokens=256)
        addrs, kinds = unpack_tokens(tokens)
        trace = ReferenceTrace(addresses=addrs, kinds=kinds).memory_only()
        config = CacheConfig(size=2048, line_size=16, associativity=2)
        whole = simulate(trace.addresses, config, writes=trace.is_write)
        with TraceContainer(path) as container:
            assert simulate(container.cache_chunks(), config) == whole

    def test_sweep_container_matches_in_ram(self, tmp_path):
        tokens = random_tokens(3000, seed=13)
        path = tmp_path / "t.ptrc"
        write_container(tokens, path, chunk_tokens=500)
        addrs, kinds = unpack_tokens(tokens)
        trace = ReferenceTrace(addresses=addrs, kinds=kinds).memory_only()
        grid = dict(sizes=(1024, 2048), line_sizes=(16, 32),
                    associativities=(1, 2))
        for jobs in (1, 2):
            in_ram = sweep_parallel(trace.addresses, jobs=jobs, **grid)
            streamed = sweep_parallel(container=path, jobs=jobs, **grid)
            assert [(p.config, p.accesses, p.misses) for p in streamed] == \
                [(p.config, p.accesses, p.misses) for p in in_ram]

    def test_sweep_rejects_both_sources(self, tmp_path):
        with pytest.raises(ValueError):
            sweep_parallel(np.zeros(4, dtype=np.uint32),
                           container=tmp_path / "t.ptrc")


# ----------------------------------------------------------------------
# Torn containers and salvage
# ----------------------------------------------------------------------

class TestTornSalvage:
    def build(self, tmp_path, n_chunks=10, chunk_tokens=100):
        tokens = random_tokens(n_chunks * chunk_tokens, seed=n_chunks)
        path = tmp_path / "whole.ptrc"
        write_container(tokens, path, chunk_tokens=chunk_tokens)
        return path, tokens

    def test_torn_tail_refuses_open_then_salvages(self, tmp_path):
        path, tokens = self.build(tmp_path)
        data = path.read_bytes()
        torn = tmp_path / "torn.ptrc"
        # Cut inside the last chunk's payload (well before the footer).
        entries, problems, _ = scan_frames(path)
        assert not problems
        torn.write_bytes(data[:entries[-1]["offset"] + 10])
        with pytest.raises(TraceContainerError):
            TraceContainer(torn)
        out = tmp_path / "recovered.ptrc"
        manifest, recovery = recover_container(torn, out)
        assert recovery["chunks_kept"] == 9
        assert recovery["problems"][0]["code"] == "torn-chunk"
        with TraceContainer(out) as container:
            assert np.array_equal(container.tokens_array(), tokens[:900])
            container.verify(deep=True)

    def test_garbage_is_unrecoverable(self, tmp_path):
        path = tmp_path / "junk.ptrc"
        path.write_bytes(b"not a container" * 10)
        with pytest.raises(TraceContainerError):
            recover_container(path, tmp_path / "out.ptrc")

    def test_resilience_wrapper_reports_findings(self, tmp_path):
        from repro.resilience import salvage_container

        path, _ = self.build(tmp_path, n_chunks=4)
        entries, _, _ = scan_frames(path)
        torn = tmp_path / "torn.ptrc"
        torn.write_bytes(path.read_bytes()[:entries[1]["offset"] + 10])
        result = salvage_container(torn, tmp_path / "rec.ptrc")
        assert result.chunks_kept >= 1
        assert not result.clean
        assert result.report.ok          # torn tail is warning severity
        codes = [f.code for f in result.report.findings]
        assert "torn-chunk" in codes or "torn-frame-header" in codes

    def test_resilience_wrapper_strict_and_fatal(self, tmp_path):
        from repro.resilience import salvage_container

        path = tmp_path / "junk.ptrc"
        path.write_bytes(b"\xff" * 64)
        result = salvage_container(path, tmp_path / "rec.ptrc")
        assert result.tokens_kept == 0 and not result.report.ok
        with pytest.raises(TraceContainerError):
            salvage_container(path, tmp_path / "rec2.ptrc", strict=True)


# ----------------------------------------------------------------------
# Multi-session archives
# ----------------------------------------------------------------------

class TestArchive:
    def test_members_chain_and_verify(self, tmp_path):
        root = tmp_path / "arch"
        archive = TraceArchive(root, create=True, meta={"campaign": "t"})
        all_tokens = []
        for i in range(3):
            tokens = random_tokens(250 + i, seed=20 + i)
            member_path = root / f"s{i}.ptrc"
            write_container(tokens, member_path, chunk_tokens=64)
            archive.add(member_path, f"s{i}")
            all_tokens.append(tokens)
        expected = np.concatenate(all_tokens)
        reopened = TraceArchive(root)
        assert reopened.total_tokens == len(expected)
        assert np.array_equal(np.concatenate(list(reopened.chunks())),
                              expected)
        reopened.verify(deep=True)
        # The archive streams through the same kernel path as one trace.
        addrs, kinds = unpack_tokens(expected)
        trace = ReferenceTrace(addresses=addrs, kinds=kinds).memory_only()
        config = CacheConfig(size=1024, line_size=16, associativity=2)
        whole = simulate(trace.addresses, config, writes=trace.is_write)
        assert simulate(reopened.cache_chunks(), config) == whole

    def test_member_digest_mismatch_detected(self, tmp_path):
        root = tmp_path / "arch"
        archive = TraceArchive(root, create=True)
        member = root / "s0.ptrc"
        write_container(random_tokens(100, seed=1), member)
        archive.add(member, "s0")
        write_container(random_tokens(100, seed=2), member)  # swapped
        with pytest.raises(TraceContainerError):
            TraceArchive(root).verify()

    def test_open_chunk_source_dispatch(self, tmp_path):
        root = tmp_path / "arch"
        TraceArchive(root, create=True)
        assert isinstance(open_chunk_source(root), TraceArchive)
        path = tmp_path / "t.ptrc"
        write_container(random_tokens(10), path)
        src = open_chunk_source(path)
        assert isinstance(src, TraceContainer)
        src.close()


# ----------------------------------------------------------------------
# Profiler streaming (trace sink, spill, counts without materializing)
# ----------------------------------------------------------------------

class TestProfilerStreaming:
    def fill(self, profiler, tokens):
        for block in chunked(tokens, 333):
            profiler.bulk_references(block)

    def test_counts_dict_matches_reference_trace(self):
        profiler = Profiler()
        self.fill(profiler, random_tokens(5000, seed=31))
        trace = profiler.reference_trace()
        assert profiler.counts_dict() == trace.counts()
        assert profiler.counts_dict(memory_only=True) == \
            trace.memory_only().counts()

    def test_chunks_stream_equals_packed(self):
        profiler = Profiler()
        tokens = random_tokens(3000, seed=32)
        self.fill(profiler, tokens)
        assert np.array_equal(np.concatenate(list(profiler.chunks())),
                              tokens)

    def test_sink_receives_whole_trace(self, tmp_path):
        tokens = random_tokens(2000, seed=33)
        path = tmp_path / "sink.ptrc"
        profiler = Profiler()
        self.fill(profiler, tokens[:500])          # buffered pre-attach
        with ContainerWriter(path, chunk_tokens=256) as writer:
            profiler.attach_trace_sink(writer)
            self.fill(profiler, tokens[500:])
            profiler.flush_trace_sink()
        with TraceContainer(path) as container:
            assert np.array_equal(container.tokens_array(), tokens)
        # No spill: the in-RAM accessors still work.
        assert np.array_equal(profiler.reference_trace().addresses,
                              unpack_tokens(tokens)[0])

    def test_spill_bounds_memory_and_guards_accessors(self, tmp_path):
        tokens = random_tokens(2000, seed=34)
        path = tmp_path / "spill.ptrc"
        profiler = Profiler()
        with ContainerWriter(path, chunk_tokens=256) as writer:
            profiler.attach_trace_sink(writer, spill=True)
            self.fill(profiler, tokens)
            profiler.flush_trace_sink()
        assert profiler._chunks == []              # nothing retained
        with pytest.raises(RuntimeError):
            profiler.reference_trace()
        # Counts survive the spill (they come from the flat counters).
        with TraceContainer(path) as container:
            assert np.array_equal(container.tokens_array(), tokens)
            assert profiler.counts_dict() == \
                container.reference_trace().counts()


# ----------------------------------------------------------------------
# Dinero interchange (vectorized writer, streaming reader/converters)
# ----------------------------------------------------------------------

class TestDineroStreaming:
    def test_writer_byte_identical_to_per_line_format(self, tmp_path):
        rng = np.random.default_rng(41)
        addrs = rng.integers(0, 1 << 32, size=5000,
                             dtype=np.uint64).astype(np.uint32)
        addrs[:3] = [0, 1, 0xFFFFFFFF]
        kinds = rng.choice([KIND_FETCH, KIND_READ, KIND_WRITE],
                           size=5000).astype(np.uint8)
        trace = ReferenceTrace(addresses=addrs, kinds=kinds)
        path = tmp_path / "t.din"
        write_dinero_chunks(path, trace.chunks(1000))
        label = {KIND_READ: 0, KIND_WRITE: 1, KIND_FETCH: 2}
        expected = "".join(f"{label[int(k)]} {int(a):x}\n"
                           for a, k in zip(addrs, kinds))
        assert path.read_bytes() == expected.encode()

    def test_unmappable_kind_raises(self, tmp_path):
        with pytest.raises(DineroFormatError):
            write_dinero_chunks(tmp_path / "x.din",
                               [(np.array([1], dtype=np.uint32),
                                 np.array([0x0F], dtype=np.uint8))])

    def test_dinero_container_round_trip_streams(self, tmp_path):
        from repro.cli import main

        rng = np.random.default_rng(42)
        addrs = rng.integers(0, 1 << 27, size=3000,
                             dtype=np.uint64).astype(np.uint32)
        kinds = rng.choice([KIND_FETCH, KIND_READ, KIND_WRITE],
                           size=3000).astype(np.uint8)
        din = tmp_path / "t.din"
        write_dinero_chunks(din, [(addrs, kinds)])
        ptrc = tmp_path / "t.ptrc"
        assert main(["trace", "convert", str(din), str(ptrc),
                     "--chunk-tokens", "512"]) == 0
        din2 = tmp_path / "t2.din"
        assert main(["trace", "convert", str(ptrc), str(din2)]) == 0
        assert din2.read_bytes() == din.read_bytes()
        # The container carries the synthesized regions the reader adds.
        back_addrs, back_kinds = map(np.concatenate,
                                     zip(*read_dinero_chunks(din)))
        with TraceContainer(ptrc) as container:
            assert container.tokens == 3000 and container.n_chunks == 6
            trace = container.reference_trace()
            assert np.array_equal(trace.addresses, back_addrs)
            assert np.array_equal(trace.kinds, back_kinds)


# ----------------------------------------------------------------------
# Replay + fleet integration
# ----------------------------------------------------------------------

def collect_tiny_session():
    from repro.apps import standard_apps
    from repro.workloads.gremlins import (
        GremlinConfig,
        Gremlins,
        derive_entropy_seed,
    )
    from repro.workloads.sessions import collect_session

    apps = [a for a in standard_apps() if a.name in ("launcher", "memopad")]
    script = Gremlins(5, GremlinConfig(events=40)).build_script()
    return apps, collect_session(
        apps, script, name="tiny",
        entropy_seed=derive_entropy_seed(5, apps, 40),
        ram_size=8 << 20, default_app="launcher")


@pytest.mark.slow
class TestReplayTraceOut:
    def test_streamed_and_checkpointed_replays_share_digest(self, tmp_path):
        """--trace-out interop: a spilling plain replay and a
        checkpointing resilient replay produce digest-identical
        containers for the same session."""
        from repro.emulator import replay_session
        from repro.resilience import resilient_replay
        from repro.workloads.sessions import CollectedSession

        apps, session = collect_tiny_session()
        # Replay mutates state in place; give each replay a fresh copy
        # via the serialization round trip (the CLI's load-from-disk).
        bundle = session.to_json()
        streamed = tmp_path / "streamed.ptrc"
        first = CollectedSession.from_json(bundle)
        with ContainerWriter(streamed) as writer:
            _, profiler, _ = replay_session(
                first.initial_state, first.log, apps=apps,
                emulator_kwargs={"ram_size": 8 << 20,
                                 "flash_size": 1 << 20},
                trace_sink=writer, trace_spill=True)
            assert profiler._spilled_tokens > 0
        second = CollectedSession.from_json(bundle)
        outcome = resilient_replay(
            second.initial_state, second.log, apps=apps,
            emulator_kwargs={"ram_size": 8 << 20, "flash_size": 1 << 20},
            checkpoint_every=2000)
        drained = tmp_path / "drained.ptrc"
        with ContainerWriter(drained) as writer:
            for chunk in outcome.profiler.chunks():
                writer.append_tokens(chunk)
        with TraceContainer(streamed) as a, TraceContainer(drained) as b:
            assert a.digest == b.digest
            assert a.tokens > 0


@pytest.mark.slow
class TestFleetTraceArchive:
    SPEC = dict(
        app_mixes=(("launcher", "memopad"),),
        behaviors=("gremlins",),
        durations=(0.01,),
        caches=((8192, 32, 4),),
        archive_traces=True,
    )

    def test_campaign_archives_and_resume_verifies(self, tmp_path):
        from repro.fleet import CampaignSpec, JournalError, run_campaign
        from repro.fleet.journal import JOURNAL_NAME, read_journal

        spec = CampaignSpec(name="tr", sessions=2, seed=23, **self.SPEC)
        out = tmp_path / "camp"
        result = run_campaign(spec, out)
        assert result.complete and result.completed == 2
        digests = {}
        for entry in read_journal(out / JOURNAL_NAME):
            if entry["kind"] == "done":
                digests[entry["id"]] = entry["stats"]["trace_digest"]
        assert len(digests) == 2
        for session_id, digest in digests.items():
            with TraceContainer(out / "traces"
                                / f"{session_id}.ptrc") as container:
                assert container.digest == digest
                container.verify(deep=True)
        # Clean resume re-verifies and runs nothing.
        resumed = run_campaign(spec, out, resume=True)
        assert resumed.ran == 0 and resumed.complete
        # Payload corruption (digest in the footer untouched) must
        # still fail the resume: the check is deep.
        victim = out / "traces" / "s00000.ptrc"
        data = bytearray(victim.read_bytes())
        data[60] ^= 0xFF
        victim.write_bytes(bytes(data))
        with pytest.raises(JournalError):
            run_campaign(spec, out, resume=True)
        # A missing member fails too.
        victim.unlink()
        with pytest.raises(JournalError):
            run_campaign(spec, out, resume=True)


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------

class TestCliTrace:
    def make_container(self, tmp_path, n=500, seed=51):
        path = tmp_path / "t.ptrc"
        write_container(random_tokens(n, seed=seed), path,
                        chunk_tokens=128)
        return path

    def test_info_verify_cat(self, tmp_path, capsys):
        from repro.cli import main

        path = self.make_container(tmp_path)
        assert main(["trace", "info", str(path)]) == 0
        out = capsys.readouterr().out
        assert "500" in out and "zlib" in out
        assert main(["trace", "verify", str(path)]) == 0
        assert "verify OK" in capsys.readouterr().out
        assert main(["trace", "cat", str(path), "--limit", "3"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3

    def test_convert_matrix(self, tmp_path, capsys):
        from repro.cli import main

        ptrc = self.make_container(tmp_path)
        # Re-encoding under another codec and chunking keeps the digest.
        raw = tmp_path / "raw.ptrc"
        assert main(["trace", "convert", str(ptrc), str(raw),
                     "--codec", "raw", "--chunk-tokens", "64"]) == 0
        with TraceContainer(ptrc) as a, TraceContainer(raw) as b:
            assert a.digest == b.digest
            assert (b.codec, b.n_chunks) == ("raw", 8)
        # ptrc -> din -> ptrc -> din: dinero carries no region, so the
        # re-imported container keeps addresses and kinds, and the
        # second export is byte-identical to the first.
        din = tmp_path / "t.din"
        back = tmp_path / "back.ptrc"
        din2 = tmp_path / "back.din"
        for src, dst in [(raw, din), (din, back), (back, din2)]:
            assert main(["trace", "convert", str(src), str(dst)]) == 0
        assert din.stat().st_size > 0
        assert din2.read_bytes() == din.read_bytes()
        with TraceContainer(ptrc) as a, TraceContainer(back) as b:
            before, after = a.reference_trace(), b.reference_trace()
        assert np.array_equal(before.addresses, after.addresses)
        assert np.array_equal(before.kind, after.kind)
        assert sorted(tmp_path.iterdir()) == sorted(
            [ptrc, raw, din, back, din2])
        capsys.readouterr()
        assert main(["trace", "cat", str(raw)]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 500

    def test_bad_dinero_reports_line_and_leaves_no_file(self, tmp_path,
                                                        capsys):
        from repro.cli import main

        bad = tmp_path / "bad.din"
        bad.write_text("0 1000\n7 2000\n")
        out = tmp_path / "out.ptrc"
        assert main(["trace", "convert", str(bad), str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("convert failed: line 2: unknown dinero "
                              "label")
        assert len(err.splitlines()) == 1
        assert sorted(tmp_path.iterdir()) == [bad]
        assert main(["trace", "cat", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("cat failed: line 2: unknown dinero label")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv,status,message", [
        pytest.param(["sweep", "--trace", "{junk}"], 1,
                     "not a readable container", id="sweep-junk"),
        pytest.param(["trace", "cat", "{junk}"], 1,
                     "not a readable container", id="cat-junk"),
        pytest.param(["trace", "info", "{junk}"], 1,
                     "not a readable container", id="info-junk"),
        pytest.param(["sweep", "--trace", "{din}"], 2, "trace convert",
                     id="sweep-din"),
        pytest.param(["sweep", "--trace", "{dir}/t.npz"], 2,
                     "PTRC traces only", id="sweep-npz"),
        pytest.param(["trace", "convert", "{junk}", "{dir}/out.ptrc"], 1,
                     "convert failed", id="convert-junk"),
        pytest.param(["trace", "convert", "{dir}/missing.din",
                      "{dir}/out.ptrc"], 1, "convert failed",
                     id="convert-missing"),
        pytest.param(["trace", "convert", "{dir}/t.npz", "{dir}/out.ptrc"],
                     2, "unknown trace format", id="convert-from-npz"),
        pytest.param(["trace", "convert", "{din}", "{dir}/out.npz"], 2,
                     "unknown destination format", id="convert-to-npz"),
        pytest.param(["trace", "cat", "{dir}/t.npz"], 2,
                     "unknown trace format", id="cat-npz"),
    ])
    def test_bad_inputs_exit_cleanly(self, tmp_path, capsys, argv, status,
                                     message):
        from repro.cli import main

        junk = tmp_path / "junk.ptrc"
        junk.write_bytes(b"not a container" * 10)
        din = tmp_path / "x.din"
        din.write_text("0 1000\n")
        (tmp_path / "t.npz").write_bytes(b"PK\x03\x04")
        before = sorted(tmp_path.iterdir())
        argv = [a.format(junk=junk, din=din, dir=tmp_path) for a in argv]
        assert main(argv) == status
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        # One line, plus the salvage hint for a damaged container.
        lines = err.splitlines()
        assert len(lines) == 1 or (
            len(lines) == 2 and "trace verify --salvage" in lines[1])
        assert sorted(tmp_path.iterdir()) == before

    def test_verify_salvage_recovers_prefix(self, tmp_path, capsys):
        from repro.cli import main

        path = self.make_container(tmp_path)
        entries, _, _ = scan_frames(path)
        torn = tmp_path / "torn.ptrc"
        torn.write_bytes(path.read_bytes()[:entries[2]["offset"] + 30])
        rec = tmp_path / "rec.ptrc"
        assert main(["trace", "verify", str(torn),
                     "--salvage", str(rec)]) == 0
        assert "recovered" in capsys.readouterr().out
        with TraceContainer(rec) as container:
            container.verify(deep=True)
            assert container.tokens > 0
