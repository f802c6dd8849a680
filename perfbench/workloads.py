"""The benchmark's three workloads, driven through ``repro``'s public API.

Each workload is built from ``--seed`` alone and has the same shape:
``setup()`` runs once before the first timed call, ``iterate(index)``
runs one timed unit of work on the workload's ``index``-th input (of
``inputs``, one unless the class says otherwise) and returns a
:class:`Sample` (its timings, the number of operations it attempted,
and the simulated outputs to check), and ``metrics()`` reduces the
samples to the end-to-end metrics.

* ``case_study`` — the paper's single-volunteer pipeline: collect a
  Table 1 style session, replay it with profiling while streaming the
  reference trace into a PTRC container, then run the 56-configuration
  paper sweep from that container.
* ``fleet`` — a gremlins campaign through ``run_campaign``: many short
  sessions, each in its own forked worker.
* ``archive_resim`` — set-up archives the seed's ``case_study`` session
  as PTRC; the timed unit re-simulates it under 16 write-aware cache
  configurations.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro import collect_table1_session, replay_session, standard_apps
from repro.cache import CacheConfig, simulate, sweep_parallel
from repro.cache.cache import (POLICY_FIFO, POLICY_LRU, WRITE_BACK,
                               WRITE_THROUGH)
from repro.fleet import CampaignSpec, run_campaign
from repro.fleet import worker as fleet_worker
from repro.traces.container import ContainerWriter, TraceContainer
from repro.workloads import SessionSpec

#: Worker processes for the sweeps and the fleet.  One, so that a timed
#: unit never has more runnable processes than the host has CPUs, and
#: its CPU time is the work of the pipeline itself: the sweeps run
#: in-process and the fleet runs one session worker at a time.
JOBS = 1

#: The m515 geometry used by the replay (as in the repo's perf harness).
EMULATOR_KW = {"ram_size": 8 << 20, "flash_size": 1 << 20}

#: The stated input size that ``pipeline_s`` is scaled to: the memory
#: references of the default seed's ``case_study`` session.  Session
#: length varies with the seed (2.3M to 3.7M references), so times are
#: reported per reference-sized session to keep seeds comparable.
REFERENCE_REFS = 2_329_933
#: The guest instructions of that session.
REFERENCE_INSN = 1_116_869

#: The stated input sizes of the fleet's rates: the guest instructions
#: that the default seed's sessions replay, and the references they
#: simulate.  A session's replay stage takes about the same time however
#: many instructions it replays (0.2 to 0.34 s for 130k to 820k), and
#: its simulate stage follows the trace's content more than its length
#: (0.09 to 0.72 s for 0.4M to 1.3M references), so each seed's own
#: counts would only add their spread.
FLEET_REFERENCE_INSN = 3_927_434
FLEET_REFERENCE_REFS = 9_663_040


@dataclass(frozen=True)
class Scale:
    """How big one timed unit is.  ``full`` is the benchmark of record;
    ``tiny`` is for the benchmark's own tests."""

    hours: float
    bouts: int
    contacts: int
    fleet_sessions: int
    resim_sizes: tuple


SCALES = {
    "full": Scale(hours=6.0, bouts=16, contacts=12, fleet_sessions=12,
                  resim_sizes=(8192, 32768)),
    "tiny": Scale(hours=0.5, bouts=2, contacts=2, fleet_sessions=3,
                  resim_sizes=(8192,)),
}


@dataclass
class Sample:
    """One timed unit: its wall and CPU time (s), the CPU time of its
    stages, counts, and the outputs to check."""

    wall: float
    cpu: float
    times: Dict[str, float]
    counts: Dict[str, float]
    fingerprint: dict
    #: Which of the run's inputs the unit ran (see ``CaseStudy``).
    input: int = 0
    #: The typical peak RSS (MB) of the unit's worker processes, where
    #: the workload measures it (see ``Fleet``).
    worker_peak_mb: Optional[float] = None
    ops: int = 1
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def at_speed(self, speed: float) -> None:
        """Scale the CPU times to a host ``speed`` times as fast as this
        one (see ``perfbench/speed.py``)."""
        self.cpu *= speed
        self.times = {name: value * speed
                      for name, value in self.times.items()}


def _median(values) -> float:
    return float(statistics.median(values))


def cpu_seconds() -> float:
    """CPU time (user + system) of this process and of its finished,
    waited-for children, such as the fleet's session workers.  Time the
    process spends waiting for a CPU, to other processes or to the
    hypervisor, is not in it."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    done = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + done.ru_utime + done.ru_stime


def own_peak_mb() -> float:
    """This process's peak RSS in MB: ``VmHWM``, which ``clear_refs``
    can reset, where Linux reports it; else ``ru_maxrss``."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Timer:
    """Wall and CPU time since it was made."""

    def __init__(self):
        self.wall0, self.cpu0 = time.perf_counter(), cpu_seconds()

    def wall(self) -> float:
        return time.perf_counter() - self.wall0

    def cpu(self) -> float:
        return cpu_seconds() - self.cpu0


def session_spec(seed: int, scale: Scale) -> SessionSpec:
    return SessionSpec(name="bench", seed=seed, hours=scale.hours,
                       bouts=scale.bouts, contacts=scale.contacts)


def config_key(config: CacheConfig) -> str:
    alloc = "wa" if config.write_allocate else "nwa"
    return (f"{config.label()}/{config.policy}/{config.write_policy}/"
            f"{alloc}")


def archive_session(spec: SessionSpec, path: Path) -> dict:
    """Collect a session and replay it with profiling into a PTRC
    container at ``path``.  Returns the CPU time of the replay call and
    the guest counters."""
    session = collect_table1_session(spec, ram_size=EMULATOR_KW["ram_size"])
    with ContainerWriter(path) as writer:
        timer = Timer()
        emulator, _, _ = replay_session(
            session.initial_state, session.log, apps=standard_apps(),
            profile=True, emulator_kwargs=EMULATOR_KW,
            trace_sink=writer, trace_spill=True)
        replay_s = timer.cpu()
    cpu = emulator.device.cpu
    return {"replay": replay_s, "instructions": cpu.instructions,
            "cycles": cpu.cycles, "digest": writer.manifest["digest"]}


def session_seed(seed: int, index: int) -> int:
    """The seed of a run's ``index``-th session; the first session's is
    the run's own seed."""
    return seed + 1_000_003 * index


def _by_input(samples: List[Sample]) -> Dict[int, List[Sample]]:
    groups: Dict[int, List[Sample]] = {}
    for sample in samples:
        groups.setdefault(sample.input, []).append(sample)
    return dict(sorted(groups.items()))


class CaseStudy:
    """collect -> profiled replay into PTRC -> paper sweep from PTRC."""

    name = "case_study"
    #: The run's inputs: sessions, each with its own seed
    #: (:func:`session_seed`), which the units take in turn.  The host
    #: time per guest instruction or per reference differs by about 5%
    #: from one session to the next, so a run measures several.
    inputs = 2
    #: The first unit also fills the process-wide caches of compiled
    #: fused blocks and region facts.  It is a warm-up; every session
    #: then runs at least once more.
    min_samples = inputs + 1
    first_unit_cold = True

    def __init__(self, seed: int, workdir: Path, scale: Scale):
        self.seed, self.workdir, self.scale = seed, workdir, scale

    def setup(self) -> None:
        self.specs = [session_spec(session_seed(self.seed, index),
                                   self.scale)
                      for index in range(self.inputs)]

    def iterate(self, index: int = 0) -> Sample:
        path = self.workdir / "case.ptrc"
        timer = Timer()
        run = archive_session(self.specs[index], path)
        sweep = Timer()
        points = sweep_parallel(container=path, jobs=JOBS)
        sweep_s = sweep.cpu()
        wall, cpu = timer.wall(), timer.cpu()
        path.unlink()
        refs = points[0].accesses
        return Sample(
            wall=wall, cpu=cpu,
            times={"replay": run["replay"], "sweep": sweep_s},
            counts={"refs": refs, "instructions": run["instructions"],
                    "configs": len(points)},
            fingerprint={
                "cycles": run["cycles"],
                "instructions": run["instructions"],
                "ptrc_digest": run["digest"],
                "misses": {p.config.label(): int(p.misses)
                           for p in points},
            },
            input=index)

    def check(self, sample: Sample) -> List[str]:
        return []

    def metrics(self, samples: List[Sample]) -> dict:
        """Each session's median over its units, then totals over the
        sessions: times per reference-sized session, and rates as total
        work over total time."""
        sessions = [
            {"cpu": _median([s.cpu for s in group]),
             "replay": _median([s.times["replay"] for s in group]),
             "sweep": _median([s.times["sweep"] for s in group]),
             **group[0].counts}
            for group in _by_input(samples).values()]

        def total(key):
            return sum(session[key] for session in sessions)

        pipeline = total("cpu") * REFERENCE_REFS / total("refs")
        sweep = (sum(s["refs"] * s["configs"] for s in sessions)
                 / total("sweep"))
        return {
            "pipeline_s": pipeline,
            "replay_insn_per_s": total("instructions") / total("replay"),
            "sweep_refs_per_s": sweep,
            "sessions_per_min": 60.0 / pipeline,
            # The sweep reads back the container the replay wrote.
            "resim_refs_per_s": sweep,
        }


class SessionProbe:
    """Each fleet session worker's CPU time per stage and peak RSS.

    Wraps ``repro.fleet.worker.run_session``, which the forked worker
    looks up when it starts its session.  The worker notes its CPU clock
    at each ``beat`` stage boundary and at the end, and its peak RSS,
    and writes them to ``session-<pid>.json`` in :attr:`directory` once
    the session has succeeded.
    """

    directory: Optional[Path] = None

    @classmethod
    def install(cls, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        cls.directory = directory
        original = fleet_worker.run_session
        if getattr(original, "session_probe", False):
            return

        @functools.wraps(original)
        def run_session(plan, *args, beat=lambda stage: None, **kwargs):
            marks = []

            def noted(stage: str) -> None:
                marks.append((stage, time.process_time()))
                beat(stage)

            stats = original(plan, *args, beat=noted, **kwargs)
            marks.append(("end", time.process_time()))
            record = {"index": plan.index, "marks": dict(marks),
                      "peak_mb": own_peak_mb()}
            path = cls.directory / f"session-{os.getpid()}.json"
            try:
                path.write_text(json.dumps(record))
            except OSError:
                pass
            return stats

        run_session.session_probe = True
        fleet_worker.run_session = run_session

    @classmethod
    def collect(cls) -> Dict[int, dict]:
        """The records of the sessions run since the last call, by
        session index."""
        records = {}
        for path in sorted(cls.directory.glob("session-*.json")):
            record = json.loads(path.read_text())
            path.unlink()
            records[record["index"]] = record
        return records


class Fleet:
    """A gremlins campaign, one forked worker per session, run as three
    campaigns of a third of the sessions each."""

    name = "fleet"
    #: The run's inputs: the three part campaigns.  Part ``k`` has the
    #: campaign seed ``seed + k * n`` for ``n`` sessions each, so with
    #: ``n`` even they run the sessions (seeds and app mixes) of one
    #: campaign of ``3 * n`` sessions with the run's seed, in units
    #: short enough to time one by one.
    inputs = 3
    #: Every session forks a fresh worker, so no unit is warmer than
    #: another; every part runs once.
    min_samples = inputs
    first_unit_cold = False
    cache = (8192, 32, 4)

    def __init__(self, seed: int, workdir: Path, scale: Scale):
        self.seed, self.workdir, self.scale = seed, workdir, scale
        self.runs = 0
        self.worker_peaks: List[float] = []
        SessionProbe.install(workdir / "sessions")

    def setup(self) -> None:
        sessions = max(1, self.scale.fleet_sessions // self.inputs)
        self.specs = [CampaignSpec(
            name="bench-fleet", sessions=sessions,
            seed=self.seed + index * sessions,
            app_mixes=(("launcher", "memopad"), ("launcher", "puzzle")),
            behaviors=("gremlins",), durations=(0.01,),
            caches=(self.cache,), archive_traces=True)
            for index in range(self.inputs)]

    def iterate(self, index: int = 0) -> Sample:
        spec = self.specs[index]
        self.out = self.workdir / f"fleet-{self.runs}"
        self.runs += 1
        timer = Timer()
        result = run_campaign(spec, self.out, jobs=JOBS, hang_timeout=60.0)
        wall, cpu = timer.wall(), timer.cpu()
        aggregates = (self.out / "aggregates.json").read_bytes()
        self.sessions = sessions = result.aggregate.sessions
        probes = SessionProbe.collect()
        marks = [probes[i]["marks"] for i in sessions if i in probes]
        self.worker_peaks += [probe["peak_mb"] for probe in probes.values()]
        return Sample(
            wall=wall, cpu=cpu,
            times={"replay": sum(m["simulate"] - m["replay"]
                                 for m in marks),
                   "simulate": sum(m["end"] - m["simulate"]
                                   for m in marks)},
            # Over the sessions run so far.
            worker_peak_mb=_median(self.worker_peaks),
            counts={"ran": result.ran},
            fingerprint={
                "complete": result.complete,
                "aggregates_sha256": hashlib.sha256(aggregates).hexdigest(),
            },
            input=index,
            ops=len(spec.expand()),
            failed=result.quarantined,
            problems=[] if result.complete else ["campaign incomplete"])

    def check(self, sample: Sample) -> List[str]:
        """Deep-verify every archived container, then re-simulate it: the
        archive must reproduce the session's own cache statistics, with
        the cache starting empty."""
        problems = []
        config = CacheConfig(*self.cache)
        for index, stats in sorted(self.sessions.items()):
            path = self.out / "traces" / f"{stats['session_id']}.ptrc"
            with TraceContainer(path) as container:
                container.verify(deep=True)
                if container.digest != stats["trace_digest"]:
                    problems.append(f"session {index}: trace digest "
                                    "differs from the journal")
            (point,) = sweep_parallel(configs=[config], container=path,
                                      jobs=1)
            if (point.accesses, point.misses) != (stats["accesses"],
                                                  stats["misses"]):
                problems.append(f"session {index}: archive re-simulation "
                                "differs from the session's stats")
        shutil.rmtree(self.out)
        return problems

    def metrics(self, samples: List[Sample]) -> dict:
        """Each part's median over its units, then totals over the
        parts, as for one campaign of all their sessions."""
        parts = [
            {"cpu": _median([s.cpu for s in group]),
             "replay": _median([s.times["replay"] for s in group]),
             **group[0].counts}
            for group in _by_input(samples).values()]

        def total(key):
            return sum(part[key] for part in parts)

        # Each session simulates its own trace once, from memory, and
        # archives it; the archive re-simulation in check() is a
        # correctness check, too short to time steadily.  The nearest
        # equivalent of a simulation rate is the stated references per
        # CPU second of the whole campaign.
        simulate = FLEET_REFERENCE_REFS / total("cpu")
        return {
            "pipeline_s": total("cpu"),
            "replay_insn_per_s": FLEET_REFERENCE_INSN / total("replay"),
            "sweep_refs_per_s": simulate,
            "sessions_per_min": 60.0 * total("ran") / total("cpu"),
            "resim_refs_per_s": simulate,
        }


def resim_configs(sizes) -> List[CacheConfig]:
    """LRU/FIFO x write-through/write-back x allocate/no-allocate at
    each size: the write-aware set the batch kernels serve."""
    return [CacheConfig(size, 16, 4, policy=policy, write_policy=wp,
                        write_allocate=alloc)
            for size in sizes
            for policy in (POLICY_LRU, POLICY_FIFO)
            for wp in (WRITE_THROUGH, WRITE_BACK)
            for alloc in (True, False)]


class ArchiveResim:
    """Re-simulate an archived PTRC session under write-aware configs."""

    name = "archive_resim"
    min_samples = 3
    first_unit_cold = True
    #: Set-ups per run (``setup_s`` is their median; the last archive
    #: is the one re-simulated).
    setups = 2

    def __init__(self, seed: int, workdir: Path, scale: Scale):
        self.seed, self.workdir, self.scale = seed, workdir, scale
        self.configs = resim_configs(scale.resim_sizes)
        self.checked = False

    def setup(self) -> None:
        self.path = self.workdir / "archive.ptrc"
        archive_session(session_spec(self.seed, self.scale), self.path)

    def cross_check(self, points) -> List[str]:
        """One configuration re-run by the in-RAM kernel on the whole
        decoded trace (outside the timed region)."""
        with TraceContainer(self.path) as container:
            trace = container.reference_trace().memory_only()
        config = next(c for c in self.configs
                      if c.write_policy == WRITE_BACK and c.write_allocate
                      and c.policy == POLICY_LRU)
        stats = simulate(trace.addresses, config, writes=trace.is_write)
        point = next(p for p in points if p.config == config)
        got = (point.accesses, point.misses, point.writebacks,
               point.write_throughs)
        want = (stats.accesses, stats.misses, stats.writebacks,
                stats.write_throughs)
        if got != want:
            return [f"{config_key(config)}: streamed {got} != in-RAM {want}"]
        return []

    def iterate(self, index: int = 0) -> Sample:
        timer = Timer()
        points = sweep_parallel(configs=self.configs, container=self.path,
                                jobs=JOBS)
        wall, cpu = timer.wall(), timer.cpu()
        self.points = points
        return Sample(
            wall=wall, cpu=cpu, times={},
            counts={"refs": points[0].accesses},
            fingerprint={config_key(p.config): [int(p.accesses),
                                                int(p.misses),
                                                int(p.writebacks),
                                                int(p.write_throughs)]
                         for p in points})

    def check(self, sample: Sample) -> List[str]:
        if self.checked:
            return []
        self.checked = True
        return self.cross_check(self.points)

    def metrics(self, samples: List[Sample]) -> dict:
        n = len(self.configs)
        pipeline = _median([s.cpu * REFERENCE_REFS / s.counts["refs"]
                            for s in samples])
        rate = _median([s.counts["refs"] * n / s.cpu for s in samples])
        return {
            "pipeline_s": pipeline,
            # No guest code runs in the timed unit: this is the guest
            # instructions whose trace is re-simulated per second, for
            # the reference-sized session.
            "replay_insn_per_s": REFERENCE_INSN / pipeline,
            "sweep_refs_per_s": rate,
            "sessions_per_min": 60.0 / pipeline,
            "resim_refs_per_s": rate,
        }


WORKLOADS = {cls.name: cls for cls in (CaseStudy, Fleet, ArchiveResim)}
