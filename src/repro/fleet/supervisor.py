"""The fleet supervisor: a crash-only orchestrator over worker processes.

Supervision tree::

    FleetSupervisor (the only writer of journal/manifest/aggregates)
      ├── worker process: session 0   (collect→replay→simulate)
      ├── worker process: session 1
      └── ... up to ``jobs`` live at once

The supervisor trusts nothing about a worker except its process state
and its messages.  Failure taxonomy and response:

* **worker raised** — it sent ``("fail", ...)``; retry with backoff,
  then quarantine.
* **worker crashed** — the process died without a verdict (segfault,
  OOM kill, chaos ``os._exit``); detected via exit code after the
  message queue drains.  Same retry path.
* **worker hung** — no heartbeat for ``hang_timeout`` seconds; the
  supervisor SIGKILLs it and treats it as crashed.  Beats are sent at
  pipeline-stage boundaries, so the timeout must exceed the slowest
  single stage, not the whole session.
* **supervisor died** — the journal is append-only and fsynced, so a
  fresh supervisor (``fleet --resume``) folds it back and re-runs only
  sessions without a durable verdict.  Stats records are deterministic
  (see :mod:`.worker`), so the merged aggregate is byte-identical to an
  uninterrupted run's.

Retry backoff is exponential with deterministic-per-(session, attempt)
jitter: ``base * 2**attempt + U(0, base)``.  Backoff shapes *when* a
retry runs, never *what* it computes, so it is free to be tuned
without touching the determinism story.
"""

from __future__ import annotations

import queue as queue_mod
import random
import time
from dataclasses import dataclass
from multiprocessing import get_context
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from .aggregate import PopulationAggregate
from .campaign import CampaignSpec, SessionPlan
from .journal import (
    AGGREGATE_NAME,
    JOURNAL_NAME,
    CampaignJournal,
    JournalError,
    read_journal,
    read_manifest,
    replay_journal,
    write_json_atomic,
    write_manifest,
)
from .worker import import_stage_modules, plan_to_json, worker_main

#: How often the supervisor wakes to reap/spawn when no messages flow.
_POLL_SECONDS = 0.1


@dataclass
class FleetResult:
    """What one supervisor run produced."""

    aggregate: PopulationAggregate
    sessions: int                      #: planned campaign size
    ran: int                           #: sessions executed this run
    retried: int                       #: retry attempts this run
    crashes: int                       #: worker crashes observed
    hangs: int                         #: hang-timeout kills
    wall_seconds: float
    out_dir: Path
    interrupted: bool = False

    @property
    def completed(self) -> int:
        return len(self.aggregate.sessions)

    @property
    def quarantined(self) -> int:
        return len(self.aggregate.quarantined)

    @property
    def complete(self) -> bool:
        """Every planned session has a durable verdict (done or
        quarantined) — the campaign is finished, possibly tainted."""
        return (not self.interrupted
                and self.completed + self.quarantined >= self.sessions)

    def sessions_per_minute(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return 60.0 * self.ran / self.wall_seconds

    def format(self, name: str = "") -> str:
        lines = [self.aggregate.format(name or None)]
        ops = (f"  fleet   : ran {self.ran} session(s) this run, "
               f"{self.retried} retr{'y' if self.retried == 1 else 'ies'}, "
               f"{self.crashes} crash(es), {self.hangs} hang kill(s)")
        if self.wall_seconds > 0 and self.ran:
            ops += f"; {self.sessions_per_minute():.1f} sessions/min"
        lines.append(ops)
        if self.interrupted:
            lines.append("  status  : interrupted — resume with "
                         "`palm-repro fleet --resume`")
        elif not self.complete:
            lines.append("  status  : incomplete")
        return "\n".join(lines)


@dataclass
class _Worker:
    process: object
    plan: SessionPlan
    attempt: int
    last_beat: float
    stage: str = "spawn"


class FleetSupervisor:
    """Run (or resume) one campaign in ``out_dir``."""

    def __init__(self, spec: CampaignSpec, out_dir: Union[str, Path], *,
                 jobs: int = 1,
                 hang_timeout: float = 120.0,
                 retries: int = 2,
                 backoff_base: float = 0.25,
                 chaos: Optional[dict] = None,
                 progress: Optional[Callable[[str], None]] = None):
        self.spec = spec
        self.out_dir = Path(out_dir)
        self.jobs = max(1, jobs)
        self.hang_timeout = hang_timeout
        self.retries = max(0, retries)
        self.backoff_base = backoff_base
        #: index → chaos directive dict (see :mod:`.chaos`).
        self.chaos = chaos or {}
        self._progress = progress or (lambda text: None)
        self._ctx = get_context("fork")
        #: Where workers archive per-session PTRC traces (spec-gated).
        self.trace_dir = (self.out_dir / "traces"
                          if spec.archive_traces else None)

    # -- public -----------------------------------------------------------
    def run(self, resume: bool = False) -> FleetResult:
        started = time.monotonic()
        self.out_dir.mkdir(parents=True, exist_ok=True)
        digest = self.spec.digest()
        if resume:
            _, recorded = read_manifest(self.out_dir)
            if recorded != digest:
                raise JournalError(
                    f"{self.out_dir}: manifest digest {recorded[:12]} does "
                    f"not match the spec being resumed ({digest[:12]}) — "
                    "refusing to mix campaigns")
        else:
            write_manifest(self.out_dir, self.spec.to_json(), digest)

        aggregate = PopulationAggregate()
        completed, quarantined = {}, {}
        if resume:
            entries = read_journal(self.out_dir / JOURNAL_NAME)
            completed, quarantined = replay_journal(iter(entries))
            for index, stats in completed.items():
                aggregate.add(index, stats)
            for index, reason in quarantined.items():
                aggregate.quarantine(index, reason)
            if self.trace_dir is not None:
                self._verify_trace_archive(completed)
            self._progress(
                f"resume: {len(completed)} done, {len(quarantined)} "
                f"quarantined, journal replayed")

        plans = self.spec.expand()
        todo = [p for p in plans
                if p.index not in completed and p.index not in quarantined]
        self._progress(f"{len(todo)} of {len(plans)} session(s) to run "
                       f"({self.jobs} worker(s))")

        import_stage_modules()
        interrupted = False
        counters = {"ran": 0, "retried": 0, "crashes": 0, "hangs": 0}
        with CampaignJournal(self.out_dir / JOURNAL_NAME) as journal:
            try:
                self._supervise(todo, journal, aggregate, counters)
            except KeyboardInterrupt:
                interrupted = True
        write_json_atomic(self.out_dir / AGGREGATE_NAME, aggregate.to_json())
        return FleetResult(
            aggregate=aggregate,
            sessions=len(plans),
            ran=counters["ran"],
            retried=counters["retried"],
            crashes=counters["crashes"],
            hangs=counters["hangs"],
            wall_seconds=time.monotonic() - started,
            out_dir=self.out_dir,
            interrupted=interrupted,
        )

    # -- internals --------------------------------------------------------
    def _verify_trace_archive(self, completed: Dict[int, dict]) -> None:
        """Cross-check every journaled trace digest against the PTRC
        file on disk before resuming — a swapped, truncated or corrupt
        archive must fail loudly, not taint the merged aggregate."""
        from ..traces.container import TraceContainer, TraceContainerError

        for index in sorted(completed):
            stats = completed[index]
            digest = stats.get("trace_digest")
            if digest is None:
                continue
            path = self.trace_dir / f"{stats['session_id']}.ptrc"
            if not path.exists():
                raise JournalError(
                    f"{path}: journaled trace container is missing — "
                    "the archive does not match the journal (restore "
                    "it or restart the campaign in a fresh directory)")
            try:
                with TraceContainer(path) as container:
                    on_disk = container.digest
                    # Deep verify: the manifest digest alone would still
                    # match after payload corruption — walk the chunk
                    # crc32s and recompute the content digest.
                    container.verify(deep=True)
            except TraceContainerError as exc:
                raise JournalError(
                    f"{path}: journaled trace container failed "
                    f"verification: {exc}") from exc
            if on_disk != digest:
                raise JournalError(
                    f"{path}: trace digest mismatch — journal says "
                    f"{digest[:12]}…, container holds {on_disk[:12]}… "
                    "(the archive was modified since the session ran)")

    def _backoff(self, plan: SessionPlan, attempt: int) -> float:
        rng = random.Random(f"backoff|{plan.index}|{attempt}")
        return self.backoff_base * (2 ** attempt) + rng.uniform(
            0, self.backoff_base)

    def _spawn(self, msg_queue, plan: SessionPlan, attempt: int) -> _Worker:
        directive = self.chaos.get(plan.index)
        process = self._ctx.Process(
            target=worker_main,
            args=(plan_to_json(plan), msg_queue, attempt,
                  self.spec.policy, self.spec.checkpoint_every, directive,
                  str(self.trace_dir) if self.trace_dir else None),
            daemon=True,
            name=f"fleet-{plan.session_id}-a{attempt}",
        )
        process.start()
        return _Worker(process=process, plan=plan, attempt=attempt,
                       last_beat=time.monotonic())

    def _supervise(self, todo: List[SessionPlan], journal: CampaignJournal,
                   aggregate: PopulationAggregate, counters: Dict[str, int]
                   ) -> None:
        msg_queue = self._ctx.Queue()
        by_index = {p.index: p for p in todo}
        #: (ready_time, attempt, index) — a simple time-ordered runqueue.
        runnable: List[Tuple[float, int, int]] = [
            (0.0, 0, p.index) for p in todo]
        running: Dict[int, _Worker] = {}
        finished: set = set()

        def handle_failure(index: int, attempt: int, reason: str) -> None:
            journal.append({"kind": "fail", "index": index,
                            "attempt": attempt, "reason": reason})
            if attempt < self.retries:
                counters["retried"] += 1
                delay = self._backoff(by_index[index], attempt)
                runnable.append((time.monotonic() + delay, attempt + 1,
                                 index))
                self._progress(f"{by_index[index].session_id}: attempt "
                               f"{attempt} failed ({reason.splitlines()[0]});"
                               f" retrying in {delay:.2f}s")
            else:
                journal.append({"kind": "quarantine", "index": index,
                                "reason": reason})
                aggregate.quarantine(index, reason)
                finished.add(index)
                self._progress(f"{by_index[index].session_id}: quarantined "
                               f"after {attempt + 1} attempt(s)")

        def handle_message(message) -> None:
            kind, index, payload = message
            if kind == "beat":
                worker = running.get(index)
                if worker is not None:
                    worker.last_beat = time.monotonic()
                    worker.stage = payload
            elif kind == "done":
                journal.append({"kind": "done", "index": index,
                                "id": payload["session_id"],
                                "stats": payload})
                aggregate.add(index, payload)
                finished.add(index)
                worker = running.get(index)
                if worker is not None:
                    self._progress(f"{payload['session_id']}: done "
                                   f"({payload['events']} events, miss "
                                   f"{100 * payload['miss_rate']:.2f}%)")
            elif kind == "fail":
                worker = running.pop(index, None)
                if worker is None or index in finished:
                    # The crash/hang reaper (or an earlier verdict)
                    # already settled this index; a late fail message
                    # must not re-enter retry accounting with a bogus
                    # attempt number.
                    return
                worker.process.join(timeout=5)
                reason = f"{payload['error']}: {payload['message']}"
                handle_failure(index, worker.attempt, reason)

        def drain() -> None:
            while True:
                try:
                    handle_message(msg_queue.get_nowait())
                except queue_mod.Empty:
                    return

        try:
            while runnable or running:
                now = time.monotonic()
                # Spawn every runnable session with a free worker slot.
                runnable.sort()
                while runnable and len(running) < self.jobs:
                    ready, attempt, index = runnable[0]
                    if ready > now:
                        break
                    runnable.pop(0)
                    journal.append({"kind": "start", "index": index,
                                    "attempt": attempt})
                    running[index] = self._spawn(msg_queue,
                                                 by_index[index], attempt)
                    counters["ran"] += 1 if attempt == 0 else 0

                # Wait for one message (or a poll tick), then drain.
                try:
                    handle_message(msg_queue.get(timeout=_POLL_SECONDS))
                except queue_mod.Empty:
                    pass
                drain()

                # Reap: done workers leave; dead-without-verdict crashed;
                # silent workers past the hang timeout get killed.
                now = time.monotonic()
                for index, worker in list(running.items()):
                    if index not in running:
                        # A drain() while reaping an earlier worker
                        # consumed this one's verdict and already
                        # handled it (retry scheduled or quarantined).
                        continue
                    if index in finished:
                        worker.process.join(timeout=5)
                        running.pop(index, None)
                        continue
                    if not worker.process.is_alive():
                        drain()  # a verdict may still be in flight
                        if index in finished or index not in running:
                            continue
                        counters["crashes"] += 1
                        running.pop(index)
                        handle_failure(
                            index, worker.attempt,
                            f"worker crashed in stage {worker.stage!r} "
                            f"(exit code {worker.process.exitcode})")
                    elif now - worker.last_beat > self.hang_timeout:
                        counters["hangs"] += 1
                        worker.process.kill()
                        worker.process.join(timeout=5)
                        running.pop(index)
                        handle_failure(
                            index, worker.attempt,
                            f"hang timeout: no heartbeat for "
                            f"{self.hang_timeout:g}s past stage "
                            f"{worker.stage!r}")
        finally:
            for worker in running.values():
                if worker.process.is_alive():
                    worker.process.kill()
                worker.process.join(timeout=5)
            msg_queue.close()


def run_campaign(spec: CampaignSpec, out_dir: Union[str, Path], *,
                 jobs: int = 1, hang_timeout: float = 120.0,
                 retries: int = 2, backoff_base: float = 0.25,
                 chaos: Optional[dict] = None, resume: bool = False,
                 progress: Optional[Callable[[str], None]] = None
                 ) -> FleetResult:
    """Convenience wrapper: build a supervisor and run it."""
    supervisor = FleetSupervisor(
        spec, out_dir, jobs=jobs, hang_timeout=hang_timeout,
        retries=retries, backoff_base=backoff_base, chaos=chaos,
        progress=progress)
    return supervisor.run(resume=resume)


def resume_campaign(out_dir: Union[str, Path], *, jobs: int = 1,
                    hang_timeout: float = 120.0, retries: int = 2,
                    backoff_base: float = 0.25,
                    chaos: Optional[dict] = None,
                    progress: Optional[Callable[[str], None]] = None
                    ) -> FleetResult:
    """Resume a campaign from its directory: the spec comes from the
    manifest, so no flags need repeating."""
    spec_json, _ = read_manifest(out_dir)
    spec = CampaignSpec.from_json(spec_json)
    return run_campaign(spec, out_dir, jobs=jobs,
                        hang_timeout=hang_timeout, retries=retries,
                        backoff_base=backoff_base, chaos=chaos,
                        resume=True, progress=progress)
