"""The fleet worker: one session, one process, one verdict.

A worker runs the full §2 pipeline for a single :class:`SessionPlan` —
collect the session (scripted volunteer or Gremlins), replay it under
the resilient runner, then feed the profiler's reference trace through
the vectorized cache kernels and the energy model — and reduces the
whole thing to one small deterministic stats record.

The worker is *sandboxed* by being a separate process: a crash (bug,
OOM kill, chaos injection) takes down the worker, never the
supervisor.  The contract with the supervisor is a single message
queue carrying exactly three message shapes:

* ``("beat", index, stage)`` — entering a pipeline stage.  Beats are
  the heartbeat: a worker that stops beating past the hang timeout is
  presumed wedged and killed.  Beats happen at stage boundaries on
  purpose — a background heartbeat thread would keep beating straight
  through a genuine stall, which is precisely the failure the timeout
  must catch.
* ``("done", index, stats)`` — the deterministic stats record.
* ``("fail", index, reason)`` — the pipeline raised; the supervisor
  decides between retry and quarantine.

Determinism contract: *nothing* in the stats record may depend on
wall-clock time, the attempt number, the pid, or scheduling — the
record must be byte-identical when the session is re-run after a
crash, because the resume guarantee ("aggregates bit-identical to an
uninterrupted run") is built on it.
"""

from __future__ import annotations

import importlib
import os
import time
import traceback

from .campaign import SessionPlan, mix_to_apps

#: Worker device geometry: the m515 the rest of the repo models (the
#: emulator's flash default differs from collection's, so both are
#: pinned explicitly — the two machines must be equivalent).
WORKER_RAM = 8 << 20
WORKER_FLASH = 1 << 20

#: Pipeline stages, in order.  Chaos directives address these names.
STAGES = ("collect", "replay", "simulate")

#: PRCKPT01 interval used when the campaign spec leaves
#: ``checkpoint_every`` at 0 ("policy default") — matches the
#: resilient runner's own default.
DEFAULT_CHECKPOINT_EVERY = 2000


def _apply_chaos(chaos, stage: str, attempt: int) -> None:
    """Honor a crash/stall directive for this stage and attempt."""
    if not chaos or chaos.get("stage") != stage:
        return
    if attempt not in chaos.get("attempts", [0]):
        return
    mode = chaos.get("mode")
    if mode == "crash":
        # A real worker crash: no exception, no cleanup, no message —
        # the supervisor must notice the exit code on its own.
        os._exit(17)
    elif mode == "stall":
        # A real wedge: stop beating and burn wall-clock until the
        # supervisor's hang timeout kills us.
        time.sleep(chaos.get("seconds", 3600.0))


#: The modules :func:`run_session` imports on first use.  They stay out
#: of ``import repro.fleet``; the supervisor imports them once before it
#: forks, so every session worker inherits them already loaded.
STAGE_MODULES = (
    "repro.analysis.energy",
    "repro.cache.kernels",
    "repro.resilience",
    "repro.traces.container",
    "repro.workloads.gremlins",
    "repro.workloads.sessions",
    "repro.workloads.volunteer",
)


def import_stage_modules() -> None:
    """Import :data:`STAGE_MODULES` (a no-op once they are loaded)."""
    for name in STAGE_MODULES:
        importlib.import_module(name)


def run_session(plan: SessionPlan, *, policy: str = "resync",
                checkpoint_every: int = 0, faults=None,
                trace_dir=None,
                beat=lambda stage: None) -> dict:
    """The collect→replay→simulate pipeline, reduced to a stats record.

    ``beat(stage)`` is called at every stage boundary; ``faults`` is an
    optional fault-plan spec injected into the replay (the chaos
    mode's poison path).  ``checkpoint_every=0`` means "use the policy
    default" of :data:`DEFAULT_CHECKPOINT_EVERY` ticks — checkpointing
    is never disabled, because crash-resume of an interrupted session
    depends on it.

    ``trace_dir`` archives the session's reference trace as a PTRC
    container ``<trace_dir>/<session_id>.ptrc`` (atomic: tmp +
    ``os.replace``) and adds its content digest to the stats record as
    ``trace_digest``.  The digest is a pure function of the trace, so
    it keeps the record's determinism contract.
    """
    from ..analysis.energy import EnergyModel
    from ..cache import CacheConfig, RegionMix
    from ..cache.kernels import simulate_auto
    from ..resilience import resilient_replay
    from ..workloads.gremlins import Gremlins, GremlinConfig, derive_entropy_seed
    from ..workloads.sessions import collect_session
    from ..workloads.volunteer import (
        SessionSpec,
        build_session_script,
        preload_contacts,
    )

    cell = plan.cell
    apps = mix_to_apps(cell.app_mix)

    # -- collect ----------------------------------------------------------
    beat("collect")
    if cell.behavior == "gremlins":
        events = cell.gremlin_events
        script = Gremlins(plan.seed,
                          GremlinConfig(events=events)).build_script()
        session = collect_session(
            apps, script, name=plan.session_id,
            entropy_seed=derive_entropy_seed(plan.seed, apps, events),
            ram_size=WORKER_RAM, default_app="launcher")
    else:
        spec = SessionSpec(name=plan.session_id, seed=plan.seed,
                           hours=cell.duration_hours, bouts=cell.bouts)
        session = collect_session(
            apps, build_session_script(spec), name=plan.session_id,
            entropy_seed=derive_entropy_seed(plan.seed, apps, spec.bouts),
            ram_size=WORKER_RAM, default_app="launcher",
            setup=(lambda kernel: preload_contacts(kernel, spec.contacts))
            if "addressbook" in cell.app_mix else None)

    # -- replay -----------------------------------------------------------
    beat("replay")
    outcome = resilient_replay(
        session.initial_state, session.log, apps=apps,
        profile=True,
        emulator_kwargs={"ram_size": WORKER_RAM,
                         "flash_size": WORKER_FLASH},
        checkpoint_every=checkpoint_every or DEFAULT_CHECKPOINT_EVERY,
        on_divergence=policy,
        faults=faults,
        salvage=faults is not None,
    )

    # -- simulate ---------------------------------------------------------
    beat("simulate")
    profiler = outcome.profiler
    # Out-of-core: the cache kernels stream the profiler's packed
    # chunks (HW references filtered per chunk) — the trace is never
    # concatenated or copied into a second array pair.
    counts = profiler.counts_dict(memory_only=True)
    config = CacheConfig(size=cell.cache_size, line_size=cell.cache_line,
                         associativity=cell.cache_assoc)
    stats = simulate_auto(profiler.cache_chunks(memory_only=True), config)
    mix = RegionMix(counts["ram"], counts["flash"])

    trace_digest = None
    if trace_dir:
        from ..traces.container import ContainerWriter
        os.makedirs(trace_dir, exist_ok=True)
        final_path = os.path.join(trace_dir, f"{plan.session_id}.ptrc")
        tmp_path = f"{final_path}.tmp.{os.getpid()}"
        try:
            with ContainerWriter(
                    tmp_path,
                    session={"session_id": plan.session_id,
                             "seed": plan.seed,
                             "cell": cell.describe()}) as writer:
                for chunk in profiler.chunks():
                    writer.append_tokens(chunk)
            os.replace(tmp_path, final_path)
        except BaseException:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
            raise
        trace_digest = writer.manifest["digest"]
    model = EnergyModel()
    # The kernels hand back numpy scalars; the stats record must be
    # plain JSON types (the journal is the durability boundary).
    miss_rate = float(stats.miss_rate)

    report = outcome.report
    salvage = outcome.salvage
    record = {
        "session_id": plan.session_id,
        "cell_index": cell.index,
        "cell": cell.describe(),
        "behavior": cell.behavior,
        "seed": plan.seed,
        "events": session.events,
        "elapsed_ticks": session.elapsed_ticks,
        "collect_instructions": session.instructions,
        "replay_instructions": outcome.result.instructions,
        "events_injected": outcome.result.events_injected,
        "accesses": int(stats.accesses),
        "hits": int(stats.hits),
        "misses": int(stats.misses),
        "writebacks": int(stats.writebacks),
        "miss_rate": miss_rate,
        "energy_cached": float(model.cached_energy(mix, miss_rate)),
        "energy_no_cache": float(model.no_cache_energy(mix)),
        "energy_savings": float(model.savings(mix, miss_rate)),
        "replay_overhead": (outcome.result.instructions
                            / max(1, session.instructions)),
        "divergences": len(report.divergences) if report else 0,
        "tainted": outcome.tainted,
        "salvage_dropped": salvage.dropped if salvage else 0,
        "salvage_repaired": salvage.repaired if salvage else 0,
    }
    if trace_digest is not None:
        # Key present only when archiving: non-archiving campaigns keep
        # byte-identical stats records across versions.
        record["trace_digest"] = trace_digest
    return record


def worker_main(plan_json: dict, queue, attempt: int,
                policy: str, checkpoint_every: int,
                chaos=None, trace_dir=None) -> None:
    """Process entry point: run one session and report on ``queue``."""
    from .campaign import CampaignCell

    cell = CampaignCell(**plan_json["cell"])
    plan = SessionPlan(index=plan_json["index"], seed=plan_json["seed"],
                       cell=cell)

    def beat(stage: str) -> None:
        _apply_chaos(chaos, stage, attempt)
        queue.put(("beat", plan.index, stage))

    faults = None
    if chaos and chaos.get("mode") == "poison":
        faults = chaos["faults"]
        policy = "strict"
    try:
        stats = run_session(plan, policy=policy,
                            checkpoint_every=checkpoint_every,
                            faults=faults, trace_dir=trace_dir, beat=beat)
    except BaseException as exc:  # noqa: BLE001 - the verdict crosses a process
        queue.put(("fail", plan.index, {
            "error": type(exc).__name__,
            "message": str(exc),
            "trace": traceback.format_exc(limit=8),
        }))
        return
    queue.put(("done", plan.index, stats))


def plan_to_json(plan: SessionPlan) -> dict:
    """Picklable task description for :func:`worker_main`."""
    cell = plan.cell
    return {
        "index": plan.index,
        "seed": plan.seed,
        "cell": {
            "index": cell.index,
            "app_mix": tuple(cell.app_mix),
            "behavior": cell.behavior,
            "duration_hours": cell.duration_hours,
            "cache_size": cell.cache_size,
            "cache_line": cell.cache_line,
            "cache_assoc": cell.cache_assoc,
        },
    }
