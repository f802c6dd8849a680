"""Spans around the public entry points of each ``repro`` layer.

The traced run of the benchmark installs a :class:`Tracer`, which
replaces a fixed list of public functions and methods (:data:`TARGETS`)
with wrappers that record one span per call: its name, process, start
and end (``time.perf_counter_ns``, which is ``CLOCK_MONOTONIC`` on
Linux and therefore comparable across processes), the span that was
open when it started, and a few counters taken from the call's
arguments or result.  Nothing under ``src/`` changes: the wrappers are
rebound on the modules and classes from the outside.

Wrappers installed before a fork are inherited by the fleet's session
workers and the sweep's pool workers.  Spans stay in memory; a child
process appends its finished spans to ``spans-<pid>.jsonl`` in the
tracer's directory each time its outermost span closes (pool workers
are terminated with SIGTERM, so an exit hook would lose them), and the
parent merges those files with its own spans in :meth:`Tracer.collect`.

:func:`layer_metrics` turns the merged spans into the per-layer
metrics listed in ``perfbench/README.md``.
"""

from __future__ import annotations

import functools
import glob
import importlib
import itertools
import json
import os
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple


@dataclass
class Span:
    name: str
    pid: int
    sid: str
    parent: Optional[str]
    start: int
    end: int
    attrs: dict

    @property
    def seconds(self) -> float:
        return (self.end - self.start) / 1e9

    def to_json(self) -> list:
        return [self.name, self.pid, self.sid, self.parent, self.start,
                self.end, self.attrs]

    @classmethod
    def from_json(cls, row: list) -> "Span":
        return cls(*row)


# -- counters taken at each boundary ------------------------------------

def _core_counters(emulator) -> dict:
    core = emulator.device.core
    return {"blocks_built": getattr(core, "blocks_built", 0),
            "fused_built": getattr(core, "fused_built", 0),
            "invalidations": getattr(core, "invalidations", 0)}


def _replay_attrs(args, kwargs, result) -> dict:
    emulator, profiler, _ = result
    cpu = emulator.device.cpu
    attrs = {"guest_insn": cpu.instructions, "guest_cycles": cpu.cycles,
             **_core_counters(emulator)}
    if profiler is not None:
        counts = profiler.counts_dict(memory_only=True)
        attrs["refs"] = counts["fetch"] + counts["read"] + counts["write"]
    return attrs


def _resilient_attrs(args, kwargs, result) -> dict:
    if result.emulator is None:
        return {}
    return _core_counters(result.emulator)


def _write_bytes_attrs(args, kwargs, result) -> dict:
    return {"bytes": len(args[2] if len(args) > 2 else kwargs["data"])}


def _append_attrs(args, kwargs, result) -> dict:
    return {"tokens": len(args[1] if len(args) > 1 else kwargs["tokens"])}


def _close_attrs(args, kwargs, result) -> dict:
    if not result:
        return {}
    return {"payload_bytes": result["payload_bytes"],
            "tokens": result["tokens"]}


def _simulate_attrs(args, kwargs, result) -> dict:
    return {"refs": int(result.accesses)}


def _campaign_attrs(args, kwargs, result) -> dict:
    return {"retried": result.retried, "quarantined": result.quarantined,
            "ran": result.ran}


def _journal_attrs(args, kwargs, result) -> dict:
    entry = args[1] if len(args) > 1 else kwargs["entry"]
    return {"kind": entry.get("kind"), "index": entry.get("index")}


def _session_attrs(args, kwargs, result) -> dict:
    plan = args[0] if args else kwargs["plan"]
    return {"index": plan.index}


#: (module, qualified name, span name, counters).  A dotted qualified
#: name is a method on a class; a plain one is a module-level function,
#: rebound on every loaded ``repro`` and ``perfbench`` module that
#: imported it by name.
TARGETS: List[Tuple[str, str, str, Optional[Callable]]] = [
    ("repro.workloads.sessions", "collect_session", "collect",
     lambda a, k, r: {"guest_insn": r.instructions}),
    ("repro.palmos.rom", "RomBuilder.build", "palmos.rom_build", None),
    ("repro.palmos.access", "TracedAccess.write_bytes",
     "palmos.write_bytes.traced", _write_bytes_attrs),
    ("repro.palmos.access", "HostAccess.write_bytes",
     "palmos.write_bytes.host", _write_bytes_attrs),
    ("repro.emulator.playback", "replay_session", "emulator.replay",
     _replay_attrs),
    ("repro.resilience.replay", "resilient_replay", "resilience.replay",
     _resilient_attrs),
    ("repro.resilience.checkpoint", "capture_emulator",
     "resilience.checkpoint", None),
    ("repro.traces.container", "ContainerWriter.append_tokens",
     "traces.append", _append_attrs),
    ("repro.traces.container", "ContainerWriter.close", "traces.close",
     _close_attrs),
    ("repro.traces.container", "TraceContainer.chunk", "traces.read", None),
    ("repro.cache.sweep", "sweep_parallel", "cache.sweep", None),
    ("repro.cache.kernels", "simulate", "cache.simulate", _simulate_attrs),
    ("repro.cache.kernels", "simulate_auto", "cache.simulate",
     _simulate_attrs),
    ("repro.cache.kernels", "lru_hit_depths", "cache.depth_pass", None),
    ("repro.cache.kernels", "kernel_misses_by_associativity",
     "cache.depth_pass", None),
    ("repro.fleet.supervisor", "run_campaign", "fleet.campaign",
     _campaign_attrs),
    ("repro.fleet.journal", "CampaignJournal.append",
     "fleet.journal.append", _journal_attrs),
    ("repro.fleet.worker", "run_session", "fleet.session", _session_attrs),
]

#: Span name prefix -> layer, for self time per layer.
LAYERS = {
    "collect": "workloads",
    "palmos": "palmos",
    "emulator": "emulator",
    "resilience": "resilience",
    "traces": "traces",
    "cache": "cache",
    "fleet": "fleet",
}


def layer_of(name: str) -> str:
    return LAYERS[name.split(".", 1)[0]]


class Tracer:
    """Records spans around :data:`TARGETS` while installed."""

    def __init__(self, directory: str):
        self.directory = directory
        self.root_pid = os.getpid()
        self.spans: List[Span] = []
        self._stack: List[Tuple[str, int]] = []   # (sid, pid) open spans
        self._ids = itertools.count()
        self._saved: List[Tuple[object, str, object]] = []
        self.active = False
        os.register_at_fork(after_in_child=self._after_fork)

    # -- fork handling ----------------------------------------------------
    def _after_fork(self) -> None:
        # The child keeps the open-span stack (its spans nest under the
        # parent's open span) but none of the parent's finished spans.
        self.spans = []
        self._ids = itertools.count()

    def _flush_child(self) -> None:
        path = os.path.join(self.directory, f"spans-{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_json()) + "\n")
        self.spans = []

    # -- recording --------------------------------------------------------
    def _wrap(self, fn: Callable, name: str,
              counters: Optional[Callable]) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            pid = os.getpid()
            sid = f"{pid}:{next(tracer._ids)}"
            parent = tracer._stack[-1][0] if tracer._stack else None
            beats = None
            if name == "fleet.session":
                # Record the worker's stage boundaries as it beats them.
                beats = []
                inner = kwargs.get("beat", lambda stage: None)

                def beat(stage: str) -> None:
                    beats.append([stage, time.perf_counter_ns()])
                    inner(stage)

                kwargs = {**kwargs, "beat": beat}
            tracer._stack.append((sid, pid))
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                tracer._stack.pop()
            attrs = counters(args, kwargs, result) if counters else {}
            if beats is not None:
                attrs["beats"] = beats
            tracer.spans.append(Span(name, pid, sid, parent, start, end,
                                     attrs))
            if (pid != tracer.root_pid
                    and not any(p == pid for _, p in tracer._stack)):
                tracer._flush_child()
            return result

        return wrapper

    def install(self) -> None:
        """Rebind every target to its wrapper.  Installing twice would
        wrap the wrappers, so a second call only re-activates."""
        if self._saved:
            self.active = True
            return
        for module_name, qualname, span, counters in TARGETS:
            module = importlib.import_module(module_name)
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, span, counters))
                continue
            original = getattr(module, qualname)
            wrapper = self._wrap(original, span, counters)
            for mod in list(sys.modules.values()):
                if (getattr(mod, "__name__", "").startswith(
                        ("repro", "perfbench"))
                        and getattr(mod, qualname, None) is original):
                    self._saved.append((mod, qualname, original))
                    setattr(mod, qualname, wrapper)
        self.active = True

    def uninstall(self) -> None:
        """Restore every original binding."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []
        self.active = False

    def collect(self) -> List[Span]:
        """The parent's spans plus every child's file, merged; clears
        both so the next traced iteration starts empty."""
        spans = list(self.spans)
        self.spans = []
        for path in sorted(glob.glob(os.path.join(self.directory,
                                                  "spans-*.jsonl"))):
            with open(path, encoding="utf-8") as handle:
                spans.extend(Span.from_json(json.loads(line))
                             for line in handle if line.strip())
            os.unlink(path)
        return spans


# -- analysis -------------------------------------------------------------

def self_times(spans: List[Span]) -> Dict[str, int]:
    """Span id -> self time (ns): its duration minus the durations of
    its direct children *in the same process*.  Children in worker
    processes run in parallel with the parent, which waits for them;
    that wait stays in the parent's self time."""
    by_id = {s.sid: s for s in spans}
    covered: Dict[str, int] = {}
    for span in spans:
        parent = by_id.get(span.parent)
        if parent is not None and parent.pid == span.pid:
            covered[parent.sid] = covered.get(parent.sid, 0) + (
                span.end - span.start)
    return {s.sid: (s.end - s.start) - covered.get(s.sid, 0) for s in spans}


def outermost(spans: List[Span]) -> List[Span]:
    """Spans with no ancestor of the same name (``simulate_auto`` calls
    ``simulate``; only the outer call counts)."""
    by_id = {s.sid: s for s in spans}
    out = []
    for span in spans:
        parent = by_id.get(span.parent)
        while parent is not None and parent.name != span.name:
            parent = by_id.get(parent.parent)
        if parent is None:
            out.append(span)
    return out


def _group(spans: List[Span], name: str) -> Tuple[int, float, dict]:
    """(calls, seconds, summed attrs) of the outermost spans ``name``."""
    calls, ns, attrs = 0, 0, {}
    for span in spans:
        if span.name != name:
            continue
        calls += 1
        ns += span.end - span.start
        for key, value in span.attrs.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                attrs[key] = attrs.get(key, 0) + value
    return calls, ns / 1e9, attrs


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def fleet_metrics(spans: List[Span]) -> dict:
    """Per-session fleet timings from the journal and ``run_session``
    spans: session wall is journal ``start`` -> ``done``; cold start is
    that wall minus the worker's ``run_session`` span; stages come from
    the worker's ``beat`` boundaries (see :func:`stage_seconds`)."""
    starts, dones = {}, {}
    for span in spans:
        if span.name == "fleet.journal.append":
            kind, index = span.attrs.get("kind"), span.attrs.get("index")
            if kind == "start":
                starts[index] = span.start
            elif kind == "done":
                dones[index] = span.end
    sessions = {s.attrs["index"]: s for s in spans
                if s.name == "fleet.session"}
    walls, colds = [], []
    for index, done in dones.items():
        if index not in starts:
            continue
        wall = (done - starts[index]) / 1e9
        walls.append(wall)
        if index in sessions:
            colds.append(wall - sessions[index].seconds)
    stages: Dict[str, List[float]] = {}
    by_id = {s.sid: s for s in spans}
    for session in sessions.values():
        for stage, seconds in stage_seconds(session, spans, by_id).items():
            stages.setdefault(stage, []).append(seconds)
    out = {
        "fleet.session.s": _median(walls),
        "fleet.session.count": len(walls),
        "fleet.cold_start.s": _median(colds),
    }
    for stage in ("collect", "replay", "simulate", "archive"):
        out[f"fleet.stage.{stage}.s"] = _median(stages.get(stage, []))
    return out


def stage_seconds(session: Span, spans: List[Span], by_id) -> dict:
    """Stage durations of one worker session.  ``run_session`` beats
    ``collect``, ``replay`` and ``simulate`` at its stage boundaries;
    the PTRC archive write happens inside the simulate stage, so the
    ``traces.*`` spans under it are split out as ``archive``."""
    beats = session.attrs.get("beats") or []
    if not beats:
        return {}
    bounds = beats + [["end", session.end]]
    out = {}
    for (stage, t0), (_, t1) in zip(bounds, bounds[1:]):
        out[stage] = (t1 - t0) / 1e9
    archive_ns = 0
    for span in spans:
        if span.pid != session.pid or not span.name.startswith("traces."):
            continue
        parent = by_id.get(span.parent)
        if parent is not None and parent.sid == session.sid:
            archive_ns += span.end - span.start
    out["archive"] = archive_ns / 1e9
    if "simulate" in out:
        out["simulate"] -= out["archive"]
    return out


def layer_metrics(spans: List[Span]) -> dict:
    """The per-layer metrics of one traced iteration."""
    outer = outermost(spans)
    m: dict = {}

    calls, seconds, attrs = _group(outer, "collect")
    insn = attrs.get("guest_insn", 0)
    m.update({"collect.calls": calls, "collect.s": seconds,
              "collect.guest_insn": insn,
              "collect.insn_per_s": insn / seconds if seconds else 0.0})

    calls, seconds, _ = _group(outer, "palmos.rom_build")
    m.update({"palmos.rom_build.calls": calls, "palmos.rom_build.s": seconds})
    for arm in ("traced", "host"):
        calls, seconds, attrs = _group(outer, f"palmos.write_bytes.{arm}")
        m.update({f"palmos.write_bytes.{arm}.calls": calls,
                  f"palmos.write_bytes.{arm}.bytes": attrs.get("bytes", 0),
                  f"palmos.write_bytes.{arm}.s": seconds})

    calls, seconds, replay = _group(outer, "emulator.replay")
    m.update({"emulator.replay.calls": calls, "emulator.replay.s": seconds,
              "emulator.replay.guest_insn": replay.get("guest_insn", 0),
              "emulator.replay.guest_cycles": replay.get("guest_cycles", 0),
              "emulator.replay.refs": replay.get("refs", 0)})

    _, seconds, resilient = _group(outer, "resilience.replay")
    calls_ck, seconds_ck, _ = _group(outer, "resilience.checkpoint")
    m.update({"resilience.replay.s": seconds,
              "resilience.checkpoint.count": calls_ck,
              "resilience.checkpoint.s": seconds_ck})

    for key in ("blocks_built", "fused_built", "invalidations"):
        m[f"m68k.{key}"] = replay.get(key, 0) + resilient.get(key, 0)

    calls, seconds, attrs = _group(outer, "traces.append")
    _, _, closed = _group(outer, "traces.close")
    payload = closed.get("payload_bytes", 0)
    raw = closed.get("tokens", 0) * 8
    calls_rd, seconds_rd, _ = _group(outer, "traces.read")
    m.update({"traces.append.calls": calls,
              "traces.append.tokens": attrs.get("tokens", 0),
              "traces.append.s": seconds,
              "traces.payload_bytes": payload,
              "traces.compress_ratio": payload / raw if raw else 0.0,
              "traces.read.chunks": calls_rd, "traces.read.s": seconds_rd})

    calls, seconds, _ = _group(outer, "cache.sweep")
    m.update({"cache.sweep.calls": calls, "cache.sweep.s": seconds})
    calls, seconds, attrs = _group(outer, "cache.simulate")
    m.update({"cache.simulate.calls": calls,
              "cache.simulate.refs": attrs.get("refs", 0),
              "cache.simulate.s": seconds})
    calls, seconds, _ = _group(outer, "cache.depth_pass")
    m.update({"cache.depth_pass.calls": calls, "cache.depth_pass.s": seconds})

    m.update(fleet_metrics(spans))
    calls, seconds, _ = _group(outer, "fleet.journal.append")
    _, _, campaign = _group(outer, "fleet.campaign")
    m.update({"fleet.journal.appends": calls,
              "fleet.journal.append_s": seconds,
              "fleet.retries": campaign.get("retried", 0),
              "fleet.quarantined": campaign.get("quarantined", 0)})

    selfs = self_times(spans)
    per_layer = {f"self.{layer}.s": 0.0 for layer in sorted(set(
        LAYERS.values()))}
    for span in spans:
        per_layer[f"self.{layer_of(span.name)}.s"] += selfs[span.sid] / 1e9
    m.update(per_layer)
    return m
