"""The benchmark's own tests, at tiny scale.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import json
import os

import pytest

from perfbench import tracing
from perfbench.run import ROOT, run
from perfbench.workloads import JOBS, SCALES, archive_session, session_spec
from repro.cache import sweep

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}


def quiet(_line):
    pass


@pytest.mark.parametrize("workload", ["case_study", "fleet",
                                      "archive_resim"])
def test_tiny_run_passes_its_checks(workload):
    result = run(workload, seed=3, seconds=0, trace=False, scale="tiny",
                 golden={}, log=quiet)
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) == END_TO_END
    assert all(value > 0 for value in result["metrics"].values())
    assert result["metrics"]["ok_frac"] == 1.0


def test_golden_match_and_tampered_golden_fails():
    first = run("archive_resim", seed=5, seconds=0, trace=False,
                scale="tiny", golden={}, log=quiet)
    golden = {"archive_resim": {"5": first["fingerprint"]}}
    again = run("archive_resim", seed=5, seconds=0, trace=False,
                scale="tiny", golden=golden, log=quiet)
    assert again["correct"] and again["failed"] == 0

    tampered = json.loads(json.dumps(golden))
    key = sorted(tampered["archive_resim"]["5"])[0]
    tampered["archive_resim"]["5"][key][1] += 1       # one more miss
    lines = []
    bad = run("archive_resim", seed=5, seconds=0, trace=False,
              scale="tiny", golden=tampered, log=lines.append)
    assert not bad["correct"]
    assert bad["failed"] == bad["attempted"] > 0
    assert bad["metrics"]["ok_frac"] == 0.0
    assert any(key in line for line in lines)


def test_traced_run_reports_every_layer_metric():
    result = run("archive_resim", seed=3, seconds=0, trace=True,
                 scale="tiny", golden={}, log=quiet)
    assert result["correct"]
    assert set(result["metrics"]) == PER_LAYER
    assert result["metrics"]["cache.sweep.calls"] == 1
    assert result["metrics"]["cache.simulate.calls"] == 8
    assert result["metrics"]["collect.calls"] == 0


def test_spans_nest_across_processes(tmp_path):
    tracer = tracing.Tracer(str(tmp_path))
    tracer.install()
    try:
        archive_session(session_spec(3, SCALES["tiny"]), tmp_path / "t.ptrc")
        sweep.sweep_parallel(container=tmp_path / "t.ptrc", jobs=max(2, JOBS))
    finally:
        tracer.uninstall()
    spans = tracer.collect()
    by_id = {s.sid: s for s in spans}
    names = {s.name for s in spans}
    assert {"collect", "emulator.replay", "traces.append", "cache.sweep",
            "cache.depth_pass", "traces.read"} <= names
    assert len({s.pid for s in spans}) > 1, "no worker spans merged"
    for span in spans:
        assert span.end >= span.start
        if span.parent is None:
            continue
        parent = by_id[span.parent]
        assert parent.start <= span.start and span.end <= parent.end
    for span in spans:
        if span.pid == os.getpid():
            continue
        while span.pid != os.getpid():
            span = by_id[span.parent]
        assert span.name == "cache.sweep"
    assert all(ns >= 0 for ns in tracing.self_times(spans).values())
    assert not list(tmp_path.glob("spans-*.jsonl"))
