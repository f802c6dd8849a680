"""The repository's benchmark of record.

Runs one workload for one seed, checks the simulated outputs, and
prints every metric by name with its unit.  The last line of standard
output is one JSON object::

    {"correct": true, "attempted": 3, "failed": 0,
     "metrics": {"pipeline_s": {"value": 7.91, "unit": "s"}, ...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``, measured with tracing off, as CPU times at the
reference host's speed (see ``perfbench/speed.py``).  With ``--trace 1`` the
timed units alternate between traced and untraced, and the metrics are
the per-layer ones, taken from spans around each layer's public entry
points (see ``perfbench/tracing.py``), plus the tracing overhead.

Usage, from the repository root::

    python3 perfbench/run.py --workload case_study --seed 42 --seconds 50
    python3 perfbench/run.py --workload fleet --seed 7 --seconds 50 --trace 1
    python3 perfbench/run.py --workload archive_resim --record-golden

The workloads, metrics and checks are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"

#: The default seed.  ``golden.json`` holds outputs for it and for the
#: held-out seed 7, which was not used while the benchmark was tuned.
DEFAULT_SEED = 42

#: Set-ups per run; ``setup_s`` is the median.
SETUP_REPEATS = 3

#: What a fresh interpreter imports before the first timed call, and
#: the CPU time that takes.
IMPORT_PROBE = (
    "import time\n"
    "t = time.process_time()\n"
    "import numpy, repro, repro.cache, repro.fleet, repro.traces.container\n"
    "print(time.process_time() - t)\n")


def _median(values) -> float:
    return float(statistics.median(values))


def time_import() -> float:
    """CPU time of importing the ``repro`` stack in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                         cwd=ROOT, capture_output=True, text=True,
                         check=True, timeout=60)
    return float(out.stdout.strip())




def reset_peak_rss() -> None:
    """Restart this process's RSS high-water mark from its current RSS
    (Linux ``clear_refs``; elsewhere the peak counts from the start)."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def children_peak_mb() -> float:
    """Peak RSS of the largest finished child process."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def steal_seconds() -> float:
    """Time this machine's CPUs waited while the hypervisor ran other
    guests, summed over the CPUs (0 where ``/proc/stat`` does not
    report it)."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def calibrate() -> dict:
    """Fixed work that no code of the repository touches: a pure-Python
    loop and a numpy sort, each the median of three timings."""
    import numpy as np

    data = np.random.default_rng(0).integers(0, 1 << 32, 1_000_000,
                                              dtype=np.uint32)

    def timed(fn) -> float:
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return _median(times)

    return {
        "calibration_python_s": timed(
            lambda: sum(i * i % 7 for i in range(1_000_000))),
        "calibration_numpy_s": timed(lambda: np.sort(data)),
    }


def host_record() -> dict:
    """Where and on what the run happened.  Metadata, not a metric: the
    calibration times make host drift visible between runs."""
    import numpy as np

    sha = None
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        if git.returncode == 0:
            sha = git.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode())
        src.update(path.read_bytes())

    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        **calibrate(),
    }


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


def fingerprint_problems(fingerprint: dict, want: dict, label: str) -> list:
    """Keys of ``fingerprint`` that differ from ``want``."""
    got = json.loads(json.dumps(fingerprint))
    return [f"{label}: {key} differs"
            for key in sorted(set(got) | set(want))
            if got.get(key) != want.get(key)]


def run(workload: str, seed: int, seconds: float, trace: bool,
        scale: str = "full", golden: dict = None, log=print) -> dict:
    """Run one workload; returns the result (see :func:`main`) plus the
    fingerprint of the first unit, under ``"fingerprint"``."""
    from perfbench import workloads as wl
    from perfbench import tracing
    from perfbench.speed import SpeedMonitor

    golden = load_golden() if golden is None else golden
    want = golden.get(workload, {}).get(str(seed))
    workdir = ROOT / ".bench_work" / f"run-{os.getpid()}"
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    monitor = SpeedMonitor(str(workdir))
    try:
        return _run(wl, tracing, monitor, workload, seed, seconds, trace,
                    wl.SCALES[scale], want, workdir, log)
    finally:
        monitor.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


def _run(wl, tracing, monitor, workload, seed, seconds, trace, scale,
         want, workdir, log) -> dict:
    cls = wl.WORKLOADS[workload]
    # Set-up times are CPU times too, scaled to the reference host's
    # speed like the units' (see perfbench/speed.py).
    setup_start = time.monotonic()
    imports_s = _median([time_import() for _ in range(SETUP_REPEATS)])
    bench = cls(seed, workdir, scale)
    setups = []
    for _ in range(getattr(cls, "setups", SETUP_REPEATS)):
        timer = wl.Timer()
        bench.setup()
        setups.append(timer.cpu())
    setup_speed = monitor.speed(setup_start, time.monotonic())
    imports_s *= setup_speed
    setup_s = imports_s + _median(setups) * setup_speed

    tracer = tracing.Tracer(str(workdir)) if trace else None
    samples, traced, untraced = [], [], []
    attempted = failed = 0
    firsts = {}
    peak_mb = None
    walls = []
    started = time.perf_counter()
    index = 0
    # A traced run alternates untraced and traced units.  Where the
    # first unit fills process-wide caches, it is left out of the
    # overhead comparison.
    cold = int(bench.first_unit_cold)
    # Units take the workload's inputs in turn; a traced run takes each
    # twice, untraced and traced, so that they can be compared.
    inputs = getattr(bench, "inputs", 1)
    min_samples = max(bench.min_samples, 2 + cold if trace else 1)
    while True:
        traced_unit = tracer is not None and index % 2 == 1
        which = (index if not trace
                 else 0 if index < cold else (index - cold) // 2) % inputs
        if traced_unit:
            tracer.install()
        t0 = time.perf_counter()
        span = time.monotonic()
        steal0 = steal_seconds()
        if index == 0:
            reset_peak_rss()
        try:
            try:
                sample = bench.iterate(which)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            if peak_mb is None and sample.input == inputs - 1:
                # The peak over the first pass through the run's
                # inputs, before the checks: later units repeat that
                # work, so how many of them fit the run does not
                # change it.  The workers' figure is the workload's own
                # where it measures one.
                workers = sample.worker_peak_mb
                peak_mb = max(wl.own_peak_mb(), children_peak_mb()
                              if workers is None else workers)
            raw_cpu = sample.cpu
            host_speed = monitor.speed(span, time.monotonic())
            sample.at_speed(host_speed)
            problems = sample.problems + bench.check(sample)
        except Exception as exc:  # noqa: BLE001 - counted and reported
            attempted += 1
            failed += 1
            log(f"error in unit {index}: {type(exc).__name__}: {exc}")
            break
        first = firsts.setdefault(sample.input, sample.fingerprint)
        if sample.fingerprint != first:
            problems.append("outputs differ from this run's first unit "
                            "on the same input")
        if want is not None and sample.input == 0:
            problems += fingerprint_problems(sample.fingerprint, want,
                                             f"golden seed {seed}")
        attempted += sample.ops
        failed += sample.ops if problems else sample.failed
        stages = "".join(f", {name} {value:.3f}s"
                         for name, value in sample.times.items())
        log(f"unit {index}{' (traced)' if traced_unit else ''}: "
            f"cpu {sample.cpu:.3f}s{stages}; here cpu {raw_cpu:.3f}s, "
            f"wall {sample.wall:.3f}s, host steal "
            f"{steal_seconds() - steal0:.2f}s, host "
            f"{1 / host_speed:.2f}x as slow as the reference")
        for problem in problems:
            log(f"check failed in unit {index}: {problem}")
        walls.append(time.perf_counter() - t0)
        if traced_unit:
            sample.layers = tracing.layer_metrics(tracer.collect())
            traced.append(sample)
        elif index >= cold:
            untraced.append(sample)
        samples.append(sample)
        index += 1
        elapsed = time.perf_counter() - started
        if index >= min_samples and elapsed + _median(walls) > seconds:
            break

    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "fingerprint": firsts.get(0)}
    fail_frac = failed / attempted if attempted else 1.0
    log(f"{workload} seed {seed}: {len(samples)} unit(s), "
        f"imports {imports_s:.3f}s, "
        f"fail_frac {fail_frac:g} ({failed}/{attempted})")
    if trace:
        metrics = {}
        for key in traced[0].layers if traced else ():
            metrics[key] = statistics.fmean(s.layers[key] for s in traced)
        pairs = [(_median([s.cpu for s in traced if s.input == i]),
                  _median([s.cpu for s in untraced if s.input == i]))
                 for i in {s.input for s in traced}
                 & {s.input for s in untraced}]
        if pairs:
            metrics["trace.overhead_frac"] = (
                sum(t for t, _ in pairs) / sum(u for _, u in pairs) - 1.0)
    else:
        # Warm-up: a cold first unit counts only if it is the only one.
        warm = samples[cold:] or samples
        metrics = bench.metrics(warm) if samples else {}
        metrics.update({"setup_s": setup_s, "ok_frac": 1.0 - fail_frac})
        if peak_mb is not None:
            metrics["peak_rss_mb"] = peak_mb
    result["metrics"] = metrics
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("case_study", "fleet", "archive_resim"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true",
                        help="store this run's outputs as the golden "
                             "fingerprint for the workload and seed")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() or not spec_path.exists():
        print("perfbench: run from a checkout with src/repro and "
              "BENCHMARK.json", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    print(json.dumps({"host": host_record()}))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    fingerprint = result.pop("fingerprint")
    values = result.pop("metrics")
    if set(values) != set(units) and result["correct"]:
        missing = sorted(set(units) - set(values))
        extra = sorted(set(values) - set(units))
        print(f"perfbench: metrics do not match BENCHMARK.json "
              f"(missing {missing}, extra {extra})", file=sys.stderr)
        return 2
    for name in units:
        if name in values:
            print(f"{name:36s} {values[name]:>18.6g} {units[name]}")
    if args.record_golden and result["correct"]:
        golden = load_golden()
        golden.setdefault(args.workload, {})[str(args.seed)] = fingerprint
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        print(f"recorded golden outputs for {args.workload} seed {args.seed}")
    result["metrics"] = {name: {"value": values[name], "unit": units[name]}
                         for name in units if name in values}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
