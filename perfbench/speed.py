"""How fast the host runs while the benchmark measures.

The shared host this benchmark is run on changes speed: for stretches of
half an hour and more the same work takes up to twice the CPU time, on
both CPUs at once, with no steal time to show for it, and within such a
stretch the speed changes from one second to the next.  A small side
process, :class:`SpeedMonitor`, runs a fixed probe every half second,
mostly on the CPU the benchmark leaves idle, and logs the probe's CPU
time.  A timed span's speed is the mean over the probes that ran during
it, and the benchmark reports its CPU times scaled to the reference
host, on which the probe takes :data:`REFERENCE_S`.

Run as a script, this module is the side process::

    python3 perfbench/speed.py <log path> <parent pid>
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from typing import List, Tuple

import numpy as np

#: CPU time of :func:`probe_seconds` on the reference host, a steady
#: 2-CPU Intel Xeon at 2.0 GHz.
REFERENCE_S = 0.038

#: Pause between probes; a probe takes about 40 ms on the reference
#: host.
INTERVAL_S = 0.5

_DATA = np.random.default_rng(0).integers(0, 1 << 32, 2_000_000,
                                          dtype=np.uint32)


def probe_seconds() -> float:
    """CPU time of a fixed piece of work that no code of the repository
    touches: interpreter-bound Python with a dict lookup and a branch
    per step, like the emulator, then a numpy sort of 8 MB."""
    t0 = time.process_time()
    table = {}
    acc = 0
    for i in range(150_000):
        acc = (acc * 1103515245 + i) & 0x7FFFFFFF
        table[acc & 0x3FF] = table.get(acc & 0x3FF, 0) + 1
    np.sort(_DATA)
    return time.process_time() - t0


def monitor(path: str, parent: int) -> None:
    """Probe every :data:`INTERVAL_S` and append ``<start> <cpu>`` lines
    to ``path`` (start on ``time.monotonic``), until ``parent`` exits."""
    with open(path, "a", encoding="utf-8") as out:
        while os.getppid() == parent:
            start = time.monotonic()
            out.write(f"{start:.6f} {probe_seconds():.6f}\n")
            out.flush()
            time.sleep(INTERVAL_S)


class SpeedMonitor:
    """The side process, and the speed it measured over a span."""

    def __init__(self, directory: str):
        self.path = os.path.join(directory, "speed.log")
        self.process = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), self.path,
             str(os.getpid())])

    def readings(self) -> List[Tuple[float, float]]:
        try:
            with open(self.path, encoding="utf-8") as handle:
                lines = handle.read().splitlines()
        except FileNotFoundError:
            return []
        rows = (line.split() for line in lines)
        return [(float(start), float(cpu))
                for start, cpu in (row for row in rows if len(row) == 2)]

    def speed(self, start: float, end: float, least: int = 3) -> float:
        """How many times as fast the reference host is as this one was
        from ``start`` to ``end`` (``time.monotonic``).  A span too
        short for ``least`` probes takes the first ``least`` from its
        start on, waiting for them if need be."""
        deadline = time.monotonic() + 30.0
        while True:
            after = [(t, cpu) for t, cpu in self.readings() if t >= start]
            inside = [cpu for t, cpu in after if t <= end]
            if len(inside) < least:
                inside = [cpu for _, cpu in after[:least]]
            if len(inside) >= least:
                return REFERENCE_S / statistics.fmean(inside)
            if (time.monotonic() > deadline
                    or self.process.poll() is not None):
                raise RuntimeError("the speed monitor stopped probing")
            time.sleep(0.1)

    def close(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()


if __name__ == "__main__":
    monitor(sys.argv[1], int(sys.argv[2]))
