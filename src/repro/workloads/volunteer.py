"""Synthetic volunteer users and the Table 1 sessions.

The paper's cache study rests on four sessions collected from a
volunteer operating a Palm m515 normally for one to six days (Table 1:
1243/933/755/1622 events over 24:34 to 141:27 hours).  We cannot have
that volunteer; :class:`SyntheticUser` is the substitution — a seeded
stochastic model that produces the same *shape* of usage: short bouts
of interactive work (memos, address lookups, Puzzle games) separated
by long idle stretches, exactly the regime where virtual-time dozing
makes day-long sessions replayable in seconds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

from ..device import constants as C
from ..device.constants import Button
from .scripts import UserScript

TICKS_PER_HOUR = 3600 * C.TICKS_PER_SECOND


@dataclass
class SessionSpec:
    """One volunteer session (Table 1 row)."""

    name: str
    seed: int
    hours: float          # paper's "Elapsed Time"
    bouts: int            # activity bursts across the session
    contacts: int = 30    # AddrDB preload size

    @property
    def ticks(self) -> int:
        return int(self.hours * TICKS_PER_HOUR)


#: The four volunteer sessions of Table 1.  Elapsed times match the
#: paper (24:34:31, 48:28:56, 24:52:55, 141:27:26); bout counts are
#: calibrated so the collected activity logs land near the paper's
#: event counts (1243, 933, 755, 1622).
TABLE1_SESSIONS: List[SessionSpec] = [
    SessionSpec("session1", seed=1001, hours=24.5753, bouts=43),
    SessionSpec("session2", seed=1002, hours=48.4822, bouts=34),
    SessionSpec("session3", seed=1003, hours=24.8819, bouts=31),
    SessionSpec("session4", seed=1004, hours=141.4572, bouts=72),
]


class SyntheticUser:
    """A seeded stochastic user of the standard application suite."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    # -- activity bouts ---------------------------------------------------
    def _memo_bout(self, script: UserScript) -> None:
        rng = self.rng
        script.press(Button.MEMO)
        script.wait(rng.randint(20, 80))
        for _ in range(rng.randint(2, 5)):
            script.tap(rng.randint(10, 150), rng.randint(85, 155))
            script.wait(rng.randint(30, 150))
        if rng.random() < 0.6:
            script.press(Button.UP)      # review the list
            script.wait(rng.randint(40, 120))
        if rng.random() < 0.25:
            script.press(Button.DOWN)    # delete the oldest memo
            script.wait(rng.randint(20, 60))

    def _address_bout(self, script: UserScript) -> None:
        rng = self.rng
        script.press(Button.ADDRESS)
        script.wait(rng.randint(20, 80))
        for _ in range(rng.randint(2, 6)):
            if rng.random() < 0.7:
                script.press(Button.DOWN if rng.random() < 0.6 else Button.UP)
            else:
                script.tap(rng.randint(5, 150), rng.randint(10, 100))
            script.wait(rng.randint(25, 90))

    def _puzzle_bout(self, script: UserScript) -> None:
        rng = self.rng
        script.press(Button.DATEBOOK)
        script.wait(rng.randint(30, 100))
        for _ in range(rng.randint(6, 18)):
            script.tap(rng.randint(0, 159), rng.randint(0, 159),
                       hold_ticks=rng.randint(3, 6))
            script.wait(rng.randint(15, 70))
        if rng.random() < 0.3:
            script.press(Button.UP)      # reshuffle
            script.wait(rng.randint(30, 80))

    def _doodle_bout(self, script: UserScript) -> None:
        """A short stylus drag (handwriting-like input)."""
        rng = self.rng
        x, y = rng.randint(20, 120), rng.randint(20, 120)
        points = [(x, y)]
        for _ in range(rng.randint(3, 10)):
            x = max(0, min(159, x + rng.randint(-15, 15)))
            y = max(0, min(159, y + rng.randint(-15, 15)))
            points.append((x, y))
        script.drag(points, ticks_per_point=2)
        script.wait(rng.randint(20, 60))

    _BOUTS = ("memo", "address", "puzzle", "doodle")

    def build_script(self, spec: SessionSpec) -> UserScript:
        """Generate the full session script for ``spec``."""
        rng = self.rng
        script = UserScript(name=spec.name)
        script.at(rng.randint(80, 200))  # settle after the reset
        # Idle gaps sum to roughly the session length.
        active_budget = spec.bouts * 600  # ~6 s of interaction per bout
        idle_total = max(spec.ticks - active_budget, spec.bouts)
        weights = [rng.random() for _ in range(spec.bouts)]
        total_weight = sum(weights)
        for i in range(spec.bouts):
            kind = rng.choices(self._BOUTS, weights=[3, 2, 3, 2])[0]
            if kind == "memo":
                self._memo_bout(script)
            elif kind == "address":
                self._address_bout(script)
            elif kind == "puzzle":
                self._puzzle_bout(script)
            else:
                self._doodle_bout(script)
            gap = int(idle_total * weights[i] / total_weight)
            script.wait(max(gap, 50))
        return script


def build_session_script(spec: SessionSpec) -> UserScript:
    return SyntheticUser(spec.seed).build_script(spec)


def preload_contacts(kernel, count: int) -> None:
    """Install an address book the session can browse (setup hook)."""
    db = kernel.dm_host.find("AddrDB")
    if not db:
        db = kernel.dm_host.create("AddrDB", "DATA", "addr")
    payloads = [f"Contact{i:03d} 555-{i:04d}".encode("latin-1")[:20]
                for i in range(count)]
    kernel.dm_host.bulk_append(db, payloads)


def collect_table1_session(spec: SessionSpec, apps=None,
                           ram_size: int = 8 << 20):
    """Collect one Table 1 session end to end."""
    from ..apps import standard_apps
    from .sessions import collect_session

    return collect_session(
        apps if apps is not None else standard_apps(),
        build_session_script(spec),
        name=spec.name,
        entropy_seed=0xB0B0 + spec.seed,
        ram_size=ram_size,
        default_app="launcher",
        setup=lambda kernel: preload_contacts(kernel, spec.contacts),
    )
