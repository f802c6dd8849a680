"""The opcode dispatch table builds each handler on first lookup.

The table must answer exactly as ``build_handler`` does for every
opcode word, hand back the same handler on every lookup, and stay lazy
in practice: a fresh interpreter that boots a kernel and runs a short
gremlins session builds a few hundred handlers, not 65,536.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.m68k.cpu import CPU
from repro.m68k.decoder import dispatch_table
from repro.m68k.instructions import build_handler

SRC = Path(__file__).resolve().parents[1] / "src"


def test_every_word_matches_build_handler():
    table = dispatch_table()
    for op in range(0x10000):
        assert (table[op] is None) == (build_handler(op) is None), hex(op)


def test_lookups_return_the_cached_handler():
    table = dispatch_table()
    for op in (0x4E71, 0x2040, 0x7001, 0xA123, 0xFFFF, 0x4AFC):
        assert table[op] is table[op]
    assert CPU(bus=None).dispatch_table is table


def test_short_session_builds_few_handlers():
    script = """
import json
from repro.fleet.campaign import mix_to_apps
from repro.m68k.decoder import dispatch_table
from repro.workloads.gremlins import GremlinConfig, Gremlins
from repro.workloads.sessions import collect_session

apps = mix_to_apps(("launcher", "memopad"))
session = collect_session(apps, Gremlins(7, GremlinConfig(events=20))
                          .build_script(), name="lazy", ram_size=8 << 20,
                          default_app="launcher")
print(json.dumps({"insns": session.instructions,
                  "built": len(dispatch_table())}))
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=300)
    figures = json.loads(out.stdout.strip().splitlines()[-1])
    assert figures["insns"] > 0
    assert 0 < figures["built"] < 2000
