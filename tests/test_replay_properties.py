"""Property-based tests of the reproduction's core claim: for *any*
input schedule, collection followed by replay is bit-exact.

This is the deterministic state machine model (§2.1) tested as a
property rather than on hand-picked workloads.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import replay_session, standard_apps
from repro.device import Button
from repro.tracelog import read_activity_log
from repro.workloads import UserScript, collect_session

EMU_KW = {"ram_size": 8 << 20, "flash_size": 1 << 20}

_APPS = standard_apps()


@st.composite
def user_scripts(draw):
    """Random but well-formed user scripts (pen state machine valid)."""
    script = UserScript("prop")
    script.at(draw(st.integers(60, 200)))
    n_gestures = draw(st.integers(1, 6))
    for _ in range(n_gestures):
        kind = draw(st.sampled_from(["tap", "drag", "button"]))
        if kind == "tap":
            script.tap(draw(st.integers(0, 159)), draw(st.integers(0, 159)),
                       hold_ticks=draw(st.integers(2, 8)))
        elif kind == "drag":
            points = draw(st.lists(
                st.tuples(st.integers(0, 159), st.integers(0, 159)),
                min_size=2, max_size=5))
            script.drag(points, ticks_per_point=draw(st.integers(2, 4)))
        else:
            script.press(draw(st.sampled_from([
                Button.UP, Button.DOWN, Button.MEMO, Button.ADDRESS,
                Button.DATEBOOK])), hold_ticks=draw(st.integers(2, 6)))
        script.wait(draw(st.integers(10, 120)))
    return script


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(script=user_scripts(), entropy=st.integers(1, 2**31))
def test_any_session_replays_bit_exactly(script, entropy):
    """β + δ determine the execution path — for arbitrary δ."""
    session = collect_session(_APPS, script, name="prop",
                              entropy_seed=entropy,
                              ram_size=EMU_KW["ram_size"])
    emulator, _, _ = replay_session(
        session.initial_state, session.log, apps=_APPS, profile=False,
        emulator_kwargs=dict(EMU_KW, entropy_seed=entropy ^ 0xFFFF))
    original = [(r.type, r.tick, r.data) for r in session.log]
    replayed = [(r.type, r.tick, r.data)
                for r in read_activity_log(emulator.kernel)]
    assert replayed == original


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(script=user_scripts())
def test_collection_itself_is_deterministic(script):
    """Two collections of the same script are identical sessions."""
    logs = []
    for _ in range(2):
        session = collect_session(_APPS, script, name="det",
                                  entropy_seed=0xABAB,
                                  ram_size=EMU_KW["ram_size"])
        logs.append([(r.type, r.tick, r.data) for r in session.log])
    assert logs[0] == logs[1]


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(script=user_scripts(), entropy=st.integers(1, 2**31))
def test_final_states_agree_for_any_session(script, entropy):
    session = collect_session(_APPS, script, name="prop2",
                              entropy_seed=entropy,
                              ram_size=EMU_KW["ram_size"])
    emulator, _, _ = replay_session(
        session.initial_state, session.log, apps=_APPS, profile=False,
        emulator_kwargs=EMU_KW)
    device = {d.name: d for d in session.final_state}
    emulated = {d.name: d for d in emulator.final_state()}
    assert set(device) == set(emulated)
    for name, dev in device.items():
        emu = emulated[name]
        assert [r.data for r in dev.records] == \
            [r.data for r in emu.records], name
