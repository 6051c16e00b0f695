"""The level-independent prefix of a compile -- parse, check and the
reference run -- happens once per (source, trace) in a process, and the
sharing is invisible: every level compiled after others equals the same
level compiled cold, the memos are keyed by contents (text and filename,
every trace packet's bytes and port), a failed check is never kept, and
what one result mutates does not reach the next compile."""

import pytest

from repro import baker
from repro.apps import get_app
from repro.baker import BakerError, parse_and_check
from repro.compiler import compile_baker
from repro.options import LEVEL_ORDER, options_for
from repro.profiler import interpreter
from repro.profiler.trace import Trace, TracePacket, ipv4_trace
from repro.rts.system import verify_against_reference
from tests.samples import MINI_FORWARDER

MACS = [0x0A0000000001, 0x0A0000000002, 0x0A0000000003]


def _clear_memos():
    baker._checked.cache_clear()
    interpreter._reference_runs.clear()


@pytest.fixture
def reference_runs(monkeypatch):
    """Counts the interpretations the reference-run memo actually runs,
    starting from empty memos."""
    _clear_memos()
    calls = []
    real = interpreter.run_reference

    def counting(mod, trace):
        calls.append(len(trace))
        return real(mod, trace)

    monkeypatch.setattr(interpreter, "run_reference", counting)
    yield calls
    _clear_memos()


def _fingerprint(result):
    images = sorted(result.images.items())
    return ([(name, image.entry,
              [(repr(i), getattr(i, "resolved", None)) for i in image.insns])
             for name, image in images],
            result.decisions, result.ir_stages, result.profile)


@pytest.mark.parametrize("app_name", ["l3switch", "firewall", "mpls"])
def test_every_level_after_the_others_equals_a_cold_compile(app_name,
                                                            reference_runs):
    app = get_app(app_name)
    trace = app.make_trace(120, seed=5)
    compile_baker(app.source, options_for("SWC"), trace)
    warm = {level: _fingerprint(compile_baker(app.source,
                                              options_for(level), trace))
            for level in LEVEL_ORDER}
    assert reference_runs == [120]  # the priming compile's, and no other
    for level in LEVEL_ORDER:
        _clear_memos()
        assert _fingerprint(compile_baker(app.source, options_for(level),
                                          trace)) == warm[level], level


def test_a_changed_byte_or_port_is_a_new_reference_run(reference_runs):
    trace = ipv4_trace(12, [0xC0A80101], MACS, seed=3)
    checked = parse_and_check(MINI_FORWARDER)
    first = interpreter.reference_run(checked, trace)
    # Equal contents in new objects: the same run.
    rebuilt = Trace([TracePacket(bytes(p.data), p.rx_port) for p in trace])
    assert interpreter.reference_run(checked, rebuilt) is first
    assert len(reference_runs) == 1

    flipped = Trace(list(trace.packets))
    data = bytearray(flipped.packets[5].data)
    data[-1] ^= 1
    flipped.packets[5] = TracePacket(bytes(data), trace.packets[5].rx_port)
    assert interpreter.reference_run(checked, flipped) is not first
    assert len(reference_runs) == 2

    moved = Trace(list(trace.packets))
    moved.packets[0] = TracePacket(trace.packets[0].data,
                                   trace.packets[0].rx_port + 1)
    assert interpreter.reference_run(checked, moved) is not first
    assert len(reference_runs) == 3


def test_the_same_text_under_another_filename_is_another_program():
    a = parse_and_check(MINI_FORWARDER, "a.bk")
    b = parse_and_check(MINI_FORWARDER, "b.bk")
    assert a is parse_and_check(MINI_FORWARDER, "a.bk")
    assert a is not b
    assert {d.loc.filename for d in b.program.modules} == {"b.bk"}
    trace = ipv4_trace(6, [0xC0A80101], MACS, seed=3)
    profile = interpreter.reference_run(b, trace).profile
    assert {f for f, _line in profile.line_instrs} == {"b.bk"}


def test_malformed_baker_raises_on_every_call():
    bad = "module m { ppf p { input x; } }} garbage"
    before = baker._checked.cache_info().currsize
    for _ in range(3):
        with pytest.raises(BakerError):
            parse_and_check(bad, "bad.bk")
    assert baker._checked.cache_info().currsize == before


def test_what_one_result_mutates_does_not_reach_the_next_compile(
        reference_runs):
    trace = ipv4_trace(30, [0xC0A80101], MACS, arp_fraction=0.1, seed=3)
    opts = options_for("SWC")
    cold = _fingerprint(compile_baker(MINI_FORWARDER, opts, trace))
    first = compile_baker(MINI_FORWARDER, opts, trace)
    first.profile.ppf_invocations.clear()
    first.profile.global_stats.clear()
    first.mod.functions.clear()
    first.mod.globals.clear()
    assert _fingerprint(compile_baker(MINI_FORWARDER, opts, trace)) == cold
    assert reference_runs == [30]


def test_the_oracle_interprets_once_for_every_level(reference_runs):
    app = get_app("firewall")
    trace = app.make_trace(120, seed=5)
    for level in ("BASE", "O1", "PAC", "PHR", "SWC"):
        result = compile_baker(app.source, options_for(level), trace)
        assert verify_against_reference(result, trace, packets=40), level
    # One run for the compiles' profile, one for the oracle's 40 packets.
    assert reference_runs == [120, 40]
