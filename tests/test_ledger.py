"""Decision ledger (repro.obs.ledger), compile reports, the explain
view, and repro.obs.diff: recording semantics, the pure-observation
guarantee (a compile whose records go nowhere is the same compile, bit
for bit), report determinism, and diff/gate exit codes."""

import json

import pytest

from repro.apps import get_app
from repro.compiler import compile_baker
from repro.obs import ledger as obs_ledger
from repro.obs.diff import EXIT_REGRESSION
from repro.obs.diff import main as diff_main
from repro.obs.ledger import (
    collecting,
    compile_report,
    decision_counts,
    record,
    write_compile_report,
)
from repro.obs.report import main as report_main
from repro.options import options_for
from repro.profiler.trace import ipv4_trace
from repro.rts.system import run_on_simulator

MACS = [0x0A0000000001, 0x0A0000000002, 0x0A0000000003]


def _mini_result():
    from tests.samples import MINI_FORWARDER

    trace = ipv4_trace(60, [0xC0A80101], MACS, seed=3)
    result = compile_baker(MINI_FORWARDER, options_for("SWC"), trace)
    return result, trace


def _l3switch_result(level):
    app = get_app("l3switch")
    trace = app.make_trace(150, seed=5)
    return compile_baker(app.source, options_for(level), trace), trace


# -- ledger semantics -----------------------------------------------------------------


def test_record_normalizes_and_orders_evidence():
    with collecting([]) as decisions:
        record("swc", "tbl", "accepted", reason="hot",
               z_rate=0.123456789, flag=True, skipped=None, n=4)
    (d,) = decisions
    assert d.seq == 0 and d.pass_name == "swc" and d.verdict == "accepted"
    # None dropped, bool -> int, float rounded, keys sorted.
    assert list(d.evidence) == ["flag", "n", "z_rate"]
    assert d.evidence == {"flag": 1, "n": 4, "z_rate": 0.123457}
    rec = d.to_record()
    assert rec["pass"] == "swc" and rec["reason"] == "hot"


def test_collecting_nests_and_counts():
    """A record lands in the innermost collection, numbered within it;
    outside every collection it goes nowhere."""
    record("a", "w", "v0")
    with collecting([]) as outer:
        record("a", "x", "v1")
        with collecting([]) as inner:
            record("b", "y", "v2")
            record("b", "z", "v2")
        record("a", "x2", "v1")
    record("a", "w", "v0")
    assert [(d.seq, d.subject) for d in outer] == [(0, "x"), (1, "x2")]
    assert [(d.seq, d.subject) for d in inner] == [(0, "y"), (1, "z")]
    assert decision_counts(inner) == {"b": {"v2": 2}}


# -- pure observation: recording never feeds back ----------------------------------


def _signature(result):
    """Everything compilation produced, minus the decisions."""
    report = compile_report(result)
    for observed in ("decisions", "decision_counts"):
        del report[observed]
    return json.dumps(report, sort_keys=True)


def test_ledger_on_off_compile_and_sim_bit_identical(monkeypatch):
    on_result, trace_on = _mini_result()
    on_run = run_on_simulator(on_result, trace_on, n_mes=2,
                              warmup_packets=30, measure_packets=90)

    # Every record site discards its decision: the evidence is still
    # computed, nothing is kept.
    monkeypatch.setattr(obs_ledger, "record", lambda *a, **kw: None)
    off_result, trace = _mini_result()
    off_run = run_on_simulator(off_result, trace, n_mes=2,
                               warmup_packets=30, measure_packets=90)

    assert on_result.decisions and not off_result.decisions
    # Compilation output identical: images, plan, opt results, IR size
    # per stage, hot lines.
    assert _signature(on_result) == _signature(off_result)
    assert on_result.fast_functions == off_result.fast_functions
    # Simulation identical down to the bytes on the wire.
    assert on_run.tx_signature() == off_run.tx_signature()
    assert on_run.forwarding_gbps == off_run.forwarding_gbps
    assert on_run.sim_cycles == off_run.sim_cycles


# -- decision content ------------------------------------------------------------------


def test_l3switch_swc_report_contents():
    result, _ = _l3switch_result("SWC")
    report = compile_report(result, app="l3switch")

    assert report["kind"] == "compile_report" and report["app"] == "l3switch"
    counts = report["decision_counts"]
    # Every instrumented layer shows up for the fully optimized compile.
    assert counts["aggregation"]["merged"] >= 1
    assert counts["inline"]["inlined"] >= 1
    assert counts["pac"]["combined_loads"] >= 1
    assert counts["soar"]["resolved"] >= 1
    assert counts["swc"]["resident"] >= 1
    assert counts["swc"]["rejected"] >= 1
    assert counts["codesize"]["fits"] >= 1
    assert counts["melayout"]["lm_only"] + counts["melayout"].get(
        "sram_overflow", 0) >= 1

    for rec in report["decisions"]:
        assert set(rec) >= {"seq", "pass", "subject", "verdict"}
    # seq numbers the compile's own decisions.
    assert [d["seq"] for d in report["decisions"]] == list(
        range(len(report["decisions"])))

    # SWC records carry the Equation 2 and placement evidence.
    resident = [d for d in report["decisions"]
                if d["pass"] == "swc" and d["verdict"] == "resident"]
    assert resident
    ev = resident[0]["evidence"]
    assert {"loads_per_packet", "stores_per_packet", "eq2_min_check_rate",
            "replica", "words", "words_left"} <= set(ev)
    # The rejected dict in the opt section matches the rejected decisions.
    rejected = {d["subject"] for d in report["decisions"]
                if d["pass"] == "swc" and d["verdict"] == "rejected"}
    assert rejected == set(report["opt"]["swc"]["rejected"])


def test_mpls_reports_explain_register_state_and_anchored_combining(
        tmp_path, capsys):
    app = get_app("mpls")
    trace = app.make_trace(150, seed=5)
    soar = compile_baker(app.source, options_for("SOAR"), trace)
    p_soar = write_compile_report(soar, str(tmp_path / "soar.json"))
    phr = compile_baker(app.source, options_for("PHR"), trace)
    report = compile_report(phr, app="mpls")

    # PHR: one record per function whose packet state lives in registers.
    (state,) = [d for d in report["decisions"]
                if (d["pass"], d["verdict"]) == ("phr", "state_in_registers")]
    assert state["subject"] == "mpls_fwd.clsfr"
    ev = state["evidence"]
    assert ev["entry_words"] == 3  # buf, head, len; mpls never reads rx_port
    # Tx after a pop or a push stores head/len; the error put of a frame
    # that is neither MPLS nor IP moved nothing and stores nothing.
    assert ev["writeback_sites"] >= 2 and ev["clean_sites"] >= 1
    opt = report["opt"]["phr"]
    assert (opt["state_functions"], opt["state_writebacks"], opt["state_clean_sites"]) \
        == (1, ev["writeback_sites"], ev["clean_sites"])

    # PAC: a group combined under a loop-header anchor names it; the
    # entry-anchored groups (the Ethernet/IP header loads) do not.
    combined = [d["evidence"] for d in report["decisions"]
                if (d["pass"], d["verdict"]) == ("pac", "combined_loads")]
    anchored = [e for e in combined if "anchor" in e]
    assert anchored and len(anchored) < len(combined)
    assert all("while_head" in e["anchor"] for e in anchored)
    assert sum(e["members"] for e in anchored) == report["opt"]["pac"]["anchored_loads"]

    # The level-to-level diff names the new decision without a re-run.
    p_phr = write_compile_report(phr, str(tmp_path / "phr.json"))
    assert diff_main([p_soar, p_phr]) == 0
    out = capsys.readouterr().out
    assert "state_in_registers" in out
    assert "opt.phr: state_functions - -> 1" in out


def test_firewall_report_explains_the_rule_record_reads(tmp_path, capsys):
    app = get_app("firewall")
    trace = app.make_trace(150, seed=5)
    o2 = compile_baker(app.source, options_for("O2"), trace)
    p_o2 = write_compile_report(o2, str(tmp_path / "o2.json"))
    pac = compile_baker(app.source, options_for("PAC"), trace)
    report = compile_report(pac, app="firewall")

    # One record per wide read of a rule: what it replaced, under which
    # anchor, over how many blocks, and how many members are speculative
    # (outside the block of the read itself).
    groups = [d for d in report["decisions"]
              if (d["pass"], d["verdict"]) == ("pac", "combined_global_loads")]
    assert {d["subject"].split("/")[1] for d in groups} == {"fw_rules"}
    evidence = [d["evidence"] for d in groups]
    assert [(e["members"], e["nwords"], e["blocks"], e["speculative"])
            for e in evidence] == [(8, 8, 6, 6), (3, 3, 2, 2)]
    assert all("for_head" in e["anchor"] for e in evidence)
    opt = report["opt"]["pac"]
    assert (opt["wide_global_loads"], opt["combined_global_loads"]) == (2, 11)
    # Nothing was refused: every read of a rule sits in one of the two.
    assert not [d for d in report["decisions"] if d["verdict"] == "not_combined"
                and "/" in d["subject"]]

    # The diff names both numbers without anyone reading IR.
    p_pac = write_compile_report(pac, str(tmp_path / "pac.json"))
    assert diff_main([p_o2, p_pac]) == 0
    out = capsys.readouterr().out
    assert "combined_global_loads" in out
    assert "opt.pac: combined_global_loads - -> 11" in out
    assert "opt.pac: wide_global_loads - -> 2" in out


def test_report_is_deterministic(tmp_path):
    r1, _ = _mini_result()
    p1 = write_compile_report(r1, str(tmp_path / "a.json"))
    r2, _ = _mini_result()
    p2 = write_compile_report(r2, str(tmp_path / "b.json"))
    with open(p1) as fa, open(p2) as fb:
        assert fa.read() == fb.read()


# -- explain ---------------------------------------------------------------------------


def test_explain_renders_decisions(tmp_path, capsys):
    result, _ = _mini_result()
    path = write_compile_report(result, str(tmp_path / "r.json"), app="mini")
    assert report_main(["explain", path]) == 0
    out = capsys.readouterr().out
    assert "compile report" in out and "app=mini" in out
    assert "[aggregation]" in out
    assert "decisions: %d recorded" % len(result.decisions) in out


def test_explain_errors_exit_nonzero(tmp_path, capsys):
    assert report_main(["explain", str(tmp_path / "missing.json")]) == 1
    corrupt = tmp_path / "corrupt.json"
    corrupt.write_text("{nope")
    assert report_main(["explain", str(corrupt)]) == 1
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"kind": "bench"}))
    assert report_main(["explain", str(wrong)]) == 1
    capsys.readouterr()
    # A compile report whose body is not what the renderer dereferences
    # is one diagnostic naming file and field, not an AttributeError --
    # here and through obs.diff (exit 2: a failed gate).
    for body, field in (({"images": 5}, "'images' is not an object"),
                        ({"decision_counts": [1, 2]},
                         "'decision_counts' is not an object"),
                        ({"opt": "x"}, "'opt' is not an object")):
        wrong.write_text(json.dumps(dict(body, kind="compile_report")))
        for run, code in ((lambda: report_main(["explain", str(wrong)]), 1),
                          (lambda: diff_main([str(wrong), str(wrong)]),
                           EXIT_REGRESSION)):
            assert run() == code
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err == (
                "error: %s is a malformed compile_report file: %s\n"
                % (wrong, field))


# -- the ledger CLI ---------------------------------------------------------------------


def test_ledger_cli_fails_fast(tmp_path, capsys):
    """A bad token is ``parser.error`` naming flag and value (exit 2)
    before anything is compiled or written -- ``--packets 0`` used to
    write a report compiled from an empty profile."""
    out = tmp_path / "report.json"
    for argv, needle in (
            (["--packets", "0"], "--packets must be >= 1, got 0"),
            (["--packets", "-5"], "--packets must be >= 1, got -5"),
            (["--app", "nosuchapp"], "unknown --app 'nosuchapp'"),
            (["--level", "NOPE"], "unknown --level 'NOPE'")):
        with pytest.raises(SystemExit) as exc:
            obs_ledger.main(argv + ["-o", str(out)])
        assert exc.value.code == 2, argv
        err = capsys.readouterr().err
        assert "error:" in err and needle in err, err
        assert not out.exists(), argv


# -- diff ------------------------------------------------------------------------------


def test_diff_identical_reports_exit_zero(tmp_path, capsys):
    result, _ = _mini_result()
    path = write_compile_report(result, str(tmp_path / "r.json"))
    assert diff_main([path, path]) == 0
    out = capsys.readouterr().out
    assert "identical" in out and "no regressions" in out


def test_diff_base_vs_swc_shows_expected_deltas(tmp_path, capsys):
    base, _ = _l3switch_result("BASE")
    p_base = write_compile_report(base, str(tmp_path / "base.json"))
    swc, _ = _l3switch_result("SWC")
    p_swc = write_compile_report(swc, str(tmp_path / "swc.json"))

    assert diff_main([p_base, p_swc]) == 0
    out = capsys.readouterr().out
    # The acceptance-criteria deltas: nonzero PAC combines + SWC residents.
    assert "decisions: pac.combined_loads - -> " in out
    assert "decisions: swc.resident - -> " in out


_MPLS_ROW = [0.614, 1.15, 1.189, 1.197, 1.234, 1.227]
_MPLS_BENCH = {"kind": "bench", "figure": "fig15", "app": "mpls",
               "me_counts": [1, 2, 3, 4, 5, 6],
               "rates": {"PHR": _MPLS_ROW, "SWC": _MPLS_ROW},
               "mem_accesses": {"SWC": {"total": 9.0}}}


def test_diff_rejects_row_length_disagreeing_with_me_counts(tmp_path, capsys):
    truncated = dict(_MPLS_BENCH, rates={"PHR": _MPLS_ROW, "SWC": [1.227]})
    po, pt = tmp_path / "o.json", tmp_path / "t.json"
    po.write_text(json.dumps(_MPLS_BENCH))
    pt.write_text(json.dumps(truncated))
    assert diff_main([str(po), str(pt)]) == EXIT_REGRESSION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(pt) in captured.err and "malformed bench file" in captured.err
    assert "'rates[SWC]' has 1 entries for 6 me_counts" in captured.err


def test_diff_errors_exit_one(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    assert diff_main([missing, missing]) == 1
    bench = tmp_path / "bench.json"
    bench.write_text(json.dumps({"kind": "bench", "rates": {}}))
    compile_p = tmp_path / "compile.json"
    compile_p.write_text(json.dumps({"kind": "compile_report"}))
    assert diff_main([str(bench), str(compile_p)]) == 1
    capsys.readouterr()


def test_diff_compile_gate_flags_code_size_growth(tmp_path, capsys):
    old = {"kind": "compile_report", "level": "SWC",
           "images": {"agg": {"code_size": 1000}}, "decision_counts": {}}
    new = {"kind": "compile_report", "level": "SWC",
           "images": {"agg": {"code_size": 1200}}, "decision_counts": {}}
    po, pn = tmp_path / "o.json", tmp_path / "n.json"
    po.write_text(json.dumps(old))
    pn.write_text(json.dumps(new))
    # Without --gate: reported but exit 0.
    assert diff_main([str(po), str(pn)]) == 0
    # With --gate: 20% growth beyond the 5% tolerance fails...
    assert diff_main([str(po), str(pn), "--gate"]) == EXIT_REGRESSION
    # ...and a looser tolerance lets the same pair pass.
    assert diff_main([str(po), str(pn), "--gate", "--tolerance", "0.5"]) == 0
    capsys.readouterr()
