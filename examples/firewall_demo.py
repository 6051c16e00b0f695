"""Firewall walkthrough: ordered-rule classification on the fast path.

Demonstrates first-match rule semantics against the Python oracle, the
pass/drop split, and why the software-controlled cache declines to cache
the rule table (its working set overflows the 16-entry CAM) -- the
paper's explanation for Firewall's unchanged +SWC row in Table 1.

Run:  python examples/firewall_demo.py
"""

from repro.apps import get_app
from repro.baker import parse_and_check
from repro.baker.lowering import lower_program
from repro.compiler import compile_baker
from repro.options import options_for
from repro.profiler.interpreter import Interpreter
from repro.rts.system import run_on_simulator


def main() -> None:
    app = get_app("firewall")
    trace = app.make_trace(300, seed=7)

    print("== rule set (first match wins; last rule is the catch-all)")
    for i, rule in enumerate(app.config.rules[:6]):
        print("  #%-2d dst %08x/%08x dport %5d-%-5d proto %2d -> %s (flow %d)" % (
            i, rule.dst_ip, rule.dst_mask, rule.dport_lo, rule.dport_hi,
            rule.proto, "DROP" if rule.action else "pass", rule.flow_id))
    print("  ... (%d rules total)" % len(app.config.rules))

    print("\n== classification vs oracle")
    mod = lower_program(parse_and_check(app.source))
    interp = Interpreter(mod)
    interp.run_inits()
    res = interp.run_trace(trace)
    oracle_drops = 0
    for tp in trace:
        f = tp.data
        action, _ = app.expected_action(
            int.from_bytes(f[26:30], "big"), int.from_bytes(f[30:34], "big"),
            int.from_bytes(f[34:36], "big"), int.from_bytes(f[36:38], "big"),
            f[23])
        oracle_drops += action
    print("  packets: %d in, %d passed, %d dropped (oracle predicts %d drops)"
          % (res.profile.packets_in, res.profile.packets_out,
             res.profile.packets_dropped, oracle_drops))
    per_rule = [(i, interp.globals.load("fw_drop_count", i * 4, 4))
                for i in range(64)]
    hot = [(i, c) for i, c in per_rule if c]
    print("  per-rule drop counters:", hot)

    print("\n== compile + simulate (+SWC)")
    result = compile_baker(app.source, options_for("SWC"), trace)
    print("  SWC cached:", result.swc_result.cached_names() or "(nothing)")
    print("  the CAM turned fw_rules down because:",
          result.swc_result.rejected.get("fw_rules"))
    print("  resident in Local Memory:",
          [r.name for r in result.swc_result.resident] or "(nothing)")
    run = run_on_simulator(result, trace, n_mes=6, warmup_packets=60,
                           measure_packets=220)
    print("  forwarding rate at 6 MEs: %.2f Gbps "
          "(app SRAM %.1f accesses/packet -- the rule scan reads Local Memory)"
          % (run.forwarding_gbps, run.access_profile.app_sram))


if __name__ == "__main__":
    main()
