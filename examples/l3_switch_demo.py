"""L3-Switch walkthrough: the paper's flagship benchmark end to end.

Shows the whole Shangri-La story on one application:

1. the functional profiler's statistics (PPF costs, channel loads);
2. aggregation (hot PPFs merged onto the MEs, control path on XScale);
3. the packet optimizations' effect on per-packet memory accesses;
4. forwarding rates at BASE vs fully optimized;
5. semantic spot checks: TTL/checksum rewriting and ARP replies.

Run:  python examples/l3_switch_demo.py
"""

from repro.apps import get_app
from repro.baker import parse_and_check
from repro.baker.lowering import lower_program
from repro.compiler import compile_baker
from repro.options import options_for
from repro.profiler.interpreter import run_reference
from repro.profiler.trace import ipv4_checksum
from repro.rts.system import run_on_simulator


def main() -> None:
    app = get_app("l3switch")
    trace = app.make_trace(200, seed=5)

    print("== functional profile (interpreting the IR over the trace)")
    ref = run_reference(lower_program(parse_and_check(app.source)), trace)
    profile = ref.profile
    for ppf in sorted(profile.ppf_invocations):
        print("  %-28s rate %.2f  weight %5.1f IR-instrs/packet" % (
            ppf, profile.invocation_rate(ppf), profile.ppf_weight(ppf)))

    print("\n== compiling BASE and +SWC")
    runs = {}
    for level in ("BASE", "SWC"):
        result = compile_baker(app.source, options_for(level), trace)
        if level == "SWC":
            print("  ME aggregates:", [a.ppfs for a in result.plan.me_aggregates])
            print("  XScale (control path):",
                  [a.ppfs for a in result.plan.xscale_aggregates])
            print("  SWC cached structures:", result.swc_result.cached_names())
        run = run_on_simulator(result, trace, n_mes=6,
                               warmup_packets=60, measure_packets=220)
        runs[level] = run
        p = run.access_profile
        print("  %-4s  %.2f Gbps | accesses/pkt: scratch %.1f sram %.1f dram %.1f app %.1f"
              % (level, run.forwarding_gbps, p.pkt_scratch, p.pkt_sram,
                 p.pkt_dram, p.app_scratch + p.app_sram))

    speedup = runs["SWC"].forwarding_gbps / max(runs["BASE"].forwarding_gbps, 1e-9)
    print("  optimization speedup at 6 MEs: %.1fx" % speedup)

    print("\n== semantic spot checks (reference output)")
    routed = next(p for p in ref.tx
                  if p.payload()[12:14] == b"\x08\x00" and p.payload()[22] == 63)
    frame = routed.payload()
    print("  routed packet: TTL 64 -> %d, header checksum %s" % (
        frame[22], "valid" if ipv4_checksum(frame[14:34]) == 0 else "BROKEN"))
    dst_ip = int.from_bytes(frame[30:34], "big")
    nh = app.expected_nexthop(dst_ip)
    print("  next hop for %d.%d.%d.%d: id %d, MAC %012x (oracle agrees: %s)" % (
        *dst_ip.to_bytes(4, "big"), nh, app.routes.nexthops[nh][0],
        frame[0:6] == app.routes.nexthops[nh][0].to_bytes(6, "big")))
    arp = [p for p in ref.tx if p.payload()[12:14] == b"\x08\x06"]
    print("  ARP replies generated on the XScale: %d" % len(arp))


if __name__ == "__main__":
    main()
