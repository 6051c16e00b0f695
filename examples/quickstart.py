"""Quickstart: compile a small Baker program and run it on the simulated
IXP2400.

A Baker program is a dataflow of packet processing functions (PPFs)
connected by channels. This one classifies Ethernet frames, forwards
IPv4 packets addressed to the router (decrementing TTL), and bridges
everything else. The compiler profiles it, merges the hot PPFs onto the
microengines, applies the packet optimizations, and produces ME images;
the runtime loads them onto the simulated chip and we measure the
forwarding rate under 3 Gbps of 64-byte packets.

Run:  python examples/quickstart.py
"""

import sys

from repro.compiler import compile_baker
from repro.options import options_for
from repro.profiler.trace import ipv4_trace
from repro.rts.system import run_on_simulator, verify_against_reference

SOURCE = r"""
protocol ether {
  dst : 48;
  src : 48;
  type : 16;
  demux { 14 };
}

protocol ipv4 {
  ver : 4;    ihl : 4;    tos : 8;    length : 16;
  ident : 16; flags_frag : 16;
  ttl : 8;    proto : 8;  checksum : 16;
  src : 32;   dst : 32;
  demux { ihl << 2 };
}

const u32 ETH_TYPE_IP = 0x0800;
u64 my_macs[4] = { 0x0a0000000001, 0x0a0000000002, 0x0a0000000003, 0 };
u64 gateway_mac = 0x0c0000000099;

module quick {
  channel route_cc;

  ppf classify(ether_pkt *ph) from rx {
    bool mine = ph->dst == my_macs[ph->meta.rx_port];
    if (mine && ph->type == ETH_TYPE_IP) {
      ipv4_pkt *iph = packet_decap(ph);
      channel_put(route_cc, iph);
    } else {
      channel_put(tx, ph);  // bridge unmodified
    }
  }

  ppf route(ipv4_pkt *iph) from route_cc {
    iph->ttl = iph->ttl - 1;
    ether_pkt *eph = packet_encap(iph, ether);
    eph->dst = gateway_mac;
    eph->src = my_macs[0];
    eph->type = ETH_TYPE_IP;
    channel_put(tx, eph);
  }
}
"""


def main() -> None:
    macs = [0x0A0000000001, 0x0A0000000002, 0x0A0000000003]
    trace = ipv4_trace(200, dst_addrs=[0xC0A80101, 0x08080808],
                       router_macs=macs, seed=1)

    print("compiling at the full optimization level (+SWC)...")
    result = compile_baker(SOURCE, options_for("SWC"), trace)

    for name, image in result.images.items():
        print("  ME image %s" % image.describe())
    print("  aggregation: %d ME aggregate(s), %d on the XScale"
          % (len(result.plan.me_aggregates), len(result.plan.xscale_aggregates)))

    print("verifying against the functional reference...", end=" ")
    ok = verify_against_reference(result, trace, packets=40)
    print("OK" if ok else "MISMATCH")
    if not ok:
        sys.exit("quickstart: the simulated chip's output differs from the reference")

    for n_mes in (1, 2, 4, 6):
        run = run_on_simulator(result, trace, n_mes=n_mes,
                               warmup_packets=60, measure_packets=200)
        print("  %d ME(s): %.2f Gbps" % (n_mes, run.forwarding_gbps))

    run = run_on_simulator(result, trace, n_mes=4)
    p = run.access_profile
    print("per-packet memory accesses: "
          "pkt scratch %.1f / sram %.1f / dram %.1f, app sram %.1f"
          % (p.pkt_scratch, p.pkt_sram, p.pkt_dram, p.app_sram))


if __name__ == "__main__":
    main()
