"""Extending Baker with a new protocol: 802.1Q VLAN tagging.

The paper's protocol construct makes new encapsulations a few lines of
code (section 2.2). This example defines a VLAN header, writes a small
access-port switch that tags untagged frames and untags/forwards tagged
ones, and shows the compiler's optimization reports: how many accesses
PAC combined and how many encapsulations PHR elided on the new protocol.

Run:  python examples/custom_protocol.py
"""

import sys

from repro.compiler import compile_baker
from repro.options import options_for
from repro.profiler.trace import (
    Trace,
    TracePacket,
    build_ethernet,
    build_ipv4,
)
from repro.rts.system import run_on_simulator, verify_against_reference

SOURCE = r"""
protocol ether {
  dst : 48;
  src : 48;
  type : 16;
  demux { 14 };
}

// 802.1Q tag as its own protocol: pushed between the MAC addresses and
// the original ethertype by re-encapsulation.
protocol vlan {
  dst : 48;
  src : 48;
  tpid : 16;
  pcp : 3;
  dei : 1;
  vid : 12;
  type : 16;
  demux { 18 };
}

const u32 TPID = 0x8100;
u32 port_vlan[4] = { 100, 200, 300, 0 };

module vlan_switch {
  channel tag_cc;
  channel untag_cc;

  ppf classify(ether_pkt *ph) from rx {
    if (ph->type == TPID) {
      // Already tagged: reinterpret the frame as a VLAN frame.
      vlan_pkt *vph = packet_as(ph, vlan);
      channel_put(untag_cc, vph);
    } else {
      channel_put(tag_cc, ph);
    }
  }

  // Access port -> trunk: push a tag for the ingress port's VLAN.
  ppf tagger(ether_pkt *ph) from tag_cc {
    u64 dst = ph->dst;
    u64 src = ph->src;
    u32 t = ph->type;
    u32 vid = port_vlan[ph->meta.rx_port];
    packet_extend(ph, 4);  // four bytes of new header space
    vlan_pkt *vph = packet_as(ph, vlan);
    vph->dst = dst;
    vph->src = src;
    vph->tpid = TPID;
    vph->pcp = 0;
    vph->dei = 0;
    vph->vid = vid;
    vph->type = t;
    channel_put(tx, vph);
  }

  // Trunk -> access port: strip the tag.
  ppf untagger(vlan_pkt *vph) from untag_cc {
    u64 dst = vph->dst;
    u64 src = vph->src;
    u32 inner_type = vph->type;
    packet_shorten(vph, 4);
    ether_pkt *eph = packet_as(vph, ether);
    eph->dst = dst;
    eph->src = src;
    eph->type = inner_type;
    channel_put(tx, eph);
  }
}
"""


def make_trace(count: int) -> Trace:
    trace = Trace()
    for i in range(count):
        ip = build_ipv4(0x0A000001 + i, 0xC0A80101, total_length=46)
        if i % 3 == 2:
            # Pre-tagged frame: 0x8100 tag with VID 77 spliced in.
            plain = build_ethernet(0x0C0000000001, 0x020000000000 | i, 0x0800, ip)
            tagged = plain[:12] + b"\x81\x00" + (77).to_bytes(2, "big") + plain[12:]
            trace.packets.append(TracePacket(tagged[:64], i % 3))
        else:
            frame = build_ethernet(0x0C0000000001, 0x020000000000 | i, 0x0800, ip)
            trace.packets.append(TracePacket(frame, i % 3))
    return trace


def main() -> None:
    trace = make_trace(150)
    result = compile_baker(SOURCE, options_for("SWC"), trace)

    print("compiled VLAN switch:")
    for image in result.images.values():
        print(" ", image.describe())
    print("  PAC: %d packet accesses combined into %d wide ops"
          % (result.pac_result.combined_loads + result.pac_result.combined_stores,
             result.pac_result.wide_loads + result.pac_result.wide_stores))
    print("  SOAR: %.0f%% of packet accesses statically resolved"
          % (100 * result.soar_result.resolution_rate))

    ok = verify_against_reference(result, trace, packets=45)
    print("  differential check vs reference:", "OK" if ok else "MISMATCH")
    if not ok:
        sys.exit("custom_protocol: the simulated chip's output differs from the reference")

    run = run_on_simulator(result, trace, n_mes=4, warmup_packets=50,
                           measure_packets=180)
    print("  forwarding rate at 4 MEs: %.2f Gbps" % run.forwarding_gbps)

    outs = run.tx_payloads
    n_tagged = sum(1 for p in outs if p[12:14] == b"\x81\x00")
    n_plain = len(outs) - n_tagged
    print("  transmitted: %d tagged (pushed), %d untagged (popped)"
          % (n_tagged, n_plain))
    sample = next(p for p in outs if p[12:14] == b"\x81\x00")
    vid = int.from_bytes(sample[14:16], "big") & 0xFFF
    print("  sample pushed tag: VID %d (port VLANs are 100/200/300)" % vid)


if __name__ == "__main__":
    main()
