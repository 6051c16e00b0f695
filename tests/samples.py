"""Shared Baker source samples used across the test suite."""

import random
from typing import Sequence

from repro.profiler.trace import (
    ETH_TYPE_MPLS, Trace, TracePacket, build_ethernet, build_ipv4,
    build_mpls_stack,
)

ETHER_IPV4_PROTOCOLS = r"""
protocol ether {
  dst : 48;
  src : 48;
  type : 16;
  demux { 14 };
}

protocol ipv4 {
  ver : 4;
  ihl : 4;
  tos : 8;
  length : 16;
  ident : 16;
  flags_frag : 16;
  ttl : 8;
  proto : 8;
  checksum : 16;
  src : 32;
  dst : 32;
  demux { ihl << 2 };
}
"""

MINI_FORWARDER = (
    ETHER_IPV4_PROTOCOLS
    + r"""
metadata {
  u32 nexthop_id;
}

const u32 ETH_TYPE_IP = 0x0800;
const u32 ETH_TYPE_ARP = 0x0806;

u64 mac_addrs[4] = { 0x0a0000000001, 0x0a0000000002, 0x0a0000000003, 0x0a0000000004 };
shared u32 arp_seen = 0;

u32 mix(u32 x) {
  return (x ^ (x >> 16)) * 0x45d9f3b;
}

module l3_switch {
  channel l3_forward_cc;
  channel l2_bridge_cc;
  channel arp_cc;

  ppf l2_clsfr(ether_pkt *ph) from rx {
    bool is_arp = ph->type == ETH_TYPE_ARP;
    bool forward = ph->dst == mac_addrs[ph->meta.rx_port];
    if (is_arp) {
      channel_put(arp_cc, packet_copy(ph));
    }
    if (forward) {
      ipv4_pkt *iph = packet_decap(ph);
      channel_put(l3_forward_cc, iph);
    } else {
      channel_put(l2_bridge_cc, ph);
    }
  }

  ppf l3_fwdr(ipv4_pkt *iph) from l3_forward_cc {
    u32 h = mix(iph->dst);
    iph->meta.nexthop_id = h & 0xff;
    iph->ttl = iph->ttl - 1;
    ether_pkt *eph = packet_encap(iph, ether);
    eph->src = mac_addrs[0];
    eph->dst = mac_addrs[1];
    eph->type = ETH_TYPE_IP;
    channel_put(tx, eph);
  }

  ppf l2_bridge(ether_pkt *ph) from l2_bridge_cc {
    channel_put(tx, ph);
  }

  ppf arp_handler(ether_pkt *ph) from arp_cc {
    critical (arp_lock) {
      arp_seen = arp_seen + 1;
    }
    packet_drop(ph);
  }

  init {
    arp_seen = 0;
  }
}
"""
)

# The smallest legal program: one PPF that forwards everything.
PASSTHROUGH = (
    ETHER_IPV4_PROTOCOLS
    + r"""
module fwd {
  ppf go(ether_pkt *ph) from rx {
    channel_put(tx, ph);
  }
}
"""
)


def array_frame(words: int) -> str:
    """A PPF whose helper keeps a ``words``-word local array. Past Local
    Memory's 48 words of frame space the frame goes to SRAM; 400 words
    is past the 1024-byte SRAM stack area of a thread."""
    return ETHER_IPV4_PROTOCOLS + """
u32 fill(u32 x) {
  u32 a[%d]; u32 i = 0;
  while (i < %d) { a[i] = x + i; i = i + 1; }
  return a[x & 127];
}
module m { ppf go(ether_pkt *ph) from rx {
  ph->type = fill(ph->type) & 0xffff; channel_put(tx, ph); } }
""" % (words, words)


def mpls_trace(
    count: int,
    router_macs: Sequence[int],
    labels: Sequence[int],
    seed: int = 3,
    ports: int = 3,
    stack_depth: int = 1,
) -> Trace:
    """MPLS-over-Ethernet 64 B frames with ``stack_depth`` labels, the
    innermost over an IPv4 payload (NPF MPLS forwarding shape)."""
    rng = random.Random(seed)
    trace = Trace()
    for i in range(count):
        port = i % ports
        stack = [labels[rng.randrange(len(labels))] for _ in range(stack_depth)]
        ip = build_ipv4(0x0A000001 + i, 0xC0A80101, total_length=26)
        payload = build_mpls_stack(stack) + ip
        frame = build_ethernet(router_macs[port], 0x020000000000 + i, ETH_TYPE_MPLS, payload)
        trace.packets.append(TracePacket(frame, port))
    return trace
