"""MPLS: the paper's third benchmark application (NPF MPLS forwarding).

Routes by label instead of destination IP (paper section 6.1 and the
MPLS-over-Ethernet example of Figure 9): an incoming label is looked up
in the ILM (incoming label map) and swapped, popped (possibly repeatedly
down the label stack, the case that defeats static offset resolution --
Figure 9's point) or a new label is pushed; ingress IPv4 packets are
labeled via a FEC-to-label (FTN) table keyed by destination /16.

The ILM and the next-hop table are the hot, rarely-written structures
the paper's delayed-update software cache captures for MPLS in Table 1.
Here the next-hop table is kept whole in Local Memory; the 1024-word ILM
does not fit there and is read from SRAM.
"""

from __future__ import annotations

import random
from typing import List

from repro.apps import tables
from repro.apps.tables import (
    MPLS_OP_POP,
    MPLS_OP_PUSH,
    MPLS_OP_SWAP,
    MplsConfig,
    make_mpls_config,
    render_mpls_config,
)
from repro.profiler.trace import (
    ETH_TYPE_IP,
    ETH_TYPE_MPLS,
    Trace,
    TracePacket,
    build_ethernet,
    build_ipv4,
    build_mpls_stack,
)

NAME = "mpls"

_TEMPLATE = r"""
protocol ether {
  dst : 48;
  src : 48;
  type : 16;
  demux { 14 };
}

protocol mpls {
  label : 20;
  tc : 3;
  bos : 1;
  ttl : 8;
  demux { 4 };
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

metadata {
  u32 nexthop;
  u32 out_type;
}

const u32 ETH_TYPE_IP = 0x0800;
const u32 ETH_TYPE_MPLS = 0x8847;
const u32 OP_SWAP = 1;
const u32 OP_POP = 2;
const u32 OP_PUSH = 3;

// -- label tables (generated) ---------------------------------------------------
%(tables)s

shared u32 mpls_errors = 0;

module mpls_fwd {
  channel label_cc;
  channel ingress_cc;
  channel encap_cc;
  channel err_cc;

  ppf clsfr(ether_pkt *ph) from rx {
    u32 t = ph->type;
    if (t == ETH_TYPE_MPLS) {
      mpls_pkt *mph = packet_decap(ph);
      channel_put(label_cc, mph);
    } else {
      if (t == ETH_TYPE_IP) {
        ipv4_pkt *iph = packet_decap(ph);
        channel_put(ingress_cc, iph);
      } else {
        channel_put(err_cc, ph);
      }
    }
  }

  // Label switching: swap / pop (down the stack) / push.
  ppf label_fwdr(mpls_pkt *mph) from label_cc {
    u32 guard = 6;
    bool done = false;
    bool failed = false;
    u32 nexthop = 0;
    while (!done && guard > 0) {
      guard -= 1;
      u32 entry = ilm[mph->label & 1023];
      u32 op = entry >> 30;
      u32 out_label = (entry >> 10) & 0xfffff;
      u32 ttl = mph->ttl;
      if (ttl <= 1 || op == 0) {
        failed = true;
        done = true;
      } else {
        if (op == OP_SWAP) {
          // Rewrite the whole label-stack entry (one word): the access
          // combiner then issues a single full-word store.
          u32 tc = mph->tc;
          u32 bos = mph->bos;
          mph->label = out_label;
          mph->tc = tc;
          mph->bos = bos;
          mph->ttl = ttl - 1;
          nexthop = entry & 0x3ff;
          done = true;
        }
        if (op == OP_PUSH) {
          mph->ttl = ttl - 1;
          mpls_pkt *outer = packet_encap(mph, mpls);
          outer->label = out_label;
          outer->tc = 0;
          outer->bos = 0;
          outer->ttl = ttl - 1;
          mph = outer;
          nexthop = entry & 0x3ff;
          done = true;
        }
        if (op == OP_POP) {
          if (mph->bos == 1) {
            // Final pop: IPv4 below; hand the bare IP packet to egress.
            nexthop = entry & 0x3ff;
            mph = packet_as(packet_decap(mph), mpls);
            mph->meta.out_type = ETH_TYPE_IP;
            mph->meta.nexthop = nexthop;
            channel_put(encap_cc, mph);
            done = true;
          } else {
            mpls_pkt *inner = packet_decap(mph);
            mph = inner;
            // continue around the loop with the inner label
          }
        }
      }
    }
    if (failed || guard == 0 && !done) {
      channel_put(err_cc, packet_as(mph, ether));
    } else {
      if (mph->meta.out_type != ETH_TYPE_IP) {
        mph->meta.out_type = ETH_TYPE_MPLS;
        mph->meta.nexthop = nexthop;
        channel_put(encap_cc, mph);
      }
    }
  }

  // IPv4 ingress: attach a label from the FTN and push it.
  ppf ingress(ipv4_pkt *iph) from ingress_cc {
    u32 dst = iph->dst;
    u32 idx = (dst >> 16) & 0xff;
    u32 label = ftn_label[idx];
    if (label == 0) {
      channel_put(err_cc, packet_as(iph, ether));
    } else {
      u32 ttl = iph->ttl;
      mpls_pkt *mph = packet_encap(iph, mpls);
      mph->label = label;
      mph->tc = 0;
      mph->bos = 1;
      mph->ttl = ttl;
      mph->meta.out_type = ETH_TYPE_MPLS;
      mph->meta.nexthop = ftn_nh[idx];
      channel_put(encap_cc, mph);
    }
  }

  ppf eth_out(mpls_pkt *mph) from encap_cc {
    u32 nh = mph->meta.nexthop;
    u64 dmac = nh_mac[nh];
    u32 out_port = nh_port[nh];
    ether_pkt *eph = packet_encap(mph, ether);
    eph->dst = dmac;
    eph->src = nh_mac[0];
    eph->type = mph->meta.out_type;
    channel_put(tx, eph);
  }

  // -- control path (XScale) -----------------------------------------------------

  ppf err_handler(ether_pkt *ph) from err_cc {
    critical (mpls_err_lock) {
      mpls_errors = mpls_errors + 1;
    }
    packet_drop(ph);
  }
}
"""


def build_source(config: MplsConfig) -> str:
    return _TEMPLATE % {"tables": render_mpls_config(config)}


class MplsApp:
    """Bundled application: source + trace generator + oracle."""

    name = NAME

    def __init__(self, n_labels: int = 8, seed: int = 45):
        self.config = make_mpls_config(n_labels=n_labels, seed=seed)
        self.source = build_source(self.config)

    def make_trace(self, count: int, seed: int = 3,
                   ingress_fraction: float = 0.15,
                   deep_stack_fraction: float = 0.2) -> Trace:
        """Mostly labeled traffic (hot ILM labels), some with 2-3 deep
        stacks whose top labels pop, plus IPv4 ingress packets."""
        rng = random.Random(seed)
        labels = self.config.hot_labels()
        pop_labels = [l for l in labels if self.config.ilm[l][0] == MPLS_OP_POP]
        fwd_labels = [l for l in labels if self.config.ilm[l][0] != MPLS_OP_POP]
        trace = Trace()
        for i in range(count):
            port = i % tables.N_PORTS
            if rng.random() < ingress_fraction:
                prefix16 = 0xC0A8 + rng.randrange(8)
                ip = build_ipv4(0x0A000001 + i, (prefix16 << 16) | rng.getrandbits(16),
                                total_length=46)
                frame = build_ethernet(tables.ROUTER_MACS[port],
                                       0x020000000000 | i, ETH_TYPE_IP, ip)
            else:
                roll = rng.random()
                if pop_labels and roll < deep_stack_fraction:
                    depth = rng.choice([2, 3])
                    stack = [pop_labels[rng.randrange(len(pop_labels))]
                             for _ in range(depth - 1)]
                    stack.append(fwd_labels[rng.randrange(len(fwd_labels))])
                elif pop_labels and roll < deep_stack_fraction + 0.15:
                    # A lone pop label at bottom-of-stack: exercises the
                    # final-pop / IP-egress path.
                    stack = [pop_labels[rng.randrange(len(pop_labels))]]
                else:
                    stack = [fwd_labels[rng.randrange(len(fwd_labels))]]
                ip = build_ipv4(0x0A000001 + i, 0xC0A80101, total_length=26)
                payload = build_mpls_stack(stack, ttl=64) + ip
                frame = build_ethernet(tables.ROUTER_MACS[port],
                                       0x020000000000 | i, ETH_TYPE_MPLS, payload)
            trace.packets.append(TracePacket(frame, port))
        return trace
