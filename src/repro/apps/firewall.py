"""Firewall: the paper's second benchmark application.

A transparent (bridging) firewall between an internal and an external
network (paper section 6.1): a classifier matches the 5-tuple (source
and destination IPs, ports, protocol) against an *ordered* list of
user-defined rules; the first match decides pass/drop and attaches a
flow id to the packet's metadata. Matching walks dynamic-offset headers
(IPv4 options legal, L4 beyond), so this is the paper's workload where
static offset resolution has the least to bite on, and the rule table's
access pattern (every rule touched for late-matching packets) defeats
the paper's 16-entry CAM-tagged software cache -- why its Table 1 shows
no SWC change. Here the whole table (192 words) fits Local Memory, so
SWC keeps it resident there, and the rule scan reads no SRAM.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from repro.apps import tables
from repro.apps.tables import (
    FirewallConfig,
    make_firewall_rules,
    render_firewall_rules,
)
from repro.profiler.trace import (
    ETH_TYPE_IP,
    Trace,
    TracePacket,
    build_ethernet,
    build_ipv4,
    build_udp,
)

NAME = "firewall"

_TEMPLATE = r"""
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

protocol l4 {
  sport : 16;
  dport : 16;
  demux { 4 };
}

metadata {
  u32 flow_id;
}

const u32 ETH_TYPE_IP = 0x0800;

// -- rule tables (generated) ----------------------------------------------------
%(tables)s

// Per-rule drop counters (control plane reads them; updated on the drop
// path only, without a lock: see dropper).
u32 fw_drop_count[64];
shared u32 fw_passed = 0;

module firewall {
  channel match_cc;
  channel drop_cc;
  channel other_cc;

  ppf clsfr(ether_pkt *ph) from rx {
    if (ph->type == ETH_TYPE_IP) {
      ipv4_pkt *iph = packet_decap(ph);
      channel_put(match_cc, iph);
    } else {
      channel_put(other_cc, ph);
    }
  }

  ppf rule_match(ipv4_pkt *iph) from match_cc {
    u32 src = iph->src;
    u32 dst = iph->dst;
    u32 proto = iph->proto;
    u32 hdr_bytes = iph->ihl << 2;
    l4_pkt *l4h = packet_decap(iph);
    u32 sport = l4h->sport;
    u32 dport = l4h->dport;

    u32 action = 0;
    u32 flow = 0;
    u32 matched_rule = 0xffffffff;
    for (u32 r = 0; r < N_RULES; r++) {
      u32 row = r << 4;  // 16-word rule rows
      // Most selective field first; later fields load only on a partial
      // match, so a failing rule usually costs two table reads.
      if ((dst & fw_rules[row + 3]) == (fw_rules[row + 2] & fw_rules[row + 3])) {
        if ((src & fw_rules[row + 1]) == (fw_rules[row + 0] & fw_rules[row + 1])) {
          if (dport >= fw_rules[row + 6] && dport <= fw_rules[row + 7]) {
            if (sport >= fw_rules[row + 4] && sport <= fw_rules[row + 5]) {
              u32 rproto = fw_rules[row + 8];
              if (rproto == 0 || rproto == proto) {
                action = fw_rules[row + 9];
                flow = fw_rules[row + 10];
                matched_rule = r;
                break;
              }
            }
          }
        }
      }
    }

    // Restore the frame head (L4 + IPv4 + Ethernet) before it leaves.
    packet_extend(l4h, hdr_bytes + 14);
    ether_pkt *eph = packet_as(l4h, ether);
    if (action == 1) {
      eph->meta.flow_id = matched_rule;
      channel_put(drop_cc, eph);
    } else {
      eph->meta.flow_id = flow;
      channel_put(tx, eph);
    }
  }

  // Non-IP frames bridge straight through (transparent device).
  ppf passthru(ether_pkt *ph) from other_cc {
    channel_put(tx, ph);
  }

  // -- control path (XScale): drop accounting ---------------------------------------

  ppf dropper(ether_pkt *ph) from drop_cc {
    // Per-rule drop statistic. The increment is intentionally
    // lock-free: on hardware each ME keeps its own counter slice; a
    // per-packet critical section here would serialize the data path.
    u32 rule = ph->meta.flow_id;
    fw_drop_count[rule & 63] = fw_drop_count[rule & 63] + 1;
    packet_drop(ph);
  }

  init {
    for (u32 i = 0; i < 64; i++) {
      fw_drop_count[i] = 0;
    }
  }
}
"""


def build_source(config: FirewallConfig) -> str:
    return _TEMPLATE % {"tables": render_firewall_rules(config)}


class FirewallApp:
    """Bundled application: source + trace generator + oracle."""

    name = NAME

    def __init__(self, n_rules: int = 12, seed: int = 44,
                 drop_fraction: float = 0.4):
        self.config = make_firewall_rules(n_rules=n_rules, seed=seed,
                                          drop_fraction=drop_fraction)
        self.source = build_source(self.config)

    def _flows(self, n_flows: int, seed: int) -> List[Tuple[int, int, int, int, int]]:
        """5-tuples biased toward the configured rules so both early and
        late rules (and the catch-all) get exercised."""
        rng = random.Random(seed)
        flows = []
        rules = self.config.rules[:-1]
        for i in range(n_flows):
            if rules and rng.random() < 0.7:
                rule = rules[rng.randrange(len(rules))]
                src = (rule.src_ip | rng.getrandbits(12)) if rule.src_mask else rng.getrandbits(32)
                dst = rule.dst_ip | rng.getrandbits(8)
                dport = rng.randint(rule.dport_lo, min(rule.dport_hi, rule.dport_lo + 50))
                proto = rule.proto or rng.choice([6, 17])
            else:
                src = 0x0A000000 | rng.getrandbits(16)
                dst = 0xC0A80000 | rng.getrandbits(16)
                dport = rng.randrange(0xFFFF)
                proto = rng.choice([6, 17])
            flows.append((src, dst, rng.randrange(1024, 0xFFFF), dport, proto))
        return flows

    def make_trace(self, count: int, seed: int = 2, n_flows: int = 48) -> Trace:
        rng = random.Random(seed)
        flows = self._flows(n_flows, seed + 5)
        trace = Trace()
        for i in range(count):
            port = i % tables.N_PORTS
            src, dst, sport, dport, proto = flows[rng.randrange(len(flows))]
            udp = build_udp(sport, dport)
            ip = build_ipv4(src, dst, payload=udp, proto=proto, total_length=46)
            frame = build_ethernet(tables.ROUTER_MACS[port],
                                   0x020000000000 | i, ETH_TYPE_IP, ip)
            trace.packets.append(TracePacket(frame, port))
        return trace

    # -- oracle --------------------------------------------------------------------

    def expected_action(self, src: int, dst: int, sport: int, dport: int,
                        proto: int) -> Tuple[int, int]:
        return self.config.classify(src, dst, sport, dport, proto)
