"""L3-Switch: the paper's first benchmark application (NPF IP forwarding).

Bridges and routes IPv4-over-Ethernet packets (paper section 6.1):

* ``l2_clsfr`` -- copies ARP frames to the control path, sends frames
  addressed to the router's port MAC to the L3 forwarder, bridges the
  rest;
* ``l3_fwdr`` -- validates the IPv4 header (version, IHL, TTL, full
  one's-complement checksum), performs the longest-prefix-match route
  lookup in a two-level (16+8) multibit trie held in SRAM, decrements
  TTL with an incremental checksum update (RFC 1624), and attaches the
  next-hop id to the packet metadata;
* ``eth_encap`` -- re-encapsulates with the next hop's MAC addresses
  (the metadata pattern of paper Figure 1);
* ``l2_bridge`` -- static MAC table lookup (open-addressing probe);
* ``arp_handler`` / ``err_handler`` -- control path (mapped to the
  XScale by aggregation): ARP reply generation via ``packet_create``,
  error accounting.

The route trie is built at boot by the module ``init`` block from the
flat route arrays -- real pointer-chasing table construction running on
the (simulated) XScale.
"""

from __future__ import annotations

import random
from typing import List

from repro.apps import tables
from repro.apps.tables import (
    BridgeTable,
    RouteTable,
    make_bridge_table,
    make_route_table,
    render_bridge_table,
    render_route_table,
)
from repro.profiler.trace import (
    ETH_TYPE_ARP,
    ETH_TYPE_IP,
    Trace,
    TracePacket,
    build_ethernet,
    build_ipv4,
)

NAME = "l3switch"

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

protocol arp {
  htype : 16;
  ptype : 16;
  hlen : 8;
  plen : 8;
  oper : 16;
  sha : 48;
  spa : 32;
  tha : 48;
  tpa : 32;
  demux { 28 };
}

metadata {
  u32 nexthop;
}

const u32 ETH_TYPE_IP = 0x0800;
const u32 ETH_TYPE_ARP = 0x0806;

// -- tables (generated) ------------------------------------------------------
%(tables)s

// Two-level multibit trie (16-bit root stride, 8-bit second stride).
// Entry encoding: 0 = empty, 0x80000000|nh = leaf, 0x40000000|block = pointer.
u32 trie16[65536];
u32 trie8[16384];
u32 trie8_next = 0;

// Control-plane counters.
shared u32 arp_requests = 0;
shared u32 err_drops = 0;

module l3_switch {
  channel l3_cc;
  channel encap_cc;
  channel bridge_cc;
  channel arp_cc;
  channel err_cc;

  // -- data path ---------------------------------------------------------------

  ppf l2_clsfr(ether_pkt *ph) from rx {
    u32 port = ph->meta.rx_port;
    bool is_arp = ph->type == ETH_TYPE_ARP;
    if (is_arp) {
      channel_put(arp_cc, packet_copy(ph));
    }
    bool to_router = ph->dst == port_mac[port];
    bool is_ip = ph->type == ETH_TYPE_IP;
    if (to_router && is_ip) {
      ipv4_pkt *iph = packet_decap(ph);
      channel_put(l3_cc, iph);
    } else {
      channel_put(bridge_cc, ph);
    }
  }

  ppf l3_fwdr(ipv4_pkt *iph) from l3_cc {
    // Header validation: version, IHL, TTL, full header checksum.
    u32 ttl = iph->ttl;
    u32 sum = (iph->ver << 12) | (iph->ihl << 8) | iph->tos;
    sum = sum + iph->length;
    sum = sum + iph->ident;
    sum = sum + iph->flags_frag;
    sum = sum + ((ttl << 8) | iph->proto);
    sum = sum + iph->checksum;
    u32 srcw = iph->src;
    sum = sum + (srcw >> 16) + (srcw & 0xffff);
    u32 dst = iph->dst;
    sum = sum + (dst >> 16) + (dst & 0xffff);
    sum = (sum & 0xffff) + (sum >> 16);
    sum = (sum & 0xffff) + (sum >> 16);
    bool bad = iph->ver != 4 || iph->ihl != 5 || ttl <= 1 || sum != 0xffff;
    if (bad) {
      channel_put(err_cc, packet_as(iph, ether));
    } else {
      // Longest-prefix match in the trie.
      u32 e = trie16[dst >> 16];
      if ((e & 0x40000000) != 0) {
        u32 block = e & 0xffff;
        e = trie8[(block << 8) + ((dst >> 8) & 0xff)];
      }
      u32 nh = 0;
      if ((e & 0x80000000) != 0) {
        nh = e & 0xffff;
      }
      // TTL decrement + incremental checksum update (RFC 1624).
      u32 old_word = (ttl << 8) | iph->proto;
      u32 new_word = ((ttl - 1) << 8) | iph->proto;
      u32 csum = iph->checksum;
      u32 upd = (csum ^ 0xffff) + (old_word ^ 0xffff) + new_word;
      upd = (upd & 0xffff) + (upd >> 16);
      upd = (upd & 0xffff) + (upd >> 16);
      iph->ttl = ttl - 1;
      iph->checksum = upd ^ 0xffff;
      iph->meta.nexthop = nh;
      channel_put(encap_cc, iph);
    }
  }

  ppf eth_encap(ipv4_pkt *iph) from encap_cc {
    u32 nh = iph->meta.nexthop;
    u64 dmac = nh_mac[nh];
    u32 out_port = nh_port[nh];
    ether_pkt *eph = packet_encap(iph, ether);
    eph->dst = dmac;
    eph->src = port_mac[out_port];
    eph->type = ETH_TYPE_IP;
    channel_put(tx, eph);
  }

  ppf l2_bridge(ether_pkt *ph) from bridge_cc {
    u64 dst = ph->dst;
    u32 idx = ((u32) (dst ^ (dst >> 16) ^ (dst >> 32))) & (BR_SLOTS - 1);
    u32 probes = 0;
    u32 out = 0xffffffff;
    while (probes < 4) {
      u64 mac = br_mac[idx];
      if (mac == dst) {
        out = br_port[idx];
        break;
      }
      if (mac == 0) {
        break;
      }
      idx = (idx + 1) & (BR_SLOTS - 1);
      probes += 1;
    }
    if (out == 0xffffffff) {
      channel_put(err_cc, ph);
    } else {
      channel_put(tx, ph);
    }
  }

  // -- control path (XScale) ------------------------------------------------------

  ppf arp_handler(ether_pkt *ph) from arp_cc {
    arp_pkt *ap = packet_decap(ph);
    bool is_request = ap->oper == 1;
    u32 port = ap->meta.rx_port;
    critical (arp_lock) {
      arp_requests = arp_requests + 1;
    }
    if (is_request) {
      // Build an ARP reply claiming the router's port MAC.
      ether_pkt *re = packet_create(ether, 50);
      re->dst = ap->sha;
      re->src = port_mac[port];
      re->type = ETH_TYPE_ARP;
      arp_pkt *rap = packet_decap(re);
      rap->htype = 1;
      rap->ptype = ETH_TYPE_IP;
      rap->hlen = 6;
      rap->plen = 4;
      rap->oper = 2;
      rap->sha = port_mac[port];
      rap->spa = ap->tpa;
      rap->tha = ap->sha;
      rap->tpa = ap->spa;
      ether_pkt *out = packet_encap(rap, ether);
      channel_put(tx, out);
    }
    packet_drop(ap);
  }

  ppf err_handler(ether_pkt *ph) from err_cc {
    critical (err_lock) {
      err_drops = err_drops + 1;
    }
    packet_drop(ph);
  }

  // -- boot-time trie construction --------------------------------------------------

  init {
    for (u32 r = 0; r < N_ROUTES; r++) {
      u32 prefix = route_prefix[r];
      u32 len = route_len[r];
      u32 leaf = 0x80000000 | route_nh[r];
      if (len <= 16) {
        u32 span = 1 << (16 - len);
        u32 base = prefix >> 16;
        for (u32 i = 0; i < span; i++) {
          u32 e = trie16[base + i];
          if ((e & 0x40000000) != 0) {
            // A longer prefix already expanded here: fill its empty slots.
            u32 block = e & 0xffff;
            for (u32 j = 0; j < 256; j++) {
              if (trie8[(block << 8) + j] == 0) {
                trie8[(block << 8) + j] = leaf;
              }
            }
          } else {
            trie16[base + i] = leaf;
          }
        }
      } else {
        u32 idx = prefix >> 16;
        u32 e = trie16[idx];
        u32 block = 0;
        if ((e & 0x40000000) != 0) {
          block = e & 0xffff;
        } else {
          block = trie8_next;
          trie8_next = trie8_next + 1;
          for (u32 j = 0; j < 256; j++) {
            trie8[(block << 8) + j] = e;  // inherit the shorter route (or 0)
          }
          trie16[idx] = 0x40000000 | block;
        }
        u32 span8 = 1 << (24 - len);
        u32 base8 = (prefix >> 8) & 0xff;
        for (u32 i = 0; i < span8; i++) {
          trie8[(block << 8) + base8 + i] = leaf;
        }
      }
    }
  }
}
"""


def build_source(routes: RouteTable, bridge: BridgeTable) -> str:
    rendered = render_route_table(routes) + "\n" + render_bridge_table(bridge)
    return _TEMPLATE % {"tables": rendered}


class L3SwitchApp:
    """Bundled application: source + matching trace generator + oracles."""

    name = NAME

    def __init__(self, n_routes: int = 64, seed: int = 42):
        self.routes = make_route_table(n_routes=n_routes, seed=seed)
        assert all(r.length <= 24 for r in self.routes.routes), \
            "the Baker trie builder supports prefixes up to /24"
        self.bridge = make_bridge_table(seed=seed + 1)
        self.source = build_source(self.routes, self.bridge)

    def make_trace(self, count: int, seed: int = 1,
                   bridged_fraction: float = 0.10,
                   arp_fraction: float = 0.02,
                   bad_fraction: float = 0.01) -> Trace:
        """Routed IPv4 traffic plus bridged stations, a little ARP, and a
        trickle of invalid packets (TTL expiry) for the error path."""
        rng = random.Random(seed)
        dsts = self.routes.addresses_in(max(count, 64), seed=seed + 7)
        stations = sorted(self.bridge.entries)
        trace = Trace()
        for i in range(count):
            port = i % tables.N_PORTS
            roll = rng.random()
            if roll < arp_fraction:
                arp_req = (
                    (1).to_bytes(2, "big") + ETH_TYPE_IP.to_bytes(2, "big")
                    + bytes([6, 4]) + (1).to_bytes(2, "big")
                    + (0x020000000000 | i).to_bytes(6, "big")
                    + (0x0A000001 + i).to_bytes(4, "big")
                    + bytes(6)
                    + (0xC0A80101).to_bytes(4, "big")
                )
                frame = build_ethernet(0xFFFFFFFFFFFF, 0x020000000000 | i,
                                       ETH_TYPE_ARP, arp_req)
            elif roll < arp_fraction + bridged_fraction:
                dst_mac = stations[rng.randrange(len(stations))]
                ip = build_ipv4(0x0A000001 + i, dsts[i % len(dsts)],
                                total_length=46)
                frame = build_ethernet(dst_mac, 0x020000000000 | i,
                                       ETH_TYPE_IP, ip)
            else:
                ttl = 1 if rng.random() < bad_fraction else 64
                ip = build_ipv4(0x0A000001 + i, dsts[i % len(dsts)],
                                ttl=ttl, total_length=46)
                frame = build_ethernet(tables.ROUTER_MACS[port],
                                       0x020000000000 | i, ETH_TYPE_IP, ip)
            trace.packets.append(TracePacket(frame, port))
        return trace

    # -- oracles for tests ---------------------------------------------------------

    def expected_nexthop(self, dst_addr: int) -> int:
        return self.routes.lookup(dst_addr)
