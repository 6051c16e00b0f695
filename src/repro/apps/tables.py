"""Synthetic application tables.

The paper evaluates with the NPF IP-forwarding and MPLS-forwarding
benchmark tables plus home-grown Firewall rule sets; none are public, so
these generators build equivalent synthetic tables with realistic
structure: route tables with a mixed prefix-length distribution, MPLS
label bindings, and ordered firewall rule lists. Each generator returns
both the Python-side data (for trace generation and oracle checks) and a
Baker global-initializer fragment that compiles into the application.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

# Router port MACs (3 ports, as on the IXP2400 eval board's 3x1G optics).
ROUTER_MACS: List[int] = [0x0A0000000001, 0x0A0000000002, 0x0A0000000003]
N_PORTS = 3


def render_u32_array(name: str, values: Sequence[int], size: int = None) -> str:
    size = size if size is not None else len(values)
    inits = ", ".join("%#x" % (v & 0xFFFFFFFF) for v in values)
    return "u32 %s[%d] = { %s };" % (name, size, inits)


def render_u64_array(name: str, values: Sequence[int], size: int = None) -> str:
    size = size if size is not None else len(values)
    inits = ", ".join("%#x" % (v & 0xFFFFFFFFFFFFFFFF) for v in values)
    return "u64 %s[%d] = { %s };" % (name, size, inits)


# -- routes (L3-Switch) ----------------------------------------------------------


@dataclass
class Route:
    prefix: int  # network-order IPv4 prefix (host bits zero)
    length: int  # prefix length
    nexthop: int  # next-hop id (index into the next-hop table)


@dataclass
class RouteTable:
    routes: List[Route]
    nexthops: List[Tuple[int, int]]  # (dst_mac, out_port) per next-hop id
    default_nexthop: int = 0

    def lookup(self, addr: int) -> int:
        """Longest-prefix match (Python oracle)."""
        best_len, best_nh = -1, self.default_nexthop
        for r in self.routes:
            if r.length > best_len:
                mask = (0xFFFFFFFF << (32 - r.length)) & 0xFFFFFFFF if r.length else 0
                if (addr & mask) == r.prefix:
                    best_len, best_nh = r.length, r.nexthop
        return best_nh

    def addresses_in(self, count: int, seed: int = 0) -> List[int]:
        """Destination addresses covered by the table (for traces)."""
        rng = random.Random(seed)
        out = []
        for _ in range(count):
            r = self.routes[rng.randrange(len(self.routes))]
            host_bits = 32 - r.length
            out.append(r.prefix | rng.getrandbits(host_bits) if host_bits else r.prefix)
        return out


def make_route_table(n_routes: int = 64, n_nexthops: int = 12,
                     seed: int = 42) -> RouteTable:
    """Routes with an NPF-like prefix-length mix (8..24, peaked at 16/24),
    pre-sorted by ascending length so the Baker trie builder can insert
    shorter prefixes first."""
    rng = random.Random(seed)
    lengths = [8, 12, 16, 16, 16, 20, 24, 24]
    routes: List[Route] = []
    seen = set()
    while len(routes) < n_routes:
        length = rng.choice(lengths)
        prefix = rng.getrandbits(32) & ((0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF)
        if (prefix, length) in seen or prefix >> 24 in (0, 10, 127):
            continue
        seen.add((prefix, length))
        routes.append(Route(prefix, length, 1 + rng.randrange(n_nexthops - 1)))
    routes.sort(key=lambda r: r.length)
    nexthops = [(0x0C0000000000 + i, i % N_PORTS) for i in range(n_nexthops)]
    return RouteTable(routes, nexthops)


def render_route_table(table: RouteTable) -> str:
    """Baker globals for the route list and next-hop table.

    The next-hop table uses a 16-byte stride (u64 mac implies two words,
    one word port, one pad) so SWC can cache it without a divide."""
    n = len(table.routes)
    lines = [
        "const u32 N_ROUTES = %d;" % n,
        render_u32_array("route_prefix", [r.prefix for r in table.routes]),
        render_u32_array("route_len", [r.length for r in table.routes]),
        render_u32_array("route_nh", [r.nexthop for r in table.routes]),
        render_u64_array("nh_mac", [mac for mac, _ in table.nexthops]),
        render_u32_array("nh_port", [port for _, port in table.nexthops]),
        render_u64_array("port_mac", ROUTER_MACS),
    ]
    return "\n".join(lines)


# -- bridge table (L3-Switch L2 path) ------------------------------------------------


@dataclass
class BridgeTable:
    """Static MAC -> port table, direct-indexed open addressing."""

    slots: int
    entries: Dict[int, int]  # mac -> port

    def bucket(self, mac: int) -> int:
        return (mac ^ (mac >> 16) ^ (mac >> 32)) & (self.slots - 1)


def make_bridge_table(n_stations: int = 24, slots: int = 64,
                      seed: int = 43) -> BridgeTable:
    rng = random.Random(seed)
    entries: Dict[int, int] = {}
    while len(entries) < n_stations:
        mac = 0x020000000000 | rng.getrandbits(24)
        entries[mac] = rng.randrange(N_PORTS)
    return BridgeTable(slots, entries)


def render_bridge_table(table: BridgeTable) -> str:
    macs = [0] * table.slots
    ports = [0xFFFFFFFF] * table.slots
    for mac, port in table.entries.items():
        idx = table.bucket(mac)
        for probe in range(table.slots):
            slot = (idx + probe) & (table.slots - 1)
            if macs[slot] == 0:
                macs[slot] = mac
                ports[slot] = port
                break
    return "\n".join([
        "const u32 BR_SLOTS = %d;" % table.slots,
        render_u64_array("br_mac", macs),
        render_u32_array("br_port", ports),
    ])


# -- firewall rules --------------------------------------------------------------------


@dataclass
class FirewallRule:
    src_ip: int
    src_mask: int
    dst_ip: int
    dst_mask: int
    sport_lo: int
    sport_hi: int
    dport_lo: int
    dport_hi: int
    proto: int  # 0 = any
    action: int  # 0 = pass, 1 = drop
    flow_id: int

    def matches(self, src: int, dst: int, sport: int, dport: int, proto: int) -> bool:
        return (
            (src & self.src_mask) == (self.src_ip & self.src_mask)
            and (dst & self.dst_mask) == (self.dst_ip & self.dst_mask)
            and self.sport_lo <= sport <= self.sport_hi
            and self.dport_lo <= dport <= self.dport_hi
            and (self.proto == 0 or self.proto == proto)
        )


@dataclass
class FirewallConfig:
    rules: List[FirewallRule]

    def classify(self, src: int, dst: int, sport: int, dport: int,
                 proto: int) -> Tuple[int, int]:
        """(action, flow_id) of the first matching rule (Python oracle)."""
        for rule in self.rules:
            if rule.matches(src, dst, sport, dport, proto):
                return rule.action, rule.flow_id
        return 0, 0


def make_firewall_rules(n_rules: int = 24, drop_fraction: float = 0.4,
                        seed: int = 44) -> FirewallConfig:
    """An ordered rule list ending in a catch-all pass rule. Rules guard
    internal /16 networks and well-known port ranges."""
    rng = random.Random(seed)
    rules: List[FirewallRule] = []
    for i in range(n_rules - 1):
        net = 0xC0A80000 | (rng.randrange(16) << 8)  # 192.168.x.0/24-ish
        wide_src = rng.random() < 0.5
        port_lo = rng.choice([0, 22, 80, 443, 1024, 8000])
        port_hi = port_lo + rng.choice([0, 7, 63, 1023])
        rules.append(FirewallRule(
            src_ip=0 if wide_src else (0x0A000000 | rng.getrandbits(16)),
            src_mask=0 if wide_src else 0xFFFF0000,
            dst_ip=net,
            dst_mask=0xFFFFFF00,
            sport_lo=0,
            sport_hi=0xFFFF,
            dport_lo=port_lo,
            dport_hi=min(port_hi, 0xFFFF),
            proto=rng.choice([0, 6, 17]),
            action=1 if rng.random() < drop_fraction else 0,
            flow_id=i + 1,
        ))
    rules.append(FirewallRule(0, 0, 0, 0, 0, 0xFFFF, 0, 0xFFFF, 0, 0, 0))
    return FirewallConfig(rules)


# Word offsets within a packed 16-word rule row.
RULE_WORDS = 16
R_SRC, R_SRC_MASK, R_DST, R_DST_MASK = 0, 1, 2, 3
R_SPORT_LO, R_SPORT_HI, R_DPORT_LO, R_DPORT_HI = 4, 5, 6, 7
R_PROTO, R_ACTION, R_FLOW = 8, 9, 10


def render_firewall_rules(config: FirewallConfig) -> str:
    """Rules packed as 16-word rows of one flat table (one row per rule,
    like a struct array; power-of-two stride keeps indexing shift-only)."""
    n = len(config.rules)
    words = []
    for r in config.rules:
        row = [r.src_ip, r.src_mask, r.dst_ip, r.dst_mask,
               r.sport_lo, r.sport_hi, r.dport_lo, r.dport_hi,
               r.proto, r.action, r.flow_id] + [0] * (RULE_WORDS - 11)
        words.extend(row)
    lines = [
        "const u32 N_RULES = %d;" % n,
        render_u32_array("fw_rules", words),
        render_u64_array("port_mac", ROUTER_MACS),
    ]
    return "\n".join(lines)


# -- MPLS label bindings ------------------------------------------------------------------


MPLS_OP_INVALID = 0
MPLS_OP_SWAP = 1
MPLS_OP_POP = 2
MPLS_OP_PUSH = 3

ILM_SIZE = 1024


@dataclass
class MplsConfig:
    """Incoming label map: label -> (op, out_label, nexthop)."""

    ilm: Dict[int, Tuple[int, int, int]]  # label -> (op, out_label, nexthop)
    ftn: Dict[int, Tuple[int, int]]  # dst /16 prefix -> (label, nexthop)
    nexthops: List[Tuple[int, int]]  # (dst_mac, out_port)

    def hot_labels(self) -> List[int]:
        return sorted(self.ilm)


def make_mpls_config(n_labels: int = 16, n_nexthops: int = 8,
                     seed: int = 45) -> MplsConfig:
    rng = random.Random(seed)
    ilm: Dict[int, Tuple[int, int, int]] = {}
    labels = rng.sample(range(16, ILM_SIZE), n_labels)
    for i, label in enumerate(labels):
        kind = (MPLS_OP_SWAP, MPLS_OP_POP, MPLS_OP_PUSH)[i % 3]
        out_label = labels[(i * 7 + 3) % n_labels]
        ilm[label] = (kind, out_label, 1 + rng.randrange(n_nexthops - 1))
    ftn = {}
    for i in range(8):
        prefix16 = 0xC0A8 + i
        ftn[prefix16] = (labels[i % n_labels], 1 + rng.randrange(n_nexthops - 1))
    nexthops = [(0x0E0000000000 + i, i % N_PORTS) for i in range(n_nexthops)]
    return MplsConfig(ilm, ftn, nexthops)


# -- live-churn mutations (the repro.serve control plane) -------------------------
#
# Each helper draws a deterministic sequence of single-word (or
# single-u64) rewrites against the *rendered* table layout: ``target``
# is the Baker global, ``offset``/``width`` address the element exactly
# as the XScale global adapter does, and ``old_value`` is asserted
# against live memory before the store (catching any layout drift
# loudly). Helpers also update the Python-side table object so oracles
# and later mutations see the post-update state. ``probe`` carries what
# a stale-traffic scan needs: retired values that no valid packet
# should carry once the data plane is coherent again.


@dataclass
class TableMutation:
    """One control-plane table update, addressed at the byte level."""

    kind: str                 # churn kind (route-flap / fw-toggle / ...)
    target: str               # Baker global name
    index: int                # element index within the table
    offset: int               # byte offset within the global
    width: int                # byte width of the store
    old_value: int
    new_value: int
    probe: Dict[str, int] = field(default_factory=dict)

    def describe(self) -> str:
        return "%s %s[%d] %#x->%#x" % (self.kind, self.target, self.index,
                                       self.old_value, self.new_value)


def route_flap_mutations(table: RouteTable, count: int,
                         seed: int = 0) -> List[TableMutation]:
    """Next-hop MAC rewrites (a neighbor re-resolving to a new address).

    Flapped next hops get fresh MACs from a reserved 0x0D... range, so a
    retired MAC never becomes valid again -- any Tx frame carrying it
    after the update is provably stale (the SWC delayed-coherency
    window made visible). ``nh_mac`` is SWC-cached at +SWC, so the
    store also raises the cache-update flag when the serve control
    plane applies it.
    """
    rng = random.Random(seed)
    muts: List[TableMutation] = []
    for k in range(count):
        # Next hop 0 is the default route target; flap real next hops.
        i = 1 + rng.randrange(len(table.nexthops) - 1)
        old_mac, port = table.nexthops[i]
        new_mac = 0x0D0000000000 | ((seed & 0xFFFF) << 16) | k
        table.nexthops[i] = (new_mac, port)
        muts.append(TableMutation(
            kind="route-flap", target="nh_mac", index=i,
            offset=i * 8, width=8, old_value=old_mac, new_value=new_mac,
            probe={"stale_dst_mac": old_mac}))
    return muts


def firewall_rule_mutations(config: FirewallConfig, count: int,
                            seed: int = 0) -> List[TableMutation]:
    """Action toggles (pass<->drop) on non-catch-all rules.

    Under SWC the rule table is resident in every ME's Local Memory (it
    defeats the CAM but fits whole), so like a route flap an update
    takes effect on each ME when its periodic check refreshes the copy.
    The visible impact is a step in the per-window drop/forward counts
    for flows the toggled rule matches.
    """
    rng = random.Random(seed)
    muts: List[TableMutation] = []
    for _ in range(count):
        i = rng.randrange(len(config.rules) - 1)  # keep the catch-all
        rule = config.rules[i]
        old_action, new_action = rule.action, 1 - rule.action
        rule.action = new_action
        muts.append(TableMutation(
            kind="fw-toggle", target="fw_rules", index=i,
            offset=(i * RULE_WORDS + R_ACTION) * 4, width=4,
            old_value=old_action, new_value=new_action,
            probe={"flow_id": rule.flow_id}))
    return muts


def mpls_label_mutations(config: "MplsConfig", count: int, seed: int = 0,
                         ) -> List[TableMutation]:
    """Outgoing-label rewrites on SWAP entries (LSP re-signaling).

    Candidates are SWAP entries whose *current* outgoing label is not
    also pushed by the FTN (ingress) table; replacement labels come
    from an unused range above the ILM. Both together make the retired
    label unambiguous: once the data plane is coherent, no Tx frame
    should carry it, so late occurrences measure the SWC
    delayed-coherency window on the cached ``ilm`` table.
    """
    rng = random.Random(seed)
    ftn_labels = {label for label, _ in config.ftn.values()}
    used = set(config.ilm) | ftn_labels
    used.update(out for _, out, _ in config.ilm.values())
    next_fresh = ILM_SIZE + 1 + (seed % 101)
    muts: List[TableMutation] = []
    for _ in range(count):
        candidates = sorted(
            label for label, (op, out, _nh) in config.ilm.items()
            if op == MPLS_OP_SWAP and out not in ftn_labels)
        if not candidates:
            break
        label = candidates[rng.randrange(len(candidates))]
        op, old_out, nh = config.ilm[label]
        while next_fresh in used:
            next_fresh += 1
        new_out = next_fresh
        used.add(new_out)
        config.ilm[label] = (op, new_out, nh)
        old_word = (op << 30) | (old_out << 10) | nh
        new_word = (op << 30) | (new_out << 10) | nh
        muts.append(TableMutation(
            kind="mpls-relabel", target="ilm", index=label,
            offset=label * 4, width=4, old_value=old_word,
            new_value=new_word,
            probe={"stale_mpls_label": old_out, "new_mpls_label": new_out}))
    return muts


def render_mpls_config(config: MplsConfig) -> str:
    # ilm_entry word: op(2) << 30 | out_label(20) << 10 | nexthop(10)
    ilm_words = [0] * ILM_SIZE
    for label, (op, out_label, nh) in config.ilm.items():
        ilm_words[label] = (op << 30) | (out_label << 10) | nh
    ftn_labels = [0] * 256
    ftn_nh = [0] * 256
    for prefix16, (label, nh) in config.ftn.items():
        idx = prefix16 & 0xFF
        ftn_labels[idx] = label
        ftn_nh[idx] = nh
    lines = [
        render_u32_array("ilm", ilm_words),
        render_u32_array("ftn_label", ftn_labels),
        render_u32_array("ftn_nh", ftn_nh),
        render_u64_array("nh_mac", [mac for mac, _ in config.nexthops]),
        render_u32_array("nh_port", [port for _, port in config.nexthops]),
    ]
    return "\n".join(lines)
