"""Packet trace construction.

The paper evaluates with NPF application-level benchmark traces (IP
forwarding and MPLS forwarding) plus home-grown Firewall traces; those
trace files are not public, so this module builds equivalent synthetic
traces: deterministic (seeded) streams of minimum-size 64 B Ethernet
frames with realistic header field distributions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

MIN_FRAME_BYTES = 64


@dataclass
class TracePacket:
    data: bytes
    rx_port: int = 0


@dataclass
class Trace:
    packets: List[TracePacket] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.packets)

    def __iter__(self):
        return iter(self.packets)

    def repeated(self, count: int) -> "Trace":
        """A trace of exactly ``count`` packets, cycling this trace."""
        out = Trace()
        n = len(self.packets)
        for i in range(count):
            out.packets.append(self.packets[i % n])
        return out


# -- header builders -----------------------------------------------------------


def mac_bytes(value: int) -> bytes:
    return value.to_bytes(6, "big")


def ipv4_checksum(header: bytes) -> int:
    """RFC 791 one's-complement header checksum over 16-bit words."""
    total = 0
    for i in range(0, len(header), 2):
        total += (header[i] << 8) | header[i + 1]
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def build_ipv4(
    src: int,
    dst: int,
    payload: bytes = b"",
    ttl: int = 64,
    proto: int = 17,
    tos: int = 0,
    ident: int = 0,
    total_length: Optional[int] = None,
    options: bytes = b"",
) -> bytes:
    """An IPv4 header plus payload, checksum filled. ``options`` (a
    multiple of 4 bytes, at most 40) follow the 20 fixed bytes; ``ihl``
    and the checksum cover them."""
    if len(options) % 4 or len(options) > 40:
        raise ValueError("IPv4 options must be 0..40 bytes in whole words")
    hdr_len = 20 + len(options)
    length = total_length if total_length is not None else hdr_len + len(payload)
    hdr = bytearray(20) + options
    hdr[0] = (4 << 4) | (hdr_len // 4)
    hdr[1] = tos
    hdr[2:4] = length.to_bytes(2, "big")
    hdr[4:6] = ident.to_bytes(2, "big")
    hdr[6:8] = b"\x00\x00"
    hdr[8] = ttl
    hdr[9] = proto
    hdr[10:12] = b"\x00\x00"
    hdr[12:16] = src.to_bytes(4, "big")
    hdr[16:20] = dst.to_bytes(4, "big")
    csum = ipv4_checksum(bytes(hdr))
    hdr[10:12] = csum.to_bytes(2, "big")
    return bytes(hdr) + payload


def build_udp(sport: int, dport: int, payload: bytes = b"") -> bytes:
    """An 8-byte UDP header (checksum zero) plus payload."""
    length = 8 + len(payload)
    return (
        sport.to_bytes(2, "big")
        + dport.to_bytes(2, "big")
        + length.to_bytes(2, "big")
        + b"\x00\x00"
        + payload
    )


def build_ethernet(dst_mac: int, src_mac: int, ethertype: int,
                   payload: bytes, pad_to: int = MIN_FRAME_BYTES) -> bytes:
    """An Ethernet II frame, zero-padded to ``pad_to`` bytes (FCS omitted,
    as on the IXP receive path)."""
    frame = mac_bytes(dst_mac) + mac_bytes(src_mac) + ethertype.to_bytes(2, "big") + payload
    if len(frame) < pad_to:
        frame += bytes(pad_to - len(frame))
    return frame


def build_mpls_label(label: int, tc: int = 0, bottom: bool = True, ttl: int = 64) -> bytes:
    """One 4-byte MPLS label stack entry."""
    word = (label << 12) | (tc << 9) | (int(bottom) << 8) | ttl
    return word.to_bytes(4, "big")


def build_mpls_stack(labels: Sequence[int], ttl: int = 64) -> bytes:
    out = b""
    for i, label in enumerate(labels):
        out += build_mpls_label(label, bottom=(i == len(labels) - 1), ttl=ttl)
    return out


ETH_TYPE_IP = 0x0800
ETH_TYPE_ARP = 0x0806
ETH_TYPE_MPLS = 0x8847


# -- synthetic trace generators ------------------------------------------------------


def ipv4_trace(
    count: int,
    dst_addrs: Sequence[int],
    router_macs: Sequence[int],
    src_addr: int = 0x0A000001,
    seed: int = 1,
    arp_fraction: float = 0.0,
    ports: int = 3,
) -> Trace:
    """IPv4-over-Ethernet 64 B frames addressed to the router's MAC (so an
    L3 switch routes them). ``dst_addrs`` are drawn round-robin-with-jitter
    so route-table locality resembles the NPF IP forwarding benchmark."""
    rng = random.Random(seed)
    trace = Trace()
    for i in range(count):
        port = i % ports
        if arp_fraction > 0 and rng.random() < arp_fraction:
            frame = build_ethernet(0xFFFFFFFFFFFF, 0x020000000000 + i, ETH_TYPE_ARP, b"\x00\x01")
            trace.packets.append(TracePacket(frame, port))
            continue
        dst = dst_addrs[rng.randrange(len(dst_addrs))]
        ip = build_ipv4(src_addr + i, dst, payload=b"", total_length=46)
        frame = build_ethernet(router_macs[port], 0x020000000000 + i, ETH_TYPE_IP, ip)
        trace.packets.append(TracePacket(frame, port))
    return trace


def udp_flow_trace(
    count: int,
    router_macs: Sequence[int],
    flows: Sequence[Tuple[int, int, int, int, int]],
    seed: int = 2,
    ports: int = 3,
) -> Trace:
    """UDP/TCP 5-tuple flows for the Firewall benchmark. ``flows`` entries
    are (src_ip, dst_ip, src_port, dst_port, proto)."""
    rng = random.Random(seed)
    trace = Trace()
    for i in range(count):
        port = i % ports
        src_ip, dst_ip, sport, dport, proto = flows[rng.randrange(len(flows))]
        udp = build_udp(sport, dport)
        ip = build_ipv4(src_ip, dst_ip, payload=udp, proto=proto, total_length=46)
        frame = build_ethernet(router_macs[port], 0x020000000000 + i, ETH_TYPE_IP, ip)
        trace.packets.append(TracePacket(frame, port))
    return trace

