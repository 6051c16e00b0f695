"""Baker builtin (intrinsic) functions.

Builtins are the packet primitives of section 2.2 of the paper plus the
channel operation ``channel_put``. Their argument checking is partly
custom (protocol-name arguments, channel arguments), handled in
:mod:`repro.baker.semantic`.

The table below records each builtin's shape; ``proto_arg`` /
``chan_arg`` give the index of an argument that must be a protocol name
or channel reference rather than a value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.baker import types as T


@dataclass(frozen=True)
class Builtin:
    name: str
    arity: int
    returns_packet: bool = False  # result is a packet handle
    proto_arg: Optional[int] = None  # argument that names a protocol
    chan_arg: Optional[int] = None  # argument that names a channel
    ret_type: T.Type = T.VOID
    doc: str = ""


BUILTINS: Dict[str, Builtin] = {
    b.name: b
    for b in [
        Builtin(
            "channel_put",
            2,
            chan_arg=0,
            doc="Release a packet onto a communication channel (immediate-release).",
        ),
        Builtin(
            "packet_decap",
            1,
            returns_packet=True,
            doc="Strip the current protocol header; returns a handle to the payload.",
        ),
        Builtin(
            "packet_encap",
            2,
            returns_packet=True,
            proto_arg=1,
            doc="Prepend a header of the named protocol; returns the new outer handle.",
        ),
        Builtin(
            "packet_copy",
            1,
            returns_packet=True,
            doc="Duplicate a packet (new DRAM buffer and metadata).",
        ),
        Builtin("packet_drop", 1, doc="Free a packet's buffer and metadata."),
        Builtin(
            "packet_create",
            2,
            returns_packet=True,
            proto_arg=0,
            doc="Allocate a fresh packet of the named protocol with a payload size.",
        ),
        Builtin("packet_length", 1, ret_type=T.U32, doc="Bytes from head to tail."),
        Builtin(
            "packet_add_tail",
            2,
            doc="Append n bytes at the tail. They are zero on a packet that "
            "Rx, the XScale or the host model made (each clears the whole "
            "buffer); an ME packet_create or packet_copy clears or copies "
            "only the frame (in 8 B / 64 B units), and past that the tail "
            "shows the buffer's previous bytes.",
        ),
        Builtin("packet_remove_tail", 2, doc="Truncate n bytes from the tail."),
        Builtin("packet_extend", 2, doc="Grow headroom: move head back n bytes."),
        Builtin("packet_shorten", 2, doc="Drop n bytes from the head."),
        Builtin(
            "packet_input_port",
            1,
            ret_type=T.U32,
            doc="Receive port recorded by Rx (alias of ->meta.rx_port).",
        ),
        Builtin(
            "packet_as",
            2,
            returns_packet=True,
            proto_arg=1,
            doc="Reinterpret a handle as the named protocol (checked cast; "
                "no runtime effect -- used after packet_extend/shorten "
                "repositions the head manually).",
        ),
    ]
}
