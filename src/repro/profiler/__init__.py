"""Functional profiler: IR interpretation over packet traces.

Provides the profile statistics that drive aggregation and SWC
candidate selection, and serves as the semantic reference for
differential testing of the optimizer and code generator.
"""

from repro.profiler.hostpackets import HostPacket
from repro.profiler.interpreter import Interpreter, SystemResult, run_reference
from repro.profiler.stats import GlobalStats, ProfileData
from repro.profiler.trace import Trace, TracePacket

__all__ = [
    "HostPacket",
    "Interpreter",
    "SystemResult",
    "run_reference",
    "GlobalStats",
    "ProfileData",
    "Trace",
    "TracePacket",
]
