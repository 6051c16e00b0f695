"""Compiler option sets.

The paper evaluates cumulative optimization levels (section 6.2):

====== ==========================================================
BASE   all optimizations disabled
+O1    typical scalar optimizations
+O2    inlining of base packet handling routines (and user helpers)
+PAC   packet access combining
+SOAR  static offset and alignment resolution
+PHR   removal of unnecessary packet handling support code
+SWC   software-controlled caching
====== ==========================================================

Stack layout optimization (section 5.4) is always on in the paper's
reported numbers; we keep it on by default and expose it for the
ablation benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional

#: The cumulative levels, in the order Table 1 / Figures 13-15 add them.
LEVEL_ORDER: List[str] = ["BASE", "O1", "O2", "PAC", "SOAR", "PHR", "SWC"]

#: The conventional -O spellings, accepted by every CLI beside the
#: paper's names.
_LEVEL_ALIASES = {
    "O0": "BASE", "0": "BASE",
    "1": "O1", "2": "O2",
    "3": "SWC", "O3": "SWC", "MAX": "SWC",
}


def parse_level(text: str) -> Optional[str]:
    """The paper's name for ``text`` (any case, an optional leading
    ``+``/``-``, or an -O alias); None when it names no level."""
    raw = text.upper().lstrip("+-")
    return raw if raw in LEVEL_ORDER else _LEVEL_ALIASES.get(raw)


def _from_level(level: str, doc: str) -> property:
    """Read-only flag: on at ``level`` and every level above it."""
    rank = LEVEL_ORDER.index(level)
    return property(lambda self: LEVEL_ORDER.index(self.name) >= rank,
                    doc=doc)


@dataclass(frozen=True)
class CompilerOptions:
    #: The cumulative level: what runs is a function of it alone.
    name: str = "SWC"
    stack_opt: bool = True  # compact pSP/vSP stack layout
    # SWC tuning: delayed-update coherency check period (packets). A
    # configured period is *requested*, not final: the compiler clamps
    # it so the implied check rate (1/period) never falls below the
    # Equation-2 minimum of any accepted candidate (repro.opt.swc
    # enforce_check_period) -- the paper's 1% tolerable-error bound is
    # a compiler invariant, not a user promise.
    swc_check_period: int = 16

    def __post_init__(self) -> None:
        if self.name not in LEVEL_ORDER:
            raise ValueError("unknown optimization level %r (choose from %s)"
                             % (self.name, ", ".join(LEVEL_ORDER)))

    scalar = _from_level("O1", "CFG simplify, propagate (folding, copies, CSE), DCE")
    inline = _from_level("O2", "inlining (user helpers + packet routines)")
    pac = _from_level("PAC", "packet access combining")
    soar = _from_level("SOAR", "static offset and alignment resolution")
    phr = _from_level("PHR", "packet handling removal")
    swc = _from_level("SWC", "delayed-update software-controlled caching")


OPT_LEVELS: Dict[str, CompilerOptions] = {
    name: CompilerOptions(name=name) for name in LEVEL_ORDER}


def options_for(level: str, **overrides) -> CompilerOptions:
    """Options for a named cumulative level, with keyword overrides."""
    opts = OPT_LEVELS[level.upper().lstrip("+-")]
    if overrides:
        opts = replace(opts, **overrides)
    return opts
