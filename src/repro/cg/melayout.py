"""Per-ME Local Memory layout and related constants (paper sections 3.2
and 5.4).

The IXP2400 gives each ME 640 words of Local Memory. Shangri-La reserves
48 words per thread for stack frames (8 threads = 384 words); the
remainder holds the software-controlled cache region and a few scratch
words.
"""

from __future__ import annotations

LM_WORDS = 640
N_THREADS = 8

STACK_WORDS_PER_THREAD = 48
STACK_REGION_WORDS = STACK_WORDS_PER_THREAD * N_THREADS  # 384

SWC_REGION_BASE = STACK_REGION_WORDS  # 384
SWC_REGION_WORDS = LM_WORDS - SWC_REGION_BASE  # 256

# SRAM stack-overflow area: per-thread bytes for frames that did not fit
# Local Memory (the expensive case the paper's stack optimization avoids).
SRAM_STACK_BYTES_PER_THREAD = 1024

# Instruction store per ME.
CODE_STORE_WORDS = 4096

# MEs that run compiled code (2 of the IXP2400's 8 are reserved for Rx/Tx).
PROGRAMMABLE_MES = 6


def record_stack_fit(subject: str, layout) -> None:
    """Ledger hook: did the aggregate's stack frames fit Local Memory, or
    did some overflow to (slow) SRAM?"""
    from repro.obs import ledger as obs_ledger

    obs_ledger.record(
        "melayout", subject,
        "sram_overflow" if layout.any_sram_frames else "lm_only",
        reason="stack frames overflow Local Memory into SRAM"
               if layout.any_sram_frames
               else "all stack frames fit Local Memory",
        lm_words=layout.lm_words_used, sram_words=layout.sram_words_used,
        lm_budget=STACK_WORDS_PER_THREAD)
