"""``budget`` check: control-store and stack budgets, re-derived.

Re-derives every resource claim an image makes from its final ``insns``
list and compares against (a) the hardware budgets and (b) what the
compiler *recorded* about itself -- the ``codesize``
(:func:`~repro.cg.codesize.record_budget_fit`) and ``melayout``
(:func:`~repro.cg.melayout.record_stack_fit`) decisions in the ledger.
A mismatch in either direction is an error: the image is a liar (its
``code_size`` field disagrees with its instructions) or the ledger is
(its recorded evidence disagrees with the artifact it describes, or an
image has no ``codesize`` record at all).

The stack check derives a *floor* on Local Memory frame usage from the
static ``thread_rel`` LM accesses actually emitted (dynamic-indexed
accesses cannot be bounded statically and are skipped); the layout's
claimed ``lm_words_used`` must cover that floor and fit the per-thread
window.
"""

from __future__ import annotations

from typing import Dict

from repro.analyze.core import finding
from repro.cg.melayout import (
    CODE_STORE_WORDS,
    SRAM_STACK_BYTES_PER_THREAD,
    STACK_WORDS_PER_THREAD,
)


def _lm_floor(insns) -> int:
    """Words of per-thread LM frame space the code provably touches."""
    floor = 0
    for i in insns:
        if i.kind in ("lm_read", "lm_write") and i.thread_rel \
                and i.base is None:
            floor = max(floor, i.offset + 1)
    return floor


def check(result) -> Dict[str, object]:
    """Code-store/stack budgets re-derived vs. ledger claims."""
    findings = []
    ledger_code: Dict[str, object] = {}
    ledger_stack: Dict[str, object] = {}
    for d in result.decisions:
        if d.pass_name == "codesize":
            ledger_code[d.subject] = d
        elif d.pass_name == "melayout":
            ledger_stack[d.subject] = d

    images_out: Dict[str, object] = {}
    for agg in sorted(result.images):
        image = result.images[agg]
        derived = sum(i.size for i in image.insns)
        row: Dict[str, object] = {
            "derived_code_size": derived,
            "claimed_code_size": image.code_size,
            "code_budget": CODE_STORE_WORDS,
            "headroom": CODE_STORE_WORDS - derived,
        }
        if derived != image.code_size:
            findings.append(finding(
                "error", "budget", image.name,
                "code_size claims %d words but the instruction list "
                "sums to %d" % (image.code_size, derived)))
        if derived > CODE_STORE_WORDS:
            findings.append(finding(
                "error", "budget", image.name,
                "image exceeds the %d-word control store (%d words)"
                % (CODE_STORE_WORDS, derived)))
        led = ledger_code.get(agg)
        if led is not None:
            want = "fits" if derived <= CODE_STORE_WORDS else "overflows"
            if (led.evidence.get("code_size") != derived
                    or led.verdict != want):
                findings.append(finding(
                    "error", "budget", image.name,
                    "ledger codesize record (%s, %s words) disagrees "
                    "with the artifact (%s, %d words)"
                    % (led.verdict, led.evidence.get("code_size"),
                       want, derived)))
        else:
            findings.append(finding(
                "error", "budget", image.name,
                "no codesize ledger record for this image"))

        layout = image.stack_layout
        floor = _lm_floor(image.insns)
        row["derived_lm_floor"] = floor
        row["lm_budget"] = STACK_WORDS_PER_THREAD
        if layout is not None:
            row["claimed_lm_words"] = layout.lm_words_used
            row["claimed_sram_words"] = layout.sram_words_used
            if floor > layout.lm_words_used:
                findings.append(finding(
                    "error", "budget", image.name,
                    "static thread-relative LM accesses reach word %d "
                    "but the layout claims only %d words of frames"
                    % (floor - 1, layout.lm_words_used)))
            if layout.lm_words_used > STACK_WORDS_PER_THREAD:
                findings.append(finding(
                    "error", "budget", image.name,
                    "stack layout claims %d LM words per thread "
                    "(budget %d)" % (layout.lm_words_used,
                                     STACK_WORDS_PER_THREAD)))
            if layout.sram_words_used * 4 > SRAM_STACK_BYTES_PER_THREAD:
                findings.append(finding(
                    "error", "budget", image.name,
                    "SRAM overflow frames need %d bytes per thread "
                    "(budget %d)" % (layout.sram_words_used * 4,
                                     SRAM_STACK_BYTES_PER_THREAD)))
            sled = ledger_stack.get(agg)
            if sled is not None and (
                    sled.evidence.get("lm_words") != layout.lm_words_used
                    or sled.evidence.get("sram_words")
                    != layout.sram_words_used):
                findings.append(finding(
                    "error", "budget", image.name,
                    "ledger melayout record (lm=%s, sram=%s) disagrees "
                    "with the image's stack layout (lm=%d, sram=%d)"
                    % (sled.evidence.get("lm_words"),
                       sled.evidence.get("sram_words"),
                       layout.lm_words_used, layout.sram_words_used)))
        images_out[agg] = row
    return {"findings": findings, "images": images_out}

