"""``validate`` check: translation validation of compiled images.

For every ME image: capture the reference effect multiset per trace
packet (:mod:`repro.analyze.capture`, running the *unoptimized* IR) and
replay the same packets through the compiled image on an isolated chip
(:mod:`repro.analyze.harness`).  A root diverges when the two effect
multisets differ -- a missing/extra/altered put or drop is exactly an
observable packet-semantics change introduced between the checked Baker
program and the final ME code.

Every divergence is an ``error`` finding carrying the root index, the
injected packet, and the symmetric difference of the effect multisets
(payloads rendered as length + sha256 prefix to keep reports diffable).
The report also carries per-image totals so a clean run still documents
how much behavior was checked.

Two structural errors are reported ahead of any replay: a compile with
no ME images at all, and a dispatch input whose entry label the image
does not define.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from typing import Dict, List, Optional

from repro.analyze.capture import (
    capture_reference,
    comparison_meta_words,
    localized_meta_word_indices,
)
from repro.analyze.core import finding
from repro.analyze.harness import ImageHarness


def _render_effect(effect: tuple) -> str:
    if effect[0] == "drop":
        return "drop"
    _, channel, payload, meta = effect
    return "put %s len=%d sha=%s meta=%s" % (
        channel, len(payload),
        hashlib.sha256(payload).hexdigest()[:12],
        ",".join(str(v) for v in meta))


def _diff_multisets(ref: List[tuple], got: List[tuple]):
    ref_c, got_c = Counter(ref), Counter(got)
    missing = sorted(_render_effect(e) for e in (ref_c - got_c).elements())
    extra = sorted(_render_effect(e) for e in (got_c - ref_c).elements())
    return missing, extra


def check(app_name: str, result, trace,
          max_roots: Optional[int] = None) -> Dict[str, object]:
    """Translation validation: image effects vs. reference IR, at most
    ``max_roots`` trace roots per image (None = the whole trace)."""
    findings: List[Dict[str, object]] = []
    images_out: Dict[str, object] = {}
    cmp_words = comparison_meta_words(
        result.mod.meta_words, localized_meta_word_indices(result))
    if not result.images:
        findings.append(finding(
            "error", "validate", app_name,
            "compile produced no ME images (codegen disabled?)"))
    for agg in sorted(result.images):
        image = result.images[agg]
        for ring_sym, entry_label in image.inputs:
            if entry_label not in image.label_index:
                findings.append(finding(
                    "error", "validate", image.name,
                    "dispatch input %s targets unknown label %s"
                    % (ring_sym, entry_label)))
        roots = capture_reference(result, trace, agg,
                                  max_roots=max_roots)
        harness = ImageHarness(result, agg, cmp_words)
        n_events = 0
        n_divergent = 0
        by_kind: Dict[str, int] = {}
        for root in roots:
            got = harness.replay_root(root)
            n_events += len(root.effects)
            for e in root.effects:
                key = e[0] if e[0] == "drop" else "put:%s" % e[1]
                by_kind[key] = by_kind.get(key, 0) + 1
            if Counter(got) == Counter(root.effects):
                continue
            n_divergent += 1
            missing, extra = _diff_multisets(root.effects, got)
            findings.append(finding(
                "error", "validate",
                "%s/root%d" % (image.name, root.index),
                "compiled image effects diverge from reference IR",
                channel=root.channel,
                payload_len=len(root.payload),
                payload_sha=hashlib.sha256(root.payload).hexdigest()[:12],
                rx_port=root.rx_port,
                missing=missing, extra=extra))
        harness.chip.close()  # the replay was the chip's last use
        images_out[agg] = {
            "roots_checked": len(roots),
            "effects_checked": n_events,
            "effects_by_kind": dict(sorted(by_kind.items())),
            "divergent_roots": n_divergent,
            "replay_timeouts": harness.timeouts,
            "meta_words_compared": list(cmp_words),
        }
        if not roots:
            findings.append(finding(
                "warning", "validate", image.name,
                "no reference roots reach this image (rx not consumed "
                "by its aggregate); nothing validated"))
    return {"findings": findings, "images": images_out}

