"""``layout`` check: packet-field offsets actually used by each image.

Walks the optimized IR of every function assigned to an ME image and
cross-checks each packet data access (``ir.PktAccess``) against the
``soar`` records in the compile's decision ledger: the ledger must
contain a record for the same site with the same verdict and
``offset_bits`` (set membership, because PHR re-runs SOAR and the first
run's records carry pre-rebase offsets).

At every level that runs SOAR, an access with no matching ledger record
means SOAR's announced decisions and the annotations codegen consumed
have drifted apart -- exactly the class of silent divergence this
analyzer exists to catch.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.analyze.core import finding
from repro.ir import instructions as I
from repro.obs import ledger as obs_ledger


def check(result) -> Dict[str, object]:
    """The annotations codegen consumed, cross-checked against SOAR."""
    findings: List[Dict[str, object]] = []
    # The ledger's view of SOAR's resolutions, as a membership set.
    ledger_sites: Set[Tuple[str, str, object]] = set()
    for d in result.decisions:
        if d.pass_name == "soar" and not d.subject.startswith("channel:"):
            ledger_sites.add((d.subject, d.verdict,
                              d.evidence.get("offset_bits")))

    mod = result.mod
    images_out: Dict[str, object] = {}
    for agg in sorted(result.images):
        image = result.images[agg]
        n_accesses = n_resolved = 0
        for fn_name in sorted(image.functions):
            fn = mod.functions.get(fn_name)
            if fn is None:
                continue
            for instr in fn.all_instrs():
                if not isinstance(instr, I.PktAccess):
                    continue
                resolved = instr.c_offset_bits is not None
                n_accesses += 1
                n_resolved += resolved
                if not result.opts.soar:
                    continue
                subject = (obs_ledger.loc_str(instr.loc)
                           or type(instr).__name__)
                verdict = "resolved" if resolved else "unresolved"
                key = (subject, verdict, instr.c_offset_bits)
                if key not in ledger_sites:
                    findings.append(finding(
                        "error", "layout",
                        "%s/%s" % (image.name, subject),
                        "access annotation (%s, offset_bits=%s) has no "
                        "matching soar ledger record" %
                        (verdict, instr.c_offset_bits),
                        op=type(instr).__name__, function=fn_name))
        images_out[agg] = {"n_accesses": n_accesses,
                           "n_resolved": n_resolved}
    return {"findings": findings, "images": images_out,
            "ledger_sites": len(ledger_sites)}

