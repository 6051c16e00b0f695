"""Seeded-mutation suite: the translation validator must catch a
deliberately miscompiled image from each optimization family.

Each optimizer exposes a test-only ``_TEST_MUTATION`` hook that breaks
exactly one rewrite site:

* PAC ``extract_skew`` -- absorbed field extractions read 8 bits past
  their true offset within the combined wide load;
* PHR ``rebase_skew`` -- deferred-head re-basing shifts word accesses
  one word past the true pending delta;
* SWC ``wrong_slot`` -- the cache hit path reads one LM word past the
  slot the miss path filled;
* codegen ``skip_writeback`` -- head/len moved in registers (PHR's
  register-resident packet state) never go back to SRAM, so Tx and the
  XScale see the head Rx wrote (on mpls, whose net head movement is not
  zero; firewall's is, and hides it);
* PAC ``anchor_ignores_bump`` -- epochs stop counting head movements and
  stores, so loads combine across the pops of the MPLS label loop.

For every mutant, ``repro.analyze``'s validate pass (reference
interpretation of the unoptimized IR vs. replay of the compiled image
on the simulator) must report error-severity divergences; with the
hook cleared, the same compile must validate clean. The mutated
(app, level) pairs are chosen so the broken site is actually exercised
by the app (asserted via each pass's own result counters).
"""

from __future__ import annotations

import pytest

import repro.cg.pktlower as pktlower
import repro.opt.pac as pac
import repro.opt.phr as phr
import repro.opt.swc as swc
from repro.analyze import run_analysis
from repro.apps import get_app
from repro.compiler import compile_baker
from repro.options import options_for

PACKETS, SEED, ROOTS = (120, 5, 16)

# (module, mutation, app, level, "did the pass fire" check)
MUTANTS = [
    (pac, "extract_skew", "l3switch", "PAC",
     lambda r: r.pac_result.combined_loads > 0),
    (phr, "rebase_skew", "mpls", "PHR",
     lambda r: r.phr_result.elided_encaps > 0),
    (swc, "wrong_slot", "l3switch", "SWC",
     lambda r: r.swc_result.rewritten_loads > 0),
    (pktlower, "skip_writeback", "mpls", "PHR",
     lambda r: r.phr_result.state_writebacks > 0),
    (pac, "anchor_ignores_bump", "mpls", "PAC",
     lambda r: r.pac_result.combined_loads > 0),
]

IDS = ["pac-extract_skew", "phr-rebase_skew", "swc-wrong_slot",
       "cg-skip_writeback", "pac-anchor_ignores_bump"]


def _analyze(app_name, level):
    app = get_app(app_name)
    trace = app.make_trace(PACKETS, seed=SEED)
    result = compile_baker(app.source, options_for(level), trace)
    report = run_analysis(app_name, level, passes=["validate"],
                          packets=PACKETS, seed=SEED,
                          validate_packets=ROOTS,
                          result=result, trace=trace)
    return result, report


@pytest.mark.parametrize("module,mutation,app_name,level,fired", MUTANTS,
                         ids=IDS)
def test_mutant_is_caught(module, mutation, app_name, level, fired):
    assert module._TEST_MUTATION is None, "hook leaked from another test"
    module._TEST_MUTATION = mutation
    try:
        result, report = _analyze(app_name, level)
    finally:
        module._TEST_MUTATION = None
    assert fired(result), (
        "%s mutant never exercised on %s/%s -- the detection claim "
        "would be vacuous" % (mutation, app_name, level))
    assert report["ok"] is False, (
        "validator missed the %s miscompile" % mutation)
    assert report["errors_total"] > 0
    details = [f for payload in report["passes"].values()
               for f in payload["findings"] if f["severity"] == "error"]
    assert any("diverge" in f["detail"] for f in details)


@pytest.mark.parametrize("module,mutation,app_name,level,fired", MUTANTS,
                         ids=IDS)
def test_unmutated_compile_validates_clean(module, mutation, app_name,
                                           level, fired):
    # Same app, same level, hook cleared: zero findings. (The full
    # app x level matrix is covered by tests/test_analyze.py; this
    # pins the exact configurations the mutants run under.)
    assert module._TEST_MUTATION is None
    result, report = _analyze(app_name, level)
    assert fired(result)
    assert report["ok"] is True
    assert report["errors_total"] == 0
