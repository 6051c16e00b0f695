"""Seeded-mutation suite for the differential oracle: every deliberately
miscompiled image must fail ``verify_against_reference`` (transmitted
payloads and metadata words against the reference interpreter's), and
the same compile with the hook cleared must pass it.

Each optimizer exposes a test-only ``_TEST_MUTATION`` hook that breaks
exactly one rewrite site:

* PAC ``extract_skew`` -- absorbed field extractions read 8 bits past
  their true offset within the combined wide load;
* PHR ``rebase_skew`` -- deferred-head re-basing shifts word accesses
  one word past the true pending delta;
* peel ``unguarded`` -- the peeled first iteration of MPLS's label loop
  continues into the remainder's body past its loop-condition guard, so
  a packet the first trip finished takes a second trip;
* SWC ``resident_off_by_one`` -- a resident table read takes the word
  after the one it replaced (firewall's rule list, held whole in Local
  Memory);
* codegen ``skip_writeback`` -- head/len moved in registers (PHR's
  register-resident packet state) never go back to SRAM, so Tx and the
  XScale see the head Rx wrote (on mpls, whose net head movement is not
  zero; firewall's is, and hides it);
* PAC ``anchor_ignores_bump`` -- epochs stop counting head movements and
  stores, so loads combine across the pops of the MPLS label loop;
* codegen ``meta_store_dropped`` -- stores to user metadata words emit
  nothing. On firewall the only user word is ``flow_id``, which never
  reaches a Tx payload: only the metadata comparison sees it, at BASE,
  O2 and SOAR (at PHR/SWC it is localized to a temp and the store no
  longer exists). On l3switch and mpls the dropped words steer what is
  written into the frame.

The mutated (app, level) pairs are chosen so the broken site is
actually exercised (asserted per row).
"""

from __future__ import annotations

import pytest

import repro.cg.pktlower as pktlower
import repro.opt.pac as pac
import repro.opt.peel as peel
import repro.opt.phr as phr
import repro.opt.swc as swc
from repro.apps import get_app
from repro.baker.packetmodel import META_USER_BASE
from repro.compiler import compile_baker
from repro.ir import instructions as I
from repro.options import options_for
from repro.rts.system import verify_against_reference

PACKETS, SEED = (120, 5)
VERIFY_PACKETS, VERIFY_MES = (60, 2)


def _user_meta_store_survives(result) -> bool:
    """A user ``MetaStore`` is still in a function some ME image runs
    (PHR localizes ``flow_id`` to a temp at PHR/SWC)."""
    me_fns = {f for image in result.images.values() for f in image.functions}
    return any(isinstance(i, I.MetaStore) and i.word >= META_USER_BASE
               for name in me_fns & set(result.mod.functions)
               for i in result.mod.functions[name].all_instrs())


# (module, mutation, app, level, "did the site fire" check)
MUTANTS = [
    (pac, "extract_skew", "l3switch", "PAC",
     lambda r: r.pac_result.combined_loads > 0),
    (phr, "rebase_skew", "mpls", "PHR",
     lambda r: r.phr_result.elided_encaps > 0),
    (peel, "unguarded", "mpls", "SWC",
     lambda r: any(d.pass_name == "peel" for d in r.decisions)),
    (swc, "resident_off_by_one", "firewall", "SWC",
     lambda r: any(isinstance(i, I.LoadResident)
                   for fn in r.mod.functions.values()
                   for i in fn.all_instrs())),
    (pktlower, "skip_writeback", "mpls", "PHR",
     lambda r: r.phr_result.state_writebacks > 0),
    (pac, "anchor_ignores_bump", "mpls", "PAC",
     lambda r: r.pac_result.combined_loads > 0),
    (pktlower, "meta_store_dropped", "firewall", "SOAR",
     _user_meta_store_survives),
    (pktlower, "meta_store_dropped", "firewall", "BASE",
     _user_meta_store_survives),
    (pktlower, "meta_store_dropped", "firewall", "O2",
     _user_meta_store_survives),
    (pktlower, "meta_store_dropped", "l3switch", "SOAR",
     _user_meta_store_survives),
    (pktlower, "meta_store_dropped", "mpls", "SOAR",
     _user_meta_store_survives),
]

IDS = ["pac-extract_skew", "phr-rebase_skew", "peel-unguarded",
       "swc-resident_off_by_one",
       "cg-skip_writeback", "pac-anchor_ignores_bump",
       "cg-meta_store_dropped", "cg-meta_store_dropped-firewall-BASE",
       "cg-meta_store_dropped-firewall-O2",
       "cg-meta_store_dropped-l3switch", "cg-meta_store_dropped-mpls"]


def _verified(app_name, level):
    """(compile result, verify_against_reference's answer) for one
    compile under whatever hook is set."""
    app = get_app(app_name)
    trace = app.make_trace(PACKETS, seed=SEED)
    result = compile_baker(app.source, options_for(level), trace)
    return result, verify_against_reference(result, trace,
                                            packets=VERIFY_PACKETS,
                                            n_mes=VERIFY_MES)


@pytest.mark.parametrize("module,mutation,app_name,level,fired", MUTANTS,
                         ids=IDS)
def test_mutant_is_caught(module, mutation, app_name, level, fired):
    assert module._TEST_MUTATION is None, "hook leaked from another test"
    module._TEST_MUTATION = mutation
    try:
        result, verified = _verified(app_name, level)
    finally:
        module._TEST_MUTATION = None
    assert fired(result), (
        "%s mutant never exercised on %s/%s -- the detection claim "
        "would be vacuous" % (mutation, app_name, level))
    assert not verified, (
        "verify_against_reference missed the %s miscompile on %s/%s"
        % (mutation, app_name, level))


@pytest.mark.parametrize("module,mutation,app_name,level,fired", MUTANTS,
                         ids=IDS)
def test_unmutated_compile_validates_clean(module, mutation, app_name,
                                           level, fired):
    # Same app, same level, hook cleared: the whole-system run passes.
    # (The full app x level matrix is tests/test_apps.py's;
    # this pins the exact configurations the mutants run under.)
    assert module._TEST_MUTATION is None
    result, verified = _verified(app_name, level)
    assert fired(result)
    assert verified
