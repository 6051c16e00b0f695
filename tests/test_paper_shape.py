"""The paper's qualitative results, asserted on the committed figures.

``BENCH_fig13/14/15.json`` at the repo root are this reproduction's
Table 1 and Figures 13-15; ``python -m repro.sweep`` is their one
producer and CI's ``figures`` job ``cmp``s them against the code. What
is checked here is that they still have the paper's shape (section 6):
BASE flat and memory-bound, PAC the largest single step, cumulative
levels never regressing, the optimized code scaling with MEs, the SWC
CAM giving Firewall nothing (its rule table is kept whole in Local
Memory instead), SOAR giving MPLS little, and Table 1's access counts
falling level by level.
"""

import copy
import os

import pytest

from repro.obs.diff import load_file
from repro.options import LEVEL_ORDER
from repro.sweep import FIG_BY_APP, ME_COUNTS, TABLE1_LEVELS, repo_root

#: app -> (rate the fully optimized code must reach at 6 MEs, factor by
#: which it must still grow from 2 to 4 MEs). Firewall's and MPLS's
#: ceilings are below the paper's (the committed files hold 1.89 and
#: 1.22). MPLS is on its DRAM plateau at 2 MEs already (1.221, then
#: 1.214 at 4), so "grows" there means "does not fall by more than the
#: plateau's 3 % noise"; test_mpls_swc_is_flat_from_two_mes says what
#: is true instead. EXPERIMENTS.md quantifies both gaps.
EXPECTED = {"l3switch": (2.3, 1.15), "firewall": (1.7, 1.15),
            "mpls": (1.1, 0.97)}


def committed(app):
    bench = load_file(os.path.join(repo_root(),
                                   "BENCH_%s.json" % FIG_BY_APP[app]))
    assert bench["app"] == app
    return bench


def check_figure_shape(bench):
    """Figures 13-15: forwarding rate vs MEs at every cumulative level."""
    best_at_6_min, scale_4_vs_2 = EXPECTED[bench["app"]]
    assert bench["me_counts"] == ME_COUNTS
    assert sorted(bench["rates"]) == sorted(LEVEL_ORDER)
    at = {level: dict(zip(bench["me_counts"], row))  # level -> {n_mes: rate}
          for level, row in bench["rates"].items()}

    # BASE flattens almost immediately: little gain past two MEs.
    assert at["BASE"][6] <= at["BASE"][2] * 1.45, "BASE should be flat"
    # PAC is a substantial improvement over -O1 at full ME count.
    assert at["PAC"][6] >= 1.3 * at["O1"][6], "PAC should be the major jump"
    # Cumulative levels never regress much at 6 MEs.
    for prev, cur in zip(LEVEL_ORDER, LEVEL_ORDER[1:]):
        assert at[cur][6] >= at[prev][6] * 0.9, (prev, cur)
    # The fully optimized configuration keeps scaling past two MEs (BASE
    # cannot) and reaches the expected ceiling.
    best = at[LEVEL_ORDER[-1]]
    assert best[4] >= best[2] * scale_4_vs_2, "optimized code should scale"
    assert best[6] >= best_at_6_min
    # Rates never exceed the 3 Gbps offered load.
    for level, rates in bench["rates"].items():
        assert max(rates) <= 3.05, level


def check_table1_shape(bench):
    """Table 1: memory accesses per packet, one application."""
    rows = bench["mem_accesses"]
    assert sorted(rows) == sorted(TABLE1_LEVELS)
    base, o1, pac, phr, swc = (rows[level] for level in TABLE1_LEVELS)

    # Monotone improvement along the cumulative levels.
    assert o1["total"] <= base["total"] + 0.5
    assert pac["total"] < o1["total"]
    assert phr["total"] <= pac["total"] + 0.5
    assert swc["total"] <= phr["total"] + 0.5
    # PAC's packet-access reduction is a large single step.
    o1_pkt = o1["pkt_sram"] + o1["pkt_dram"]
    assert o1_pkt - (pac["pkt_sram"] + pac["pkt_dram"]) >= 0.25 * o1_pkt
    # Roughly two scratch ring operations per packet at every level
    # (dispatch get + tx put), as in the paper's constant 2.0 column.
    assert 1.5 <= swc["pkt_scratch"] <= 4.0


@pytest.mark.parametrize("app", sorted(FIG_BY_APP))
def test_committed_figure_has_the_papers_shape(app):
    bench = committed(app)
    check_figure_shape(bench)
    check_table1_shape(bench)


def test_swc_relieves_l3switch_and_mpls_and_keeps_firewall_rules_resident():
    """Paper section 6.2: the rule table defeats a CAM-tagged software
    cache -- but the whole table fits Local Memory, so SWC keeps it
    resident and the rule scan leaves SRAM (only the drop counters stay
    there)."""
    from repro.apps import get_app
    from repro.compiler import compile_baker
    from repro.options import options_for

    for app in ("l3switch", "mpls"):
        rows = committed(app)["mem_accesses"]
        assert rows["SWC"]["app_sram"] < rows["PHR"]["app_sram"], app
    rows = committed("firewall")["mem_accesses"]
    assert rows["SWC"]["app_sram"] <= 1.0 < rows["PHR"]["app_sram"]

    app = get_app("firewall")
    result = compile_baker(app.source, options_for("SWC"),
                           app.make_trace(200, seed=5), codegen=False)
    (verdict,) = [d for d in result.decisions
                  if d.pass_name == "swc" and d.subject == "fw_rules"]
    assert (verdict.verdict, verdict.evidence["words"]) == ("resident", 192)
    assert result.swc_result.cached_names() == ["fw_rules"]


def check_pac_reads_a_firewall_rule_once(bench):
    """Paper section 6.2: PAC 'even aids the scalar optimizer' on the
    rule table -- the narrow reads of one rule record become wide ones."""
    rows = bench["mem_accesses"]
    assert rows["PAC"]["app_sram"] <= 0.5 * rows["O1"]["app_sram"], \
        "PAC should halve the rule-table reads"


def test_pac_halves_firewall_application_sram():
    check_pac_reads_a_firewall_rule_once(committed("firewall"))


def test_shape_check_notices_block_local_rule_combining():
    """22.7 is what PAC left when it combined rule reads within one basic
    block only (the commit before this check): not the paper's step."""
    bench = copy.deepcopy(committed("firewall"))
    bench["mem_accesses"]["PAC"]["app_sram"] = 22.664
    with pytest.raises(AssertionError, match="halve the rule-table reads"):
        check_pac_reads_a_firewall_rule_once(bench)


def test_soar_adds_little_for_mpls():
    """Dynamic label stacks defeat static offset resolution (Figure 9)."""
    rates = committed("mpls")["rates"]
    assert rates["SOAR"][-1] <= rates["PAC"][-1] * 1.25


def test_mpls_swc_is_flat_from_two_mes():
    """One saturated DRAM channel (BENCH_occupancy.json): a second ME
    reaches the plateau and four more add nothing."""
    plateau = committed("mpls")["rates"]["SWC"][1:]
    assert max(plateau) <= 1.04 * min(plateau), plateau


def test_l3switch_reaches_the_papers_two_dram_accesses():
    assert committed("l3switch")["mem_accesses"]["SWC"]["pkt_dram"] <= 3.0


def test_shape_check_notices_a_flattened_pac_step():
    """The checks read the numbers: PAC at 6 MEs edited to just under
    1.3x -O1 is no longer the paper's figure."""
    bench = copy.deepcopy(committed("l3switch"))
    bench["rates"]["PAC"][5] = round(1.29 * bench["rates"]["O1"][5], 3)
    with pytest.raises(AssertionError, match="PAC should be the major jump"):
        check_figure_shape(bench)
