"""The differential oracle (``repro.rts.system.verify_against_reference``)
on the three apps: every app at every optimization level verifies clean,
and the oracle compares the metadata words it says it compares, closes
its chip, and turns a compile without images into a located error.

The oracle's sensitivity (it must *fail* on miscompiles) is proven
separately by tests/test_analyze_mutations.py; this file proves the
other direction -- no false positives on correct compiles.
"""

from __future__ import annotations

import pytest

from repro.apps import get_app
from repro.baker.packetmodel import META_RX_PORT
from repro.compiler import compile_baker
from repro.ixp.chip import IXP2400
from repro.options import LEVEL_ORDER, options_for
from repro.rts.loader import LoaderError
from repro.rts.system import comparison_meta_words, verify_against_reference

APPS = ("l3switch", "firewall", "mpls")

# A small but representative profiling trace: the full app x level
# matrix runs in seconds.
PACKETS, SEED = (120, 5)

_compiled = {}


def _fresh_compile(app_name, level, **kw):
    app = get_app(app_name)
    trace = app.make_trace(PACKETS, seed=SEED)
    return compile_baker(app.source, options_for(level), trace, **kw), trace


def _compile(app_name, level):
    key = (app_name, level)
    if key not in _compiled:
        _compiled[key] = _fresh_compile(app_name, level)
    return _compiled[key]


@pytest.mark.parametrize("app_name", APPS)
@pytest.mark.parametrize("level", LEVEL_ORDER)
def test_matrix_validates_clean(app_name, level):
    """Every app at every O-level transmits what the reference
    interpreter does, payloads and compared metadata words alike."""
    result, trace = _compile(app_name, level)
    assert verify_against_reference(result, trace), (app_name, level)


def test_verify_compares_metadata_words():
    """The oracle compares every metadata word from ``rx_port`` up that
    PHR did not localize: all of firewall's at SOAR, ``flow_id``'s word
    no longer at PHR."""
    soar, trace = _compile("firewall", "SOAR")
    phr, _ = _compile("firewall", "PHR")
    assert verify_against_reference(soar, trace)
    assert verify_against_reference(phr, trace)
    words_soar, words_phr = (comparison_meta_words(soar),
                             comparison_meta_words(phr))
    assert words_soar[0] == META_RX_PORT
    assert set(words_phr) < set(words_soar)


def test_verify_closes_its_chip(monkeypatch):
    """The oracle's chip is unmapped when its run is done."""
    closed = []
    real_close = IXP2400.close
    monkeypatch.setattr(IXP2400, "close",
                        lambda chip: closed.append(chip) or real_close(chip))
    result, trace = _fresh_compile("mpls", "BASE")
    assert verify_against_reference(result, trace)
    assert len(closed) == 1


def test_verify_flags_compile_without_images():
    """``codegen=False`` leaves nothing to load: a ``LoaderError`` naming
    the aggregate, not a vacuous pass."""
    result, trace = _fresh_compile("mpls", "BASE", codegen=False)
    with pytest.raises(LoaderError, match="no ME image for aggregate mpls_fwd"):
        verify_against_reference(result, trace)
