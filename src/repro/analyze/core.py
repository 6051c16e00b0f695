"""Findings, the fixed check sequence, and the report of
:mod:`repro.analyze`.

Findings are the analyzer's currency: each of the three checks returns
a section dict holding a ``findings`` list of ``{severity, pass,
subject, detail}`` records beside its evidence.  ``error``-severity
findings (a divergence, a budget lie, a layout mismatch) make the run
"not ok" and turn into exit code :data:`EXIT_FINDINGS` at the CLI.

Reports follow the :mod:`repro.obs.ledger` conventions -- a ``kind`` /
``version`` header, normalized scalar values, and ``sort_keys`` JSON
with a trailing newline -- so they diff cleanly across compiler
versions.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import Dict

from repro.obs import ledger as obs_ledger

#: CLI exit status when at least one error-severity finding was reported.
EXIT_FINDINGS = 2

REPORT_KIND = "analyze_report"
#: 3: the ``passes`` sections are exactly layout / budget / verify.
REPORT_VERSION = 3


def finding(severity: str, pass_name: str, subject: str, detail: str,
            **evidence) -> Dict[str, object]:
    """One normalized finding record (ledger ``_norm`` conventions)."""
    rec: Dict[str, object] = {
        "severity": severity,
        "pass": pass_name,
        "subject": subject,
        "detail": detail,
    }
    if evidence:
        rec["evidence"] = {
            k: obs_ledger._norm(v) for k, v in sorted(evidence.items())
        }
    return rec


def verify(app_name: str, result, trace) -> Dict[str, object]:
    """``verify`` check: :func:`repro.rts.system.verify_against_reference`
    on this compile and trace. One error finding when the transmitted
    packets differ from the reference interpreter's or the compile
    cannot be loaded."""
    from repro.rts.loader import LoaderError
    from repro.rts.system import comparison_meta_words, \
        verify_against_reference

    try:
        detail = (None if verify_against_reference(result, trace) else
                  "transmitted packets differ from the reference "
                  "interpreter's")
    except LoaderError as exc:
        detail = "compile cannot be loaded: %s" % exc
    return {
        "findings": [] if detail is None else
        [finding("error", "verify", app_name, detail)],
        "meta_words_compared": comparison_meta_words(result),
    }


def run_analysis(app_name: str, level: str,
                 packets: int = 200, seed: int = 5,
                 result=None, trace=None) -> Dict[str, object]:
    """Compile ``app_name`` at ``level`` and run the three checks.

    Returns the full report dict.  A pre-existing compile may be passed
    via ``result``/``trace`` (the sweep orchestrator does this to avoid
    a second compile); its ``decisions`` are the claims ``layout`` and
    ``budget`` check.
    """
    from repro.analyze import budget, layout
    from repro.apps import get_app
    from repro.compiler import compile_baker
    from repro.options import options_for

    if result is None:
        app = get_app(app_name)
        trace = app.make_trace(packets, seed=seed)
        result = compile_baker(app.source, options_for(level), trace)

    sections = {
        "layout": layout.check(result),
        "budget": budget.check(result),
        "verify": verify(app_name, result, trace),
    }
    findings = [f for section in sections.values()
                for f in section["findings"]]
    n_errors = sum(1 for f in findings if f["severity"] == "error")
    return {
        "kind": REPORT_KIND,
        "version": REPORT_VERSION,
        "app": app_name,
        "level": level,
        "options": {k: obs_ledger._norm(v)
                    for k, v in sorted(asdict(result.opts).items())},
        "trace": {"packets": packets, "seed": seed},
        "passes": sections,
        "findings_total": len(findings),
        "errors_total": n_errors,
        "ok": n_errors == 0,
    }


def report_text(report: Dict[str, object]) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def write_report(report: Dict[str, object], path: str) -> None:
    with open(path, "w") as fh:
        fh.write(report_text(report))
