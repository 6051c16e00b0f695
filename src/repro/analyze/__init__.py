"""Three independent checks over one compile.

``repro.analyze`` is the compiler's checker: three plain functions run
in a fixed order over one compile and its profiling trace, and one
deterministic, diffable JSON report (the same conventions as
:mod:`repro.obs.ledger`):

* ``layout``   -- packet-field offsets/widths actually used by each
  image, cross-checked against SOAR's resolved offsets in the decision
  ledger;
* ``budget``   -- control-store words and stack depth re-derived from
  the final instruction list and compared against the
  ``record_budget_fit`` / ``record_stack_fit`` ledger claims;
* ``verify``   -- the differential oracle,
  :func:`repro.rts.system.verify_against_reference`: the images run on
  the simulated chip must transmit the packets, payload and metadata,
  that the interpreter of the Baker source's unoptimized IR does.

Usage::

    python -m repro.analyze mpls -O3            # one report

Exit code 2 means at least one check reported an error-severity finding
(a divergence, a budget lie, a layout mismatch); 0 means clean.
"""

from repro.analyze.core import (  # noqa: F401
    EXIT_FINDINGS,
    run_analysis,
    write_report,
)
