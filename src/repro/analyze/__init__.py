"""Three independent checks over the ME images of one compile.

``repro.analyze`` is the compiler's per-image checker: three plain
functions run in a fixed order over the
:class:`~repro.cg.assemble.MEImage` artifacts of one compile, and one
deterministic, diffable JSON report (the same conventions as
:mod:`repro.obs.ledger`):

* ``layout``   -- packet-field offsets/widths actually used by each
  image, cross-checked against SOAR's resolved offsets in the decision
  ledger;
* ``budget``   -- control-store words and stack depth re-derived from
  the final instruction list and compared against the
  ``record_budget_fit`` / ``record_stack_fit`` ledger claims;
* ``validate`` -- translation validation: the image's packet effects
  (header writes, metadata, drops, ring puts) along each dispatch path
  are replayed on an isolated single-image harness and compared against
  an interpretation of the Baker source's unoptimized IR.

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
