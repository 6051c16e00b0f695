"""``repro.tune``: evidence-pruned autotuner over the evaluation grid.

Searches CompilerOptions (SWC candidate sets and check periods),
aggregation ``target_gbps`` and ME counts for the configuration that
maximizes an app's forwarding rate. Every candidate is measured once on
the simulator at the figures' windows, with ledger-style evidence
pruning the space. See :mod:`repro.tune.driver` for the trial protocol
and ``DESIGN.md`` section 14 for the full design.
"""

from repro.tune.driver import TuneOutcome, committed_baseline, run_tune
from repro.tune.pruner import PrunedRegion
from repro.tune.space import SearchSpace, TrialConfig

__all__ = ["SearchSpace", "TrialConfig", "TuneOutcome", "PrunedRegion",
           "run_tune", "committed_baseline"]
