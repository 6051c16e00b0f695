"""Structured observability for the compiler and the simulated chip.

Four records, one per question (DESIGN.md section 7): the compile
report (:mod:`repro.obs.ledger`: what each pass decided, and why), the
packet trace (:mod:`repro.obs.trace` / :mod:`repro.obs.export`), the
windowed timeline (:mod:`repro.obs.timeseries`) and the stall-cycle
occupancy cell (:mod:`repro.obs.profile`); :mod:`repro.obs.report`
renders them and :mod:`repro.obs.diff` gates them. Every observer is
off unless attached and perturbs nothing when on.

Import the submodule you need; nothing is re-exported here (an eager
import would leave ``repro.obs.ledger`` / ``repro.obs.diff`` in
``sys.modules`` before ``python -m`` executes them).
"""
