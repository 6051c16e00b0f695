"""Live-churn service harness (``python -m repro.serve``).

Runs a compiled application as a long-lived *service* -- infinite
deterministic traffic, cycle-budget run, live control-plane table churn
-- and records the run as windowed time series. The operational
counterpart to the one-number measurement rig in
:mod:`repro.rts.system`; see :mod:`repro.serve.harness`.
"""

from repro.serve.churn import (
    CHURN_KINDS,
    ChurnSpec,
    ControlPlane,
    build_mutations,
    parse_churn_spec,
    stale_cycles,
    stale_tx_counts,
)
from repro.serve.harness import (
    ServeConfig,
    ServeResult,
    build_app,
    run_service,
)
from repro.serve.traffic import (
    IMIX_SIZES,
    IMIX_WEIGHTS,
    StreamingRxEngine,
    TrafficModel,
    TrafficSpec,
)

__all__ = [
    "CHURN_KINDS",
    "ChurnSpec",
    "ControlPlane",
    "IMIX_SIZES",
    "IMIX_WEIGHTS",
    "ServeConfig",
    "ServeResult",
    "StreamingRxEngine",
    "TrafficModel",
    "TrafficSpec",
    "build_app",
    "build_mutations",
    "parse_churn_spec",
    "run_service",
    "stale_cycles",
    "stale_tx_counts",
]
