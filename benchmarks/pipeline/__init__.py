"""The repo benchmark: Baker source -> forwarding rate, host and
simulated metrics, layer by layer. See README.md in this directory and
BENCHMARK.json at the repo root (the metric/workload contract)."""
