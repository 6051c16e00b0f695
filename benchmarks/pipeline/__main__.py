"""Entry point: ``python3 benchmarks/pipeline/__main__.py ...`` (what
BENCHMARK.json runs) or ``python3 -m benchmarks.pipeline ...``."""

import sys
from pathlib import Path

if __package__ in (None, ""):
    # Run as a file: make the package importable from the checkout root.
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.pipeline.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
