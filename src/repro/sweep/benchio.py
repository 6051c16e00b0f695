"""Whole-file writes of the ``BENCH_*.json`` files.

A BENCH file is the output of one run (DESIGN.md section 9): the sweep
or the serve harness builds the complete document and replaces whatever
was at the path. Nothing already there is read, so the file can only
describe the run that wrote it.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Dict


def write_bench_json(path: str, figure: str, payload: Dict,
                     kind: str = "bench") -> str:
    """Replace ``path`` with ``payload`` plus ``kind`` and ``figure``.

    Written to a temporary sibling and moved into place with
    :func:`os.replace`, so a reader -- or a second writer -- sees the old
    document or the new one, never a torn file. Output is deterministic:
    stable key order, no timestamps.
    """
    data = dict(payload, kind=kind, figure=figure)
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=os.path.basename(path) + ".",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(data, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path
