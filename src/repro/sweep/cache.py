"""On-disk compile-artifact cache for the evaluation sweep.

The paper's evaluation grid (apps x optimization levels x ME counts)
re-simulates every cell but only needs ``apps x levels`` *compiles*.
This cache makes each (app, level) compile **once ever**, not once per
session: a pickled ``(CompileResult, Trace)`` pair lands on disk under
a content fingerprint, and every later session -- or sweep worker
process -- loads it back instead of recompiling.

The fingerprint covers everything that can change compiler output:

* the Baker source text of the application,
* the full :class:`~repro.options.CompilerOptions` field set,
* the profiling-trace parameters (packet count, seed),
* the compiler version -- a digest over every ``repro`` source file,
  so *any* change to the compiler (or simulator) invalidates the whole
  cache rather than serving artifacts from an older code base,
* the Python major.minor version (pickles are not guaranteed portable
  across interpreter versions).

Hits, misses and corrupt entries are counted:
:attr:`CompileCache.hits` / :attr:`~CompileCache.misses` /
:attr:`~CompileCache.corrupt_entries`.

Cache files are written atomically (tempfile + ``os.replace``), so
concurrent workers racing on a cold key at worst compile twice and
both write identical-content artifacts. An unreadable file is a plain
miss; a file that *reads* but does not *decode* (truncated pickle,
stale class layout) is deleted on first detection -- and counted in
:attr:`~CompileCache.corrupt_entries` -- so later runs do not keep
re-reading and re-discarding the same dead bytes.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import sys
import tempfile
from dataclasses import asdict
from typing import Dict, Optional, Tuple

import repro

#: Bump to invalidate every existing cache entry on format changes.
CACHE_FORMAT = 1

_PKG_DIR = os.path.dirname(os.path.abspath(repro.__file__))

_compiler_fp: Optional[str] = None


def repo_root() -> str:
    """The checkout root (``src/repro`` -> two levels up)."""
    return os.path.dirname(os.path.dirname(_PKG_DIR))


def default_cache_dir() -> str:
    return os.path.join(repo_root(), ".repro_cache", "compile")


def compiler_fingerprint() -> str:
    """Digest of every ``repro`` source file (path + content), computed
    once per process. Editing any compiler/simulator source yields a
    new fingerprint, so stale artifacts can never be served."""
    global _compiler_fp
    if _compiler_fp is None:
        h = hashlib.sha256()
        paths = []
        for base, _dirs, files in os.walk(_PKG_DIR):
            for name in files:
                if name.endswith(".py"):
                    paths.append(os.path.join(base, name))
        for path in sorted(os.path.relpath(p, _PKG_DIR) for p in paths):
            h.update(path.encode())
            h.update(b"\0")
            with open(os.path.join(_PKG_DIR, path), "rb") as fh:
                h.update(fh.read())
            h.update(b"\0")
        _compiler_fp = h.hexdigest()
    return _compiler_fp


def cache_key(source: str, opts, trace_packets: int, trace_seed: int,
              target_gbps: Optional[float] = None) -> str:
    """Content fingerprint for one (source, options, trace) compile.
    ``target_gbps`` is accepted and ignored: ``benchmarks/pipeline``
    passes it, and that directory is frozen (ROADMAP item 3)."""
    ident = {
        "format": CACHE_FORMAT,
        "source": source,
        "options": asdict(opts),
        "trace": {"packets": trace_packets, "seed": trace_seed},
        "compiler": compiler_fingerprint(),
        "python": "%d.%d" % sys.version_info[:2],
    }
    blob = json.dumps(ident, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class CompileCache:
    """Disk-backed (plus in-process memo) store of compiled artifacts.

    ``enabled=False`` keeps the in-process memo but never touches disk.
    """

    def __init__(self, cache_dir: Optional[str] = None,
                 enabled: bool = True):
        self.cache_dir = cache_dir or default_cache_dir()
        self.enabled = enabled
        self.hits = 0
        self.misses = 0
        self.corrupt_entries = 0
        self._memo: Dict[str, Tuple[object, object]] = {}

    def _path(self, key: str) -> str:
        return os.path.join(self.cache_dir, key[:2], key + ".pkl")

    def load(self, key: str):
        """The cached value, or None. A corrupt (undecodable) entry is
        deleted on first detection -- leaving it on disk would make
        every later run re-read and re-discard the same bytes -- and
        counted in :attr:`corrupt_entries`."""
        if key in self._memo:
            return self._memo[key]
        if not self.enabled:
            return None
        try:
            with open(self._path(key), "rb") as fh:
                value = pickle.load(fh)
        except OSError:
            return None  # absent/unreadable: a plain miss
        except (pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError):
            # Truncated write, stale class layout, wrong protocol...
            # The bytes will never decode; stop serving them.
            self.corrupt_entries += 1
            try:
                os.unlink(self._path(key))
            except OSError:
                pass
            return None
        self._memo[key] = value
        return value

    def store(self, key: str, value) -> None:
        self._memo[key] = value
        if not self.enabled:
            return
        path = self._path(key)
        d = os.path.dirname(path)
        os.makedirs(d, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(value, fh, protocol=4)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # -- the sweep's compile entry point -----------------------------------------

    def get_or_compile(self, app_name: str, level: str,
                       trace_packets: int = 200, trace_seed: int = 5):
        """``(CompileResult, Trace, hit)`` for one app at one level.

        On a miss the app is compiled through the full pipeline and the
        artifact stored; on a hit compilation is skipped entirely.
        """
        from repro.apps import get_app
        from repro.compiler import compile_baker
        from repro.options import options_for

        app = get_app(app_name)
        opts = options_for(level)
        key = cache_key(app.source, opts, trace_packets, trace_seed)
        cached = self.load(key)
        if cached is not None:
            self.hits += 1
            result, trace = cached
            return result, trace, True
        self.misses += 1
        trace = app.make_trace(trace_packets, seed=trace_seed)
        result = compile_baker(app.source, opts, trace)
        self.store(key, (result, trace))
        return result, trace, False
