"""One measured CLI call in a fresh process.

Usage: python3 perfbench/child.py <trace 0|1> <argv as a JSON list>
       python3 perfbench/child.py setup

Imports numpy and crosslat from the checkout's ``src/``, notes when they
are ready, optionally installs the tracer, then calls
``crosslat.cli.main(argv)`` once with stdout and stderr captured.  The
last line it prints is a JSON record of the call for ``run.py``.  With
``setup`` it stops once the imports are ready.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import crosslat  # noqa: E402
from crosslat import cli  # noqa: E402

READY = time.monotonic()


def blas_version() -> str:
    try:
        conf = np.show_config(mode="dicts")
        return str(conf["Build Dependencies"]["blas"].get("version", "unknown"))
    except (TypeError, KeyError):
        return "unknown"


def main() -> int:
    if sys.argv[1] == "setup":
        print(json.dumps({"ready": READY}))
        return 0
    traced = sys.argv[1] == "1"
    argv = json.loads(sys.argv[2])
    tracer = None
    if traced:
        import spans  # this script's own directory is first on sys.path
        tracer = spans.install(crosslat)

    out, err = io.StringIO(), io.StringIO()
    error = None
    code = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception:  # reported to run.py as a failed call
        error = traceback.format_exc()
    wall = time.perf_counter() - t0

    record = {
        "ready": READY,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "exit": code,
        "summary": err.getvalue().strip(),
        "sha256": hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(),
        "error": error,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_version(),
    }
    if tracer is not None:
        record["spans"] = {name: [s.calls, s.self_s] for name, s in tracer.by_name().items()}
        record["edges"] = [[p, c, s.calls, s.self_s] for (p, c), s in tracer.edges.items()]
        record["counters"] = {
            "elements": tracer.elements,
            "scan_configs": tracer.scan_configs,
            "mobius_hits": tracer.mobius_hits,
            "iso_true": tracer.iso_true,
        }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
