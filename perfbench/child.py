"""One benchmark iteration in a fresh interpreter.

Usage: ``python child.py '<job json>'``, with ``src`` on ``PYTHONPATH``.  The
job is ``{"mode": "setup"}`` or ``{"mode": "run", "argvs": [...],
"trace": bool, "result": path}``.

``setup`` imports laddyn and prints the CPU seconds the process has used
from its start to the moment the import is done.  ``run`` calls
``laddyn.cli.main`` once per argument vector, in this one process, so
process-global caches start cold as they do for a user, and writes
timings, exit codes, captured stdout, peak RSS and the environment (plus
raw spans when traced) as JSON to ``result``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time


def _blas_threads():
    """OpenBLAS's current thread count, or None where it cannot be queried."""
    import ctypes
    import glob

    import numpy as np

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "lib*openblas*.so*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _environment() -> dict:
    import platform

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 2 has no dict form of its build config
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_config": blas.get("openblas configuration", blas.get("version")),
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                        "LADDYN_THREADS")},
    }


def main() -> int:
    job = json.loads(sys.argv[1])
    if job["mode"] == "setup":
        import laddyn  # noqa: F401  (the import is what is timed)

        print(repr(time.process_time()))
        return 0

    import resource

    from laddyn import cli

    tracer = None
    if job["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    captured = io.StringIO()
    returncodes = []
    cpu0, wall0 = time.process_time(), time.perf_counter()
    with contextlib.redirect_stdout(captured):
        for argv in job["argvs"]:
            returncodes.append(cli.main(argv))
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    if tracer is not None:
        tracer.uninstall()
    result = {
        "returncodes": returncodes,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "stdout": captured.getvalue(),
        "env": _environment(),
        "spans": tracer.records() if tracer is not None else None,
    }
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
