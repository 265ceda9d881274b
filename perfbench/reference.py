"""The reference kernel: measures the speed of the core the benchmark runs on.

Usage: ``python reference.py``.  It prints ``ready`` and then repeats a fixed
unit of work until it receives SIGTERM.  On SIGUSR1 it prints the number of
units done so far and the CPU seconds it has used for them.

The benchmark shares its cores with other tenants, and their load changes
the speed of every instruction on a core by up to about 1.6 times, for
seconds to minutes at a time.  ``run.py`` pins itself, this kernel and each
workload process to one core, so the scheduler interleaves the kernel and
the workload a few milliseconds at a time and both run at the same speed.
The kernel's units per CPU second between two readings is then that speed,
and a workload's CPU seconds in that interval times
``units per CPU second / REFERENCE_RATE`` is what it would take on a core
that runs ``REFERENCE_RATE`` units per CPU second.

A unit mixes the kinds of work laddyn does: a pure-Python integer loop,
``.17g`` float formatting with a string join, and a batched 4x4 complex
matrix product and Hermitian eigensolve.  It does not call laddyn, so a
change to laddyn does not change the reference.
"""

from __future__ import annotations

import signal
import time

#: units per CPU second of the reference core
REFERENCE_RATE = 1000.0

_signals = {"stop": False, "report": False}


def _on_signal(signum, frame) -> None:
    _signals["stop" if signum == signal.SIGTERM else "report"] = True


def main() -> int:
    import numpy as np

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGUSR1, _on_signal)
    rng = np.random.default_rng(2006)
    mats = rng.standard_normal((64, 4, 4)) + 1j * rng.standard_normal((64, 4, 4))
    floats = [x * 1.37 for x in range(200)]
    print("ready", flush=True)
    units = 0
    cpu0 = time.process_time()
    while not _signals["stop"]:
        acc = 0
        for i in range(2000):
            acc += i * i
        ",".join(format(x, ".17g") for x in floats)
        np.linalg.eigh(mats @ mats.conj().swapaxes(-1, -2))
        units += 1
        if _signals["report"]:
            _signals["report"] = False
            print(units, repr(time.process_time() - cpu0), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
