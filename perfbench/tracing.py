"""Per-layer tracing of laddyn, installed from outside the package.

The tracer wraps selected functions with span-recording wrappers.  Each
wrapper replaces the function in every laddyn module namespace where the
original is bound, because that is where callers look the name up:
``measures`` imports ``pair_marginal_factors`` by name, so patching only
``linalg.pair_marginal_factors`` would miss every call from ``measures``.

Spans live in memory (one list per tracer) and are handed out at the end;
``aggregate`` turns them into per-layer counts and self times.  A span's
self time is its duration minus the durations of its direct child spans;
children of one span run on the same thread one after another, so their
sum is the covered part of the parent interval.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import sys
import threading
import time

#: traced functions, by defining module
TRACED = {
    "cli": ("main", "_write_table"),
    "detect": ("sweep", "find_transfer_events", "find_w_events"),
    "measures": ("concurrence_series", "correlation_series", "total_spin_series",
                 "two_point_correlation"),
    "linalg": ("pair_marginal_factors",),
    "dynamics": ("evolve", "evolve_states", "make_propagator"),
    "model": ("build_hamiltonian",),
    "analytic": ("eta_xi", "concurrence_formula", "correlation_formula"),
}

_FIND = ("detect.find_transfer_events", "detect.find_w_events")


def _stack_size(arr) -> int:
    """Number of state vectors in a (..., dim) stack."""
    shape = getattr(arr, "shape", None)
    if shape is None:
        return 1
    return math.prod(shape[:-1])


# extractors take (positional args, result); laddyn passes these arguments positionally
def _states(args, result):
    return _stack_size(args[0])


def _evolved_states(args, result):
    return _stack_size(result)


def _table_rows(args, result):
    return len(args[2])


def _table_bytes(args, result):
    return os.path.getsize(args[0])


def _result_len(args, result):
    return len(result)


#: exact work counts taken at each traced call: metric -> extractor
UNITS = {
    "cli._write_table": {"rows": _table_rows, "bytes": _table_bytes},
    "detect.sweep": {"rows": _result_len},
    "detect.find_transfer_events": {"events": _result_len},
    "detect.find_w_events": {"events": _result_len},
    "measures.concurrence_series": {"states": _states},
    "measures.correlation_series": {"states": _states},
    "measures.total_spin_series": {"states": _states},
    "dynamics.evolve_states": {"states": _evolved_states},
}


class Tracer:
    """Records one span per traced call: [name, start, end, parent span, units].

    Each thread keeps its own stack of open spans, so a span's parent is
    the innermost traced call open on the same thread.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()
        self._patched: list[tuple] = []

    def _wrap(self, name: str, fn):
        units = UNITS.get(name, {})
        spans = self.spans
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = [name, 0.0, 0.0, stack[-1] if stack else None, None]
            spans.append(span)
            stack.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if units:
                span[4] = {k: get(args, result) for k, get in units.items()}
            return result

        return wrapper

    def install(self) -> None:
        """Patch every laddyn module namespace that binds a traced function."""
        homes = {name: importlib.import_module(f"laddyn.{name}") for name in TRACED}
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "laddyn" or key.startswith("laddyn."))]
        for mod_name, fn_names in TRACED.items():
            home = homes[mod_name]
            for fn_name in fn_names:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def records(self) -> list[list]:
        """The spans with each parent replaced by its list index (-1 for none)."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        return [[name, start, end, -1 if parent is None else index[id(parent)], units]
                for name, start, end, parent, units in self.spans]


def metric_names() -> list[str]:
    """Every per-layer metric ``aggregate`` reports, in a fixed order."""
    names = []
    for mod_name, fn_names in TRACED.items():
        for fn_name in fn_names:
            full = f"{mod_name}.{fn_name}"
            if full != "cli.main":
                names.append(f"{full}.calls")
            names += [f"{full}.{unit}" for unit in UNITS.get(full, {})]
            names.append(f"{full}.self_s")
    names.append("detect.refine_yield")
    return names


def metric_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("yield"):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def aggregate(spans) -> dict:
    """Per-layer counts, self times and the refinement yield from span records.

    ``detect.refine_yield`` is the number of events the ``find_*`` functions
    returned divided by the scalar ``dynamics.evolve`` calls made inside
    them (0 when no such call was made).
    """
    out = {name: 0.0 if name.endswith("_s") else 0 for name in metric_names()}
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    refine_evolves = 0
    for i, (name, start, end, parent, units) in enumerate(spans):
        out[f"{name}.self_s"] += (end - start) - child_time[i]
        if f"{name}.calls" in out:
            out[f"{name}.calls"] += 1
        for unit, value in (units or {}).items():
            out[f"{name}.{unit}"] += value
        if name == "dynamics.evolve":
            p = parent
            while p >= 0 and spans[p][0] not in _FIND:
                p = spans[p][3]
            refine_evolves += p >= 0
    events = out["detect.find_transfer_events.events"] + out["detect.find_w_events.events"]
    out["detect.refine_yield"] = events / refine_evolves if refine_evolves else 0.0
    return out
