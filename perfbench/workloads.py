"""The four benchmark workloads: laddyn CLI invocations and their output checks.

Each workload is a list of ``laddyn`` argument vectors run in sequence in one
fresh interpreter.  ``sweep_csv`` and ``verify_default`` always run their
canonical configuration.  For ``evolve_json`` and ``events_scan`` seed 0 is
the canonical configuration and other seeds pick other d values from fixed
grids, so the work per run stays nearly the same.  Canonical outputs are
checked byte for byte against the sha256 hashes in ``golden.json``; the
others by exit code, row and event counts, the ``max_dev`` column and the
event residuals.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import random
from dataclasses import dataclass

CANONICAL_SEED = 0

T_MAX_LONG = 300.0
DT = 0.01
#: the CLI's default oracle tolerance, also the bound on max_dev and residuals
TOL = 1e-9
#: bound on |t_detected - t_predicted|, as in ``laddyn verify``
EVENT_TIME_TOL = 1e-8

SWEEP_D_GRID = "0.1:4.0:0.1"
SWEEP_T_MAX = 30.0
VERIFY_SUMMARY = "summary: 128/128 checks passed"

EVOLVE_D_CANONICAL = 0.6
EVOLVE_D_GRID = (0.2, 0.4, 0.6, 0.8, 1.0, 1.25, 1.5, 2.0, 2.5, 3.0)
EVOLVE_COLUMNS = 27

EVENTS_D_CANONICAL = (0.3, 1.0, 3.0)
#: one d is drawn from each band, so the event count (which grows with d)
#: stays within a few percent of the canonical one
EVENTS_D_BANDS = (
    (0.2, 0.25, 0.3, 0.35, 0.4),
    (0.8, 0.9, 1.0, 1.1, 1.2),
    (2.8, 2.85, 3.0, 3.15, 3.2),
)

_GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")


@dataclass(frozen=True)
class Job:
    """One workload instance: CLI argument vectors plus what to check."""

    workload: str
    seed: int
    argvs: tuple
    #: output file name -> d value it was made for (None for d-independent files)
    outputs: dict
    #: (d, t) points evaluated, the numerator of ``points_per_s``
    points: int
    #: the inputs are the canonical ones, so outputs are checked by hash
    canonical: bool


def _n_points(t_max: float) -> int:
    # the same inclusive-grid rule as laddyn.dynamics.time_grid
    return int(math.floor(t_max / DT + 1e-9)) + 1


def _sweep(seed: int, out: str) -> Job:
    path = os.path.join(out, "sweep.csv")
    argv = ["sweep", "--d-grid", SWEEP_D_GRID, "--t-max", f"{SWEEP_T_MAX:g}", "--output", path]
    return Job("sweep_csv", seed, (argv,), {"sweep.csv": None, "sweep_twcurves.csv": None},
               40 * _n_points(SWEEP_T_MAX), canonical=True)


def _evolve(seed: int, out: str) -> Job:
    d = EVOLVE_D_CANONICAL if seed == CANONICAL_SEED else random.Random(seed).choice(EVOLVE_D_GRID)
    argv = ["evolve", "--d", repr(d), "--t-max", f"{T_MAX_LONG:g}", "--format", "json",
            "--output", os.path.join(out, "evolve.json")]
    return Job("evolve_json", seed, (argv,), {"evolve.json": d}, _n_points(T_MAX_LONG),
               canonical=seed == CANONICAL_SEED)


def _events(seed: int, out: str) -> Job:
    if seed == CANONICAL_SEED:
        ds = EVENTS_D_CANONICAL
    else:
        rng = random.Random(seed)
        ds = tuple(rng.choice(band) for band in EVENTS_D_BANDS)
    argvs, outputs = [], {}
    for i, d in enumerate(ds):
        name = f"events_{i}.csv"
        argvs.append(["events", "--d", repr(d), "--t-max", f"{T_MAX_LONG:g}",
                      "--output", os.path.join(out, name)])
        outputs[name] = d
    return Job("events_scan", seed, tuple(argvs), outputs, len(ds) * _n_points(T_MAX_LONG),
               canonical=seed == CANONICAL_SEED)


def _verify(seed: int, out: str) -> Job:
    # five default d values, t in [0, 30] at the default step
    return Job("verify_default", seed, (["verify"],), {}, 5 * _n_points(30.0), canonical=True)


WORKLOADS = {
    "sweep_csv": _sweep,
    "evolve_json": _evolve,
    "events_scan": _events,
    "verify_default": _verify,
}


def make_job(workload: str, seed: int, out: str) -> Job:
    """The job for a workload and seed, writing its outputs under ``out``."""
    return WORKLOADS[workload](seed, out)


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def load_golden() -> dict:
    with open(_GOLDEN_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def expected_event_counts(d: float, t_max: float) -> tuple[int, int]:
    """(transfer, W) event counts in [0, t_max] from the closed-form times.

    mu + nu = 2 sqrt(1 + d^2); transfer events sit at (2n+1) 2pi/(mu+nu) and
    W events at half those times.
    """
    s = 2.0 * math.sqrt(1.0 + d * d)
    n_tr = int((t_max * s / (2 * math.pi) - 1) // 2) + 1 if t_max * s >= 2 * math.pi else 0
    n_w = int((t_max * s / math.pi - 1) // 2) + 1 if t_max * s >= math.pi else 0
    return n_tr, n_w


def _check_events(path: str, d: float) -> list[str]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    rows = list(csv.DictReader(lines))
    problems = []
    kinds = [r["kind"] for r in rows]
    want = expected_event_counts(d, T_MAX_LONG)
    got = (kinds.count("transfer"), kinds.count("w_state"))
    if got != want:
        problems.append(f"d={d}: {got} transfer/W events, expected {want}")
    for r in rows:
        if float(r["residual"]) > TOL:
            problems.append(f"d={d}: residual {r['residual']} > {TOL:g}")
        if abs(float(r["t_detected"]) - float(r["t_predicted"])) > EVENT_TIME_TOL:
            problems.append(f"d={d}: event time {r['t_detected']} vs {r['t_predicted']}")
    return problems


def _check_evolve(path: str) -> list[str]:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    columns, rows = doc["columns"], doc["rows"]
    problems = []
    if len(columns) != EVOLVE_COLUMNS:
        problems.append(f"{len(columns)} columns, expected {EVOLVE_COLUMNS}")
    if len(rows) != _n_points(T_MAX_LONG):
        problems.append(f"{len(rows)} rows, expected {_n_points(T_MAX_LONG)}")
    if "max_dev" not in columns:
        return problems + ["no max_dev column"]
    k = columns.index("max_dev")
    worst = max(row[k] for row in rows)
    if not worst <= TOL:
        problems.append(f"max_dev reaches {worst:.3e} > {TOL:g}")
    return problems


def check_outputs(job: Job, out: str, returncodes, stdout: str, golden: dict) -> list[str]:
    """Every way the run's outputs differ from what is expected; empty if none."""
    problems = [f"{argv[0]} exited {rc}" for argv, rc in zip(job.argvs, returncodes) if rc != 0]
    if len(returncodes) != len(job.argvs):
        problems.append(f"{len(returncodes)} of {len(job.argvs)} commands ran")
    if problems:
        return problems
    if job.workload == "verify_default" and VERIFY_SUMMARY not in stdout.splitlines():
        problems.append(f"verify did not print {VERIFY_SUMMARY!r}")
    for name, d in job.outputs.items():
        path = os.path.join(out, name)
        if not os.path.exists(path):
            problems.append(f"missing output {name}")
        elif job.canonical:
            want = golden[job.workload][name]
            got = sha256_file(path)
            if got != want:
                problems.append(f"{name}: sha256 {got} != golden {want}")
        elif job.workload == "evolve_json":
            problems += _check_evolve(path)
        elif job.workload == "events_scan":
            problems += _check_events(path, d)
    return problems
