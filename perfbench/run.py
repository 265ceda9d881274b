"""laddyn benchmark: times the CLI workloads end to end, or per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload sweep_csv --seed 0 --seconds 30 --trace 0

Closed loop, one client: one fresh interpreter at a time runs the workload
(``child.py``).  This process pins itself, and so every process it starts,
to one core.  Beside each untraced iteration and its ``import laddyn``
set-up probes runs the reference kernel (``reference.py``, see
``CoreSpeed``), which measures how fast that core is at the moment; the
iteration's CPU seconds are scaled to the reference core.  Iterations
repeat until ``--seconds`` is spent, and each end-to-end metric is the
median over iterations (``setup_s``: over probes).  Every iteration's
outputs are checked (``workloads.py``); an iteration with a non-zero exit
or a wrong output counts in ``failed``.

With ``--trace 1`` the loop runs pairs of one untraced and one traced
iteration, without the reference kernel, and reports the per-layer metrics
of the traced ones (``tracing.py``), the untraced wall time and
``trace.overhead_s``, traced minus untraced wall time.

Stdout carries an environment line, a human-readable summary and, last, one
JSON object with the keys correct, attempted, failed and metrics.  The
children's BLAS pools get one thread unless the caller set the thread
variables (see ``BLAS_THREAD_VARS``); ``LADDYN_THREADS`` is left as found.
Both are recorded.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

#: ``import laddyn`` probes taken before each untraced iteration
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 150
STOP_TIMEOUT_S = 10
#: fewest reference units a measured interval must contain (about 50 ms)
MIN_REFERENCE_UNITS = 50
SCRATCH = os.path.join(ROOT, ".perfbench_tmp")


class BenchError(Exception):
    """The benchmark cannot run here (no laddyn sources, or no iteration completed)."""


#: BLAS pools of the children are limited to one thread unless the caller
#: set these: all work is pinned to one core, where a second thread could
#: only wait.  (With a core of its own, a second OpenBLAS thread bought no
#: speed on laddyn's stacks of 16-amplitude states either.)
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _child_env() -> dict:
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        env.setdefault(var, "1")
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run_child(job: dict) -> subprocess.CompletedProcess:
    # subprocess.run kills the child on timeout and waits for it to end
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), json.dumps(job)],
        cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )


class CoreSpeed:
    """Runs the reference kernel (``reference.py``) while the block is open.

    ``measure(fn)`` calls ``fn`` between two readings of the kernel and
    returns its result and ``scale``: the kernel's units per CPU second
    between the readings divided by ``reference.REFERENCE_RATE``.  CPU
    seconds measured inside ``fn`` times ``scale`` are CPU seconds on the
    reference core.  The kernel shares the core with the work only if both
    are pinned to one core, as ``main`` does.
    """

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "reference.py")],
            cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True)
        try:
            if self.proc.stdout.readline().strip() != "ready":
                raise BenchError("the reference kernel did not start")
        except BaseException:
            self._stop()
            raise
        return self

    def _reading(self) -> tuple[int, float]:
        self.proc.send_signal(signal.SIGUSR1)
        line = self.proc.stdout.readline().split()
        if len(line) != 2:
            raise BenchError("the reference kernel stopped reporting")
        return int(line[0]), float(line[1])

    def measure(self, fn):
        units0, cpu0 = self._reading()
        result = fn()
        units1, cpu1 = self._reading()
        if units1 - units0 < MIN_REFERENCE_UNITS:
            raise BenchError("the reference kernel got too little CPU time beside the work")
        return result, (units1 - units0) / (cpu1 - cpu0) / reference.REFERENCE_RATE

    def _stop(self) -> None:
        self.proc.terminate()
        try:
            self.proc.communicate(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()

    def __exit__(self, *exc):
        self._stop()
        return False


def _setup_probe() -> float:
    proc = _run_child({"mode": "setup"})
    if proc.returncode != 0:
        raise BenchError(f"import laddyn failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


def run_iteration(job: workloads.Job, out: str, golden: dict, trace: bool = False) -> dict:
    """Run one job in a fresh interpreter; its record has a 'problems' list."""
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    result_path = os.path.join(out, "result.json")
    try:
        proc = _run_child({"mode": "run", "argvs": [list(a) for a in job.argvs],
                           "trace": trace, "result": result_path})
    except subprocess.TimeoutExpired:
        return {"problems": [f"timed out after {CHILD_TIMEOUT_S} s"]}
    if proc.returncode != 0 or not os.path.exists(result_path):
        return {"problems": [f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"]}
    with open(result_path, "r", encoding="utf-8") as fh:
        rec = json.load(fh)
    rec["problems"] = workloads.check_outputs(job, out, rec["returncodes"], rec["stdout"], golden)
    shutil.rmtree(out, ignore_errors=True)
    return rec


def run_loop(job: workloads.Job, out: str, seconds: float, trace: bool,
             golden: dict) -> tuple[list[dict], list[float]]:
    """Iterations (untraced, or untraced/traced pairs) until ``seconds`` is spent.

    Untraced iterations and the ``SETUP_PROBES`` set-up probes before each
    run beside the reference kernel (``CoreSpeed``), and each is scaled to
    the reference core.  After the first iteration, a new one starts only if
    it is expected to end within the budget, judged from the mean so far.
    Returns the iteration records and the set-up samples.
    """
    records, setup = [], []
    t0 = time.monotonic()
    with contextlib.ExitStack() as stack:
        speed = None if trace else stack.enter_context(CoreSpeed())
        while True:
            if trace:
                rec = {"plain": run_iteration(job, out, golden),
                       "traced": run_iteration(job, out, golden, trace=True)}
            else:
                for _ in range(SETUP_PROBES):
                    cpu, scale = speed.measure(_setup_probe)
                    setup.append(cpu * scale)
                rec, scale = speed.measure(lambda: run_iteration(job, out, golden))
                rec["scale"] = scale
            records.append(rec)
            elapsed = time.monotonic() - t0
            if elapsed * (len(records) + 1) / len(records) > seconds:
                return records, setup


def _iterations(records: list[dict]) -> list[dict]:
    """Every child run, with traced pairs flattened."""
    return [it for r in records for it in ((r["plain"], r["traced"]) if "traced" in r else (r,))]


def end_to_end_metrics(job: workloads.Job, records: list[dict], setup: list[float]) -> dict:
    ok = [r for r in records if not r["problems"]]
    if not ok:
        raise BenchError("no iteration completed correctly")
    cpu = statistics.median(r["cpu_s"] * r["scale"] for r in ok)
    return {
        "ref_cpu_s": (cpu, "s"),
        "ref_points_per_s": (job.points / cpu, "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_kb"] for r in ok) / 1024.0, "MB"),
    }


def per_layer_metrics(records: list[dict]) -> dict:
    ok = [r for r in records if not r["plain"]["problems"] and not r["traced"]["problems"]]
    if not ok:
        raise BenchError("no traced pair completed correctly")
    layers = [tracing.aggregate(r["traced"]["spans"]) for r in ok]
    metrics = {}
    for name in tracing.metric_names():
        metrics[name] = (statistics.median(layer[name] for layer in layers),
                         tracing.metric_unit(name))
    overhead = [r["traced"]["wall_s"] - r["plain"]["wall_s"] for r in ok]
    metrics["trace.overhead_s"] = (statistics.median(overhead), "s")
    metrics["run.wall_s"] = (statistics.median(r["plain"]["wall_s"] for r in ok), "s")
    return metrics


def _git_commit() -> str | None:
    """HEAD commit read from .git in the checkout, or None outside a git checkout."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path, "r", encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, "r", encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), "r", encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _environment(iterations: list[dict], nproc: int, core: int) -> dict:
    child_env = next((it["env"] for it in iterations if "env" in it), {})
    return {"nproc": nproc, "pinned_core": core, **child_env, "commit": _git_commit()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.CANONICAL_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    trace = bool(args.trace)
    # this process, the reference kernel and every child share one core
    cores = os.sched_getaffinity(0)
    core = min(cores)
    os.sched_setaffinity(0, {core})
    try:
        if not os.path.isfile(os.path.join(ROOT, "src", "laddyn", "cli.py")):
            raise BenchError(f"no laddyn sources under {os.path.join(ROOT, 'src')}")
        golden = workloads.load_golden()
        shutil.rmtree(SCRATCH, ignore_errors=True)
        out = os.path.join(SCRATCH, "out")
        job = workloads.make_job(args.workload, args.seed, out)
        records, setup = run_loop(job, out, args.seconds, trace, golden)
        iterations = _iterations(records)
        for i, it in enumerate(iterations):
            for problem in it["problems"]:
                print(f"iteration {i}: {problem}", file=sys.stderr)
        metrics = per_layer_metrics(records) if trace else end_to_end_metrics(job, records, setup)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)

    failed = sum(1 for it in iterations if it["problems"])
    print("env: " + json.dumps(_environment(iterations, len(cores), core), sort_keys=True))
    print(f"workload {job.workload} seed {job.seed}: {len(iterations)} iterations, "
          f"{job.points} (d, t) points each, argv {[list(a) for a in job.argvs]}")
    if not trace:
        ok = [it for it in iterations if not it["problems"]]
        for label, values in (("core speed / reference", [it["scale"] for it in ok]),
                              ("cpu_s", [it["cpu_s"] for it in ok]),
                              ("ref_cpu_s", [it["cpu_s"] * it["scale"] for it in ok]),
                              ("setup_s", setup)):
            print(f"{label} samples in run order (n={len(values)}): "
                  + " ".join(f"{v:.4f}" for v in values))
    print(f"failed_ratio: {failed}/{len(iterations)} = {failed / len(iterations):.6g} ratio")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value!r} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(iterations),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
