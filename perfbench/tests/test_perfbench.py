"""Tests of the benchmark itself: output checks, tracing, seeds and metric names.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def _tiny_evolve(out: str) -> workloads.Job:
    argv = ["evolve", "--d", "0.6", "--t-max", "1", "--format", "json",
            "--output", os.path.join(out, "evolve.json")]
    return workloads.Job("evolve_json", 0, (argv,), {"evolve.json": 0.6}, 101, canonical=True)


@pytest.fixture
def tiny(tmp_path):
    out = str(tmp_path / "out")
    job = _tiny_evolve(out)
    os.makedirs(out)
    assert subprocess.run(
        [sys.executable, "-m", "laddyn", *job.argvs[0]], cwd=ROOT, env=run._child_env(),
        capture_output=True, timeout=60).returncode == 0
    golden = {"evolve_json": {"evolve.json": workloads.sha256_file(os.path.join(out, "evolve.json"))}}
    shutil.rmtree(out)
    return job, out, golden


def test_golden_hash_match_passes_and_corrupted_hash_fails(tiny):
    job, out, golden = tiny
    assert run.run_iteration(job, out, golden)["problems"] == []
    bad = {"evolve_json": {"evolve.json": "0" * 64}}
    problems = run.run_iteration(job, out, bad)["problems"]
    assert len(problems) == 1 and "sha256" in problems[0]


def test_nonzero_exit_is_a_failure(tmp_path):
    out = str(tmp_path / "out")
    job = workloads.Job("evolve_json", 0, (["evolve", "--t-max", "1", "--output",
                                             os.path.join(out, "evolve.json")],),
                        {"evolve.json": 0.6}, 101, canonical=True)
    rec = run.run_iteration(job, out, {})
    assert rec["returncodes"] == [2]
    assert rec["problems"] == ["evolve exited 2"]


def test_failed_verify_summary_is_a_failure(tmp_path):
    job = workloads.make_job("verify_default", 0, str(tmp_path))
    assert workloads.check_outputs(job, str(tmp_path), [0], "summary: 127/128 checks passed\n", {})
    assert not workloads.check_outputs(job, str(tmp_path), [0], workloads.VERIFY_SUMMARY + "\n", {})


def test_smoke_run_emits_every_metric_with_its_unit(tiny):
    job, out, golden = tiny
    spec = _spec()
    t0 = time.monotonic()
    records, setup = run.run_loop(job, out, 0.0, False, golden)
    e2e = run.end_to_end_metrics(job, records, setup)
    traced, _ = run.run_loop(job, out, 0.0, True, golden)
    layers = run.per_layer_metrics(traced)
    assert time.monotonic() - t0 < 60
    assert {n: u for n, (_, u) in e2e.items()} == {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert {n: u for n, (_, u) in layers.items()} == {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert all(value > 0 for value, _ in e2e.values())
    assert layers["cli._write_table.calls"][0] == 1
    assert layers["cli._write_table.rows"][0] == 101
    assert layers["measures.concurrence_series.states"][0] == 6 * 101


def test_core_speed_measures_and_stops_the_reference_kernel():
    def spin():
        t_end = time.process_time() + 0.2
        while time.process_time() < t_end:
            pass
        return "done"

    with run.CoreSpeed() as speed:
        result, scale = speed.measure(spin)
    assert result == "done"
    assert 0.05 < scale < 20
    assert speed.proc.poll() is not None
    with pytest.raises(RuntimeError):
        with run.CoreSpeed() as failing:
            raise RuntimeError("the measured work failed")
    assert failing.proc.poll() is not None


def test_wrappers_patch_every_binding_and_record_nesting():
    from laddyn import dynamics, linalg, measures, model

    tracer = tracing.Tracer()
    tracer.install()
    try:
        # measures looks pair_marginal_factors up in its own namespace
        assert measures.pair_marginal_factors is linalg.pair_marginal_factors
        assert measures.pair_marginal_factors.__wrapped__ is not None
        prop = dynamics.make_propagator(model.build_hamiltonian(model.ModelParams(d=0.6)),
                                        model.initial_state())
        states = dynamics.evolve_states(prop, [0.0, 0.5, 1.0])
        measures.concurrence_series(states, 1, 2)
    finally:
        tracer.uninstall()
    assert not hasattr(measures.pair_marginal_factors, "__wrapped__")
    spans = tracer.records()
    assert [s[0] for s in spans] == ["model.build_hamiltonian", "dynamics.make_propagator",
                                     "dynamics.evolve_states", "measures.concurrence_series",
                                     "linalg.pair_marginal_factors"]
    assert [s[3] for s in spans] == [-1, -1, -1, -1, 3]
    layers = tracing.aggregate(spans)
    assert layers["measures.concurrence_series.states"] == 3
    assert layers["dynamics.evolve_states.states"] == 3
    assert layers["linalg.pair_marginal_factors.calls"] == 1


def test_aggregate_self_time_and_refine_yield():
    spans = [
        ["detect.find_w_events", 0.0, 10.0, -1, {"events": 2}],
        ["dynamics.evolve", 1.0, 2.0, 0, None],
        ["dynamics.evolve", 3.0, 5.0, 0, None],
        ["measures.concurrence_series", 5.0, 9.0, 0, {"states": 1}],
        ["linalg.pair_marginal_factors", 6.0, 6.5, 3, None],
        ["dynamics.evolve", 11.0, 12.0, -1, None],
    ]
    layers = tracing.aggregate(spans)
    assert layers["detect.find_w_events.self_s"] == pytest.approx(3.0)
    assert layers["measures.concurrence_series.self_s"] == pytest.approx(3.5)
    assert layers["dynamics.evolve.self_s"] == pytest.approx(4.0)
    assert layers["dynamics.evolve.calls"] == 3
    assert layers["detect.refine_yield"] == pytest.approx(2 / 2)
    assert layers["cli._write_table.self_s"] == 0.0


def test_seeds_pick_inputs_deterministically(tmp_path):
    out = str(tmp_path)
    canon = workloads.make_job("events_scan", workloads.CANONICAL_SEED, out)
    assert list(canon.outputs.values()) == list(workloads.EVENTS_D_CANONICAL)
    assert workloads.make_job("evolve_json", 0, out).outputs == {"evolve.json": 0.6}
    for seed in range(1, 30):
        job = workloads.make_job("events_scan", seed, out)
        assert job == workloads.make_job("events_scan", seed, out)
        assert not job.canonical
        for d, band in zip(job.outputs.values(), workloads.EVENTS_D_BANDS):
            assert d in band
        assert workloads.make_job("evolve_json", seed, out).outputs["evolve.json"] in \
            workloads.EVOLVE_D_GRID
    assert workloads.make_job("sweep_csv", 7, out).canonical


def test_exits_nonzero_without_result_when_sources_are_missing(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify_default", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
