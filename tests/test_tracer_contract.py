"""The per-layer tracer in perfbench/ wraps laddyn functions by name.

This checks that every name it wraps still exists, and that a traced run
records the spans of the layers it names.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    # tracing.py imports only the standard library at load time
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced():
    return [(mod, fn) for mod, fns in _load_tracing().TRACED.items() for fn in fns]


@pytest.mark.parametrize("mod_name, fn_name", _traced())
def test_traced_name_is_a_laddyn_callable(mod_name, fn_name):
    module = importlib.import_module(f"laddyn.{mod_name}")
    assert callable(getattr(module, fn_name, None)), f"laddyn.{mod_name}.{fn_name}"


def test_tracer_sees_the_traced_calls(tmp_path):
    # a traced name bound where the program does not look it up would record no span
    from laddyn import cli

    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main(["sweep", "--d-grid", "0.5:1:0.5", "--t-max", "2",
                         "--output", str(tmp_path / "sweep.csv")]) == cli.EXIT_OK
        assert cli.main(["events", "--d", "1", "--t-max", "10",
                         "--output", str(tmp_path / "events.csv")]) == cli.EXIT_OK
    finally:
        tracer.uninstall()
    spans = tracer.records()
    sweeps = [units for name, *_, units in spans if name == "detect.sweep"]
    assert sweeps == [{"rows": 2 * 201}]
    found = {name: units["events"] for name, *_, units in spans if name.startswith("detect.find_")}
    assert found == {"detect.find_transfer_events": 2, "detect.find_w_events": 5}
    assert tracing.aggregate(spans)["cli._write_table.rows"] == 2 * 201 + 2 + 2 + 5


def test_verify_builds_one_hamiltonian_per_d():
    # the checks of a d read one H and one propagator, and evolution_composition
    # builds the one other propagator; 5 builds and 3 propagators per d before
    from laddyn import cli

    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main(["verify", "--d", "1", "--t-max", "2"]) == cli.EXIT_OK
    finally:
        tracer.uninstall()
    calls = tracing.aggregate(tracer.records())
    assert calls["model.build_hamiltonian.calls"] == 1
    assert calls["dynamics.make_propagator.calls"] == 2
