"""The per-layer tracer in perfbench/ wraps laddyn functions by name.

This checks that every name it wraps still exists, without running it.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced():
    # tracing.py imports only the standard library at load time
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(mod, fn) for mod, fns in module.TRACED.items() for fn in fns]


@pytest.mark.parametrize("mod_name, fn_name", _traced())
def test_traced_name_is_a_laddyn_callable(mod_name, fn_name):
    module = importlib.import_module(f"laddyn.{mod_name}")
    assert callable(getattr(module, fn_name, None)), f"laddyn.{mod_name}.{fn_name}"
