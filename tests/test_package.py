"""The package namespace: what `laddyn` exports, and what importing it does."""

import subprocess
import sys
import types

import laddyn

from conftest import src_env


def test_all_names_resolve_and_none_is_a_module():
    namespace = {}
    exec("from laddyn import *", namespace)  # an unresolved name raises here
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(laddyn.__all__)
    assert not [k for k, v in namespace.items() if isinstance(v, types.ModuleType)]


def test_import_makes_no_allocator_call():
    # the heap setting belongs to the process that runs a command (cli.main);
    # a library import must not reach the module that makes it
    code = "import sys, laddyn; print('laddyn.cli' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=src_env())
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


def test_retired_density_matrix_helpers_are_not_exported():
    # every full-route concurrence comes from a stack of states (concurrence_series)
    for name in ("wootters_concurrence", "partial_trace_to_pair"):
        assert name not in laddyn.__all__
        assert not hasattr(laddyn, name)


def test_coupling_graph_is_not_exported():
    # the ladder is two bond constants, model.RUNG_BONDS and model.LEG_BONDS;
    # no graph type or default graph is left to export
    for name in ("CouplingGraph", "DEFAULT_GRAPH"):
        assert name not in laddyn.__all__
        assert not hasattr(laddyn, name)
        assert not hasattr(laddyn.model, name)
    assert not hasattr(laddyn.model, "_check_bond")


def test_the_propagator_is_the_one_home_of_the_spectrum():
    # make_propagator calls numpy's eigh itself; no eigensystem type or wrapper is left
    for name in ("EigenSystem", "hermitian_eig"):
        assert name not in laddyn.__all__
        assert not hasattr(laddyn, name)
        assert not hasattr(laddyn.linalg, name)
    assert not hasattr(laddyn.linalg, "_as_matrix")
    assert laddyn.Propagator._fields == ("eigenvalues", "eigenvectors", "coefficients")
