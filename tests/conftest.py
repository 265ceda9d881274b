import os
from pathlib import Path

import numpy as np
import pytest

from laddyn import dynamics, model

SRC = Path(__file__).resolve().parents[1] / "src"


def src_env(**extra: str) -> dict[str, str]:
    """os.environ with extra, and src first on PYTHONPATH, for a child that imports laddyn."""
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))


def evolved(d: float, t: float) -> np.ndarray:
    return dynamics.evolve(model.propagator(d), t)


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


def random_state(rng, dim: int = 16) -> np.ndarray:
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)


def random_hermitian(rng, n: int) -> np.ndarray:
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (a + a.conj().T) / 2


def state_with_marginal(z) -> np.ndarray:
    """The four-qubit state whose (1,2) marginal is z z^dagger / tr(z z^dagger).

    z has 4 rows and at most 4 columns; amplitude 4a + i is z[a, i], so a
    mixed two-qubit state reaches concurrence_series as a stack of states.
    """
    z = np.asarray(z, dtype=complex).reshape(4, -1)
    psi = np.zeros((4, 4), dtype=complex)
    psi[:, :z.shape[1]] = z
    return psi.reshape(16) / np.linalg.norm(psi)
