"""Ladder model: spin operators, bond constants, Hamiltonian, initial state.

The model is four spin-1/2 sites on a triangular ladder: XX exchange of
strength J on the four rung bonds (a periodically closed 4-cycle) and a
z-axis antisymmetric (DM) coupling of strength D on the two horizontal
legs.  Energies are in units of J, times in units of hbar/J, and spin
operators are half the Pauli matrices.  J sets only the scale: H(J, D) =
J H(1, D/J), so a run at J > 0 is the J = 1 run at D/J with its times
scaled by J.

The DM term D*(S^x_i S^y_j - S^y_i S^x_j) changes sign when a leg bond
is traversed backwards, and nothing in the |amplitude|-level observables
can distinguish the two orientations.  The bond constants therefore
freeze the one orientation whose evolved amplitudes match the
closed-form envelopes eta/xi (the tests try all four, and `verify`
checks the amplitudes): legs run 1 -> 3 and 2 -> 4.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import dynamics
from .errors import ValidationError
from .linalg import DIM, N_SITES, ONE_PARTICLE_INDICES, basis_index, check_sites

# matrices are written in the local basis order (|0> = down, |1> = up)
# fixed by the package's bit convention, so S^z|1> = +|1>/2
_PAULI_HALF = {
    "x": np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex),
    "y": np.array([[0.0, 0.5j], [-0.5j, 0.0]], dtype=complex),
    "z": np.array([[-0.5, 0.0], [0.0, 0.5]], dtype=complex),
}
_ID2 = np.eye(2, dtype=complex)

AXES = ("x", "y", "z")


@dataclass(frozen=True)
class ModelParams:
    """The DM coupling strength d, in units of the rung exchange J."""

    d: float

    def __post_init__(self):
        if not np.isfinite(self.d) or self.d < 0.0:
            raise ValidationError(f"d must be finite and >= 0, got {self.d}")


#: XX rung bonds: the closed 4-cycle 1-2-3-4 (the order within a bond is irrelevant).
RUNG_BONDS = ((1, 2), (2, 3), (3, 4), (4, 1))
#: DM leg bonds, oriented 1 -> 3 and 2 -> 4: bond (i, j) fixes the sign of the
#: cross product in D * (S_i x S_j).
LEG_BONDS = ((1, 3), (2, 4))


@functools.lru_cache(maxsize=None)
def spin_operator(site: int, axis: str) -> np.ndarray:
    """16x16 embedding of the spin-1/2 operator (Pauli/2) at one site."""
    if axis not in AXES:
        raise ValidationError(f"axis must be one of {AXES}, got {axis!r}")
    check_sites(site)
    ops = [_ID2] * N_SITES
    ops[site - 1] = _PAULI_HALF[axis]
    out = ops[0]
    for op in ops[1:]:
        out = np.kron(out, op)
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=None)
def total_spin_operator(axis: str) -> np.ndarray:
    """Sum of the single-site spin operators along one axis."""
    out = sum(spin_operator(s, axis) for s in range(1, N_SITES + 1))
    out.flags.writeable = False
    return out


def build_hamiltonian(params: ModelParams) -> np.ndarray:
    """sum_RUNG_BONDS (SxSx + SySy) + D * sum_LEG_BONDS (SxSy - SySx), 16x16 Hermitian."""
    h = np.zeros((DIM, DIM), dtype=complex)
    for (i, j) in RUNG_BONDS:
        h += (
            spin_operator(i, "x") @ spin_operator(j, "x")
            + spin_operator(i, "y") @ spin_operator(j, "y")
        )
    for (i, j) in LEG_BONDS:
        h += params.d * (
            spin_operator(i, "x") @ spin_operator(j, "y")
            - spin_operator(i, "y") @ spin_operator(j, "x")
        )
    return h


def one_particle_hamiltonian(params: ModelParams) -> np.ndarray:
    """Restriction of the Hamiltonian to span{|1000>, |0100>, |0010>, |0001>}."""
    h = build_hamiltonian(params)
    idx = np.array(ONE_PARTICLE_INDICES)
    return h[np.ix_(idx, idx)]


def initial_state() -> np.ndarray:
    """Bell pair (|10> + |01>)/sqrt(2) on sites (1,2), vacuum |00> on (3,4)."""
    psi = np.zeros(DIM, dtype=complex)
    psi[basis_index((1, 0, 0, 0))] = 1.0 / np.sqrt(2.0)
    psi[basis_index((0, 1, 0, 0))] = 1.0 / np.sqrt(2.0)
    return psi


def propagator(d: float) -> dynamics.Propagator:
    """Spectral propagator of the initial state under H(d).

    The one factory for the evolution of the Bell-seeded ladder.
    """
    return dynamics.make_propagator(build_hamiltonian(ModelParams(d=d)), initial_state())

