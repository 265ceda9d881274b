"""Dense complex linear algebra shared by every other module.

Basis convention, fixed here once for the whole package: four qubits,
qubit 1 is the most significant bit, so a computational basis state
|s1 s2 s3 s4> sits at index 8*s1 + 4*s2 + 2*s3 + s4, with s = 1 meaning
spin up |1>.  The one-excitation sector is therefore spanned by the
indices 8, 4, 2, 1 (sites 1..4 in order).
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

N_SITES = 4
DIM = 2 ** N_SITES

#: basis index of the state with a single up-spin at site 1, 2, 3, 4
ONE_PARTICLE_INDICES = (8, 4, 2, 1)

HERMITICITY_TOL = 1e-12
NORMALIZATION_TOL = 1e-12


def basis_index(bits) -> int:
    """Index of |s1 s2 s3 s4> for a bit sequence like (1, 0, 0, 0)."""
    if len(bits) != N_SITES or any(b not in (0, 1) for b in bits):
        raise ValidationError(f"need {N_SITES} bits of 0/1, got {bits!r}")
    idx = 0
    for b in bits:
        idx = (idx << 1) | b
    return idx


def check_hermitian(m) -> np.ndarray:
    """Validate that m is square Hermitian within HERMITICITY_TOL, naming the worst entry."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValidationError(f"expected a matrix, got array of shape {a.shape}")
    if a.shape[0] != a.shape[1]:
        raise ValidationError(f"matrix is not square: shape {a.shape}")
    dev = np.abs(a - a.conj().T)
    worst = np.unravel_index(np.argmax(dev), dev.shape)
    if dev[worst] > HERMITICITY_TOL:
        i, j = worst
        raise ValidationError(
            f"matrix is not Hermitian: entry ({i},{j})={a[i, j]} vs "
            f"conj(({j},{i}))={np.conj(a[j, i])}, "
            f"deviation {dev[worst]:.3e} > {HERMITICITY_TOL:.0e}"
        )
    return a


def require_normalized(state) -> np.ndarray:
    """Validate that a state vector has unit norm within NORMALIZATION_TOL."""
    psi = np.asarray(state, dtype=complex)
    if psi.ndim != 1:
        raise ValidationError(f"expected a state vector, got shape {psi.shape}")
    dev = abs(np.vdot(psi, psi).real - 1.0)
    if dev > NORMALIZATION_TOL:
        raise ValidationError(f"state is not normalized: |norm^2 - 1| = {dev:.3e}")
    return psi


def check_positive(name: str, value: float) -> None:
    """Refuse a value that is not finite, then one that is not > 0, by its setting's name."""
    if not np.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value}")
    if not value > 0.0:
        raise ValidationError(f"{name} must be positive, got {value}")


def check_sites(*sites) -> tuple[int, ...]:
    """Validate site indices: integers (not bool) in 1..N_SITES, pairwise distinct.

    The one site and site-pair check of the package; returns the sites as
    plain ints, so numpy integers come out as int and nothing is truncated.
    """
    for s in sites:
        if isinstance(s, bool) or not isinstance(s, (int, np.integer)) or not 1 <= s <= N_SITES:
            raise ValidationError(f"site index must be an integer in 1..{N_SITES}, got {s!r}")
    if len(set(sites)) != len(sites):
        raise ValidationError(f"pair sites must differ, got {tuple(sites)}")
    return tuple([int(s) for s in sites])


def pair_marginal_factors(states, p: int, q: int) -> np.ndarray:
    """Factor A with rho_pq = A A^dagger, for a stack of states of shape (..., 16).

    Row index of A runs over the (p,q) subsystem basis with site p as the
    more significant bit; column index runs over the traced-out sites.
    """
    check_sites(p, q)
    psi = np.asarray(states, dtype=complex)
    if psi.shape[-1] != DIM:
        raise ValidationError(f"state must have {DIM} amplitudes, got {psi.shape[-1]}")
    lead = psi.shape[:-1]
    t = psi.reshape(lead + (2,) * N_SITES)
    rest = [s for s in range(1, N_SITES + 1) if s not in (p, q)]
    nl = len(lead)
    order = tuple(range(nl)) + tuple(nl + s - 1 for s in (p, q, *rest))
    return np.transpose(t, order).reshape(lead + (4, 4))

