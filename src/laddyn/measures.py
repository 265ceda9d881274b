"""Numeric observables of evolved states.

Wootters concurrence (the full route on a pair's reduced state of a
stack of states, and the one-excitation shortcut 2|b_p b_q|), two-point
spin correlations, and total-spin expectation values.  Everything is a
pure function; the *_series variants evaluate a whole stack of states at
once and share the scalar code path.
"""

from __future__ import annotations

import functools

import numpy as np

from . import model
from .errors import NumericalFailureError, ValidationError
from .linalg import N_SITES, check_sites, pair_marginal_factors, require_normalized

#: sigma_y (x) sigma_y is the real anti-diagonal (-1, 1, 1, -1), so M @ (sy (x) sy)
#: is M with its columns reversed and signed: M[..., ::-1] * _YY_SIGNS
_YY_SIGNS = np.array([-1.0, 1.0, 1.0, -1.0])

#: relative rank cutoff for density-matrix eigenvalues (trace is 1)
_RANK_TOL = 64.0 * np.finfo(float).eps

DENSITY_TOL = 1e-10
CLAMP_LIMIT = 1e-9


def _wootters_from_factors(z) -> np.ndarray:
    """Concurrence for a stack of factors z with rho = z z^dagger.

    The Wootters lambdas are the singular values of the complex symmetric
    matrix z^T (sy (x) sy) z, whose squared spectrum equals that of
    rho (sy (x) sy) rho* (sy (x) sy); the factored form avoids squaring and
    keeps full precision at rank-deficient rho.  The product with sy (x) sy
    is a signed column permutation, with the bits of the dense matmul.
    """
    w = (z.swapaxes(-1, -2)[..., ::-1] * _YY_SIGNS) @ z
    lam = np.linalg.svd(w, compute_uv=False)  # descending
    raw = lam[..., 0] - lam[..., 1:].sum(axis=-1)
    # negative raw values are ordinary (separable mixed states); the max
    # with 0 is part of the definition.  Only an excess above 1 is numerical.
    if np.any(raw > 1.0 + CLAMP_LIMIT):
        raise NumericalFailureError(
            f"concurrence {np.max(raw)} exceeds 1 beyond {CLAMP_LIMIT:.0e}"
        )
    return np.clip(raw, 0.0, 1.0)


def _concurrence_from_rhos(rhos: np.ndarray) -> np.ndarray:
    """Concurrence of a stack of 4x4 density matrices, each checked first; none for none."""
    herm_dev = np.max(np.abs(rhos - rhos.conj().swapaxes(-1, -2)), initial=0.0)
    if herm_dev > DENSITY_TOL:
        raise ValidationError(f"density matrix is not Hermitian: deviation {herm_dev:.3e}")
    tr_dev = np.max(np.abs(np.trace(rhos, axis1=-2, axis2=-1) - 1.0), initial=0.0)
    if tr_dev > DENSITY_TOL:
        raise ValidationError(f"density matrix trace deviates from 1 by {tr_dev:.3e}")
    w, v = np.linalg.eigh(rhos)
    if np.min(w, initial=0.0) < -DENSITY_TOL:
        raise ValidationError(
            f"density matrix is not positive semidefinite: eigenvalue {np.min(w):.3e}"
        )
    w = np.where(w < _RANK_TOL, 0.0, w)  # noise-level eigenvalues are exact zeros
    z = v * np.sqrt(w)[..., None, :]
    return _wootters_from_factors(z)


def concurrence_one_particle(amps, p: int, q: int):
    """Shortcut 2|b_p b_q| valid for one-excitation states; accepts stacks."""
    check_sites(p, q)
    b = np.asarray(amps, dtype=complex)
    if b.shape[-1] != N_SITES:
        raise ValidationError(f"need {N_SITES} site amplitudes, got {b.shape[-1]}")
    out = 2.0 * np.abs(b[..., p - 1] * b[..., q - 1])
    return float(out) if out.ndim == 0 else out


def concurrence_series(states, p: int, q: int) -> np.ndarray:
    """Full Wootters concurrence of pair (p,q) for a stack of pure states.

    The one full route, on the pair's reduced density matrices; an
    unnormalized state fails their trace check.  Concurrence is symmetric in
    the pair, so it is evaluated on the sorted pair and (q,p) gives the same
    bits as (p,q).
    """
    a = pair_marginal_factors(states, *sorted(check_sites(p, q)))
    return _concurrence_from_rhos(a @ a.conj().swapaxes(-1, -2))


@functools.lru_cache(maxsize=None)
def _pair_product_operator(p: int, q: int, alpha: str, beta: str):
    """S^alpha_p S^beta_q as a phased permutation: op[i, perm[i]] == w[i].

    A product of Pauli/2 operators on distinct sites has exactly one nonzero
    per row, +-1/4 or +-i/4, so op @ psi == w * psi[perm] exactly.
    """
    # different sites commute, so the symmetrized product equals the plain one
    op = model.spin_operator(p, alpha) @ model.spin_operator(q, beta)
    assert np.all(np.count_nonzero(op, axis=1) == 1)
    perm = np.argmax(op != 0, axis=1)
    w = op[np.arange(op.shape[0]), perm]
    perm.flags.writeable = False
    w.flags.writeable = False
    return perm, w


def correlation_series(states, p: int, q: int, alpha: str, beta: str) -> np.ndarray:
    """<S^alpha_p S^beta_q> for a stack of states; must be real to roundoff."""
    check_sites(p, q)
    perm, w = _pair_product_operator(p, q, alpha, beta)
    psi = np.asarray(states, dtype=complex)
    vals = np.einsum("...i,...i->...", psi.conj(), psi[..., perm] * w)
    worst_imag = float(np.max(np.abs(vals.imag), initial=0.0))  # 0.0 for no states
    if worst_imag > 1e-10:
        raise NumericalFailureError(
            f"correlation <S^{alpha}_{p} S^{beta}_{q}> has imaginary part {worst_imag:.3e}"
        )
    return vals.real


def two_point_correlation(psi, p: int, q: int, alpha: str, beta: str) -> float:
    """Two-point correlation <S^alpha_p S^beta_q> of a normalized state."""
    psi = require_normalized(psi)
    return float(correlation_series(psi[None], p, q, alpha, beta)[0])


def total_spin_series(states, alpha: str) -> np.ndarray:
    """<sum_p S^alpha_p> for a stack of states.

    S^z_tot is diagonal and is contracted on its diagonal, with the bits of
    the dense contraction; S^x_tot and S^y_tot are contracted dense.
    """
    op = model.total_spin_operator(alpha)
    psi = np.asarray(states, dtype=complex)
    if alpha == "z":
        return np.einsum("...j,...j->...", psi.conj() * op.diagonal().real, psi).real
    return np.einsum("...i,ij,...j->...", psi.conj(), op, psi).real
