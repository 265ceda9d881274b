"""Exact spectral time evolution and one-excitation amplitude extraction.

The Hilbert space is 16-dimensional, so the propagator is built from a
full eigendecomposition and every time point is evaluated exactly; there
is no integrator and no step-to-step error accumulation.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from typing import NamedTuple

import numpy as np

from .errors import SectorLeakageError, ValidationError
from .linalg import (
    DIM,
    N_SITES,
    ONE_PARTICLE_INDICES,
    check_hermitian,
    check_positive,
    require_normalized,
)

DEFAULT_LEAKAGE_TOL = 1e-10

#: Most (d, t) points one command may evaluate.  `evolve`, `sweep` and
#: `verify` evolve their grids in blocks of at most BLOCK_ROWS points
#: (evolved_blocks) and compute on one block at a time, so besides the time
#: grid itself (8 B per point) they hold one block.  The `events` scan evolves
#: only the grid points near the closed-form event times, in blocks of at most
#: BLOCK_ROWS, without holding the grid, and keeps one (lo, hi) time bracket
#: per event candidate.  time_grid_points checks the count, the number of d
#: values times the points per grid, before any array is allocated.
MAX_GRID_POINTS = 1_000_000

#: time points evolved, computed or written per block.  A block's stack of 16
#: complex amplitudes per point takes 500 * 256 B = 125 KiB, below glibc's
#: default 128 KiB mmap threshold, so the per-block temporaries are reused from
#: the heap instead of being mapped, page-faulted and unmapped for each block.
BLOCK_ROWS = 500

#: S^z_tot sector of each basis state, its number of up spins (0..N_SITES)
_SECTOR_OF = np.array([bin(i).count("1") for i in range(DIM)])
#: row k marks the basis states of sector k
_SECTOR_ROWS = _SECTOR_OF == np.arange(N_SITES + 1)[:, None]
#: the basis states outside the one-excitation sector
_SECTOR_MASK = _SECTOR_OF != 1

#: most weight an eigenvector may have outside its main S^z_tot sector
#: before make_propagator rebuilds the eigensystem sector by sector
MIXING_TOL = 1e-12


class Propagator(NamedTuple):
    """H's ascending eigenvalues and orthonormal eigenvectors, and psi0's coefficients in them."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    coefficients: np.ndarray


def _sector_eig(h: np.ndarray, w: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(w, v), or the eigensystem of h's S^z_tot blocks where v mixes sectors h does not couple.

    Particle-hole symmetry makes the 1- and 3-excitation sectors of the
    ladder iso-spectral, and eigh of the whole 16x16 h may return a
    degenerate pair mixed across them (1.15e-2 of one eigenvector's weight
    at d = 65.43729032048088); the pair's eigenvalues differ by roundoff,
    so an evolved state leaks out of its sector linearly in t.  Where h has
    no element between sectors and some eigenvector has more than
    MIXING_TOL of its weight outside one sector, each diagonal block (sizes
    1, 4, 6, 4, 1) is diagonalized on its own, so every eigenvector lies in
    one sector.  Anywhere else (w, v) is returned as it is, with its bits.
    """
    if h.shape != (DIM, DIM) or np.any(h[_SECTOR_OF[:, None] != _SECTOR_OF]):
        return w, v
    weights = _SECTOR_ROWS @ (v.real ** 2 + v.imag ** 2)
    if not np.max(weights.sum(axis=0) - weights.max(axis=0)) > MIXING_TOL:
        return w, v
    values = np.empty(DIM)
    vectors = np.zeros((DIM, DIM), dtype=complex)
    start = 0
    for rows in _SECTOR_ROWS:
        idx = np.flatnonzero(rows)
        cols = slice(start, start + idx.size)
        values[cols], vectors[idx, cols] = np.linalg.eigh(h[np.ix_(idx, idx)])
        start = cols.stop
    order = np.argsort(values, kind="stable")
    return values[order], vectors[:, order]


def make_propagator(h, psi0) -> Propagator:
    """Diagonalize h and expand psi0 in its eigenbasis.

    A 16x16 h that conserves S^z_tot gets eigenvectors that each lie in
    one sector (_sector_eig).
    """
    h = check_hermitian(h)
    w, v = _sector_eig(h, *np.linalg.eigh(h))
    psi0 = require_normalized(psi0)
    if psi0.shape[0] != v.shape[0]:
        raise ValidationError(
            f"state length {psi0.shape[0]} does not match matrix size {v.shape[0]}"
        )
    return Propagator(w, v, v.conj().T @ psi0)


def evolve(prop: Propagator, t: float) -> np.ndarray:
    """State at time t: sum_i c_i exp(-i E_i t) |E_i>.  Negative t reverses time."""
    if not np.isfinite(t):
        raise ValidationError(f"time must be finite, got {t}")
    phases = np.exp(-1j * prop.eigenvalues * float(t))
    return prop.eigenvectors @ (phases * prop.coefficients)


def evolve_each(prop: Propagator, times) -> np.ndarray:
    """States at many times, shape (len(times), dim): one call per time of this module's evolve.

    Not evolve_states: the events' residuals, fidelities and checks are pinned
    to evolve's bits, and like a one-row product it takes numpy's vector path,
    whose bits can differ from a row of a product of two or more rows.
    """
    return np.array([evolve(prop, t) for t in times]).reshape(-1, DIM)


def evolve_states(prop: Propagator, times) -> np.ndarray:
    """States at many times at once, shape (len(times), dim)."""
    ts = np.asarray(times, dtype=float)
    if not np.all(np.isfinite(ts)):
        raise ValidationError("all times must be finite")
    # exp(-i x) as cos x - i sin x, written into one array: the bits of
    # np.exp(-1j * x), without its complex temporaries
    x = np.outer(ts, prop.eigenvalues)
    phases = np.empty(x.shape, dtype=complex)
    np.cos(x, out=phases.real)
    np.sin(x, out=phases.imag)
    np.negative(phases.imag, out=phases.imag)
    phases *= prop.coefficients
    return phases @ prop.eigenvectors.T


def evolved_blocks(prop: Propagator, ts: np.ndarray) -> Iterator[tuple[slice, np.ndarray]]:
    """(rows, states) of the grid ts in the fewest equal blocks of at most BLOCK_ROWS rows.

    Each block is evolved in its own evolve_states product when it is asked
    for.  A row of a product of two or more rows has the bits of the same row
    of the whole-grid product; a one-row product takes numpy's vector path and
    may differ, and equal blocks have one row only when the grid has.
    """
    n_blocks = -(-len(ts) // BLOCK_ROWS)
    for k in range(n_blocks):
        rows = slice(len(ts) * k // n_blocks, len(ts) * (k + 1) // n_blocks)
        yield rows, evolve_states(prop, ts[rows])


def grid_points(start: float, stop: float, step: float) -> int:
    """Point count of the inclusive grid start, start+step, ... up to stop (within roundoff).

    Raises ValidationError when the count exceeds MAX_GRID_POINTS.
    """
    span = (stop - start) / step + 1e-9
    if not span < MAX_GRID_POINTS:
        raise ValidationError(f"grid from {start:g} to {stop:g} in steps of {step:g} has more "
                              f"than {MAX_GRID_POINTS} points")
    return math.floor(span) + 1


def time_grid_points(t_max: float, dt: float, n_d: int = 1) -> int:
    """Point count of time_grid(t_max, dt), with its checks, without building it.

    n_d grids of that count, one per d value, must fit in MAX_GRID_POINTS.
    """
    check_positive("dt", dt)
    check_positive("t_max", t_max)
    n_points = grid_points(0.0, t_max, dt)
    if n_d * n_points > MAX_GRID_POINTS:
        raise ValidationError(f"grid of {n_d} d values x {n_points} times has more than "
                              f"{MAX_GRID_POINTS} points")
    return n_points


def time_grid(t_max: float, dt: float, n_d: int = 1) -> np.ndarray:
    """Inclusive grid 0, dt, 2 dt, ... up to t_max (within roundoff); n_d as in time_grid_points."""
    return dt * np.arange(time_grid_points(t_max, dt, n_d))


def sector_leakage(psi) -> float:
    """Probability weight outside the one-excitation sector; 0.0 for an empty stack."""
    outside = np.asarray(psi, dtype=complex)[..., _SECTOR_MASK]
    # re^2 + im^2 rather than abs()**2, which takes a hypot per amplitude
    return float(np.sum(outside.real ** 2 + outside.imag ** 2, axis=-1).max(initial=0.0))


def one_particle_amplitudes(psi) -> np.ndarray:
    """The four site amplitudes b_1..b_4 of a sector-confined state.

    Raises SectorLeakageError if the weight outside the sector exceeds
    DEFAULT_LEAKAGE_TOL, which signals a wrong Hamiltonian or a corrupted state.
    """
    psi = np.asarray(psi, dtype=complex)
    if psi.shape[-1] != DIM:
        raise ValidationError(f"state must have {DIM} amplitudes, got {psi.shape[-1]}")
    leaked = sector_leakage(psi)
    if leaked > DEFAULT_LEAKAGE_TOL:
        raise SectorLeakageError(leaked, DEFAULT_LEAKAGE_TOL)
    return psi[..., list(ONE_PARTICLE_INDICES)]
