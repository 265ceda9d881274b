"""Closed-form solution layer for the Bell-seeded ladder evolution.

Everything here is exact algebra in the coupling strength D and time t:
the derived spectral scalars (omega, mu, nu), the two complex envelope
functions eta and xi that carry the full one-excitation dynamics, the
pairwise concurrence and two-point correlation formulas, and the event
times (entanglement transfer, W-state emergence).

Valid for D > 0 only; xi carries a 1/D^2 prefactor, so D = 0 is routed to
the numeric propagator instead of implementing the removable limit.

All time-dependent functions accept a scalar or an ndarray of times.
"""

from __future__ import annotations

import enum
import math
import sys
from typing import NamedTuple

import numpy as np

from .errors import DomainError, ValidationError
from .linalg import check_sites


class SpectralParams(NamedTuple):
    """Derived scalars for a given coupling strength d (all dimensionless)."""

    d: float
    omega: float
    mu: float
    nu: float


class PairClass(enum.Enum):
    """Observable class of an unordered site pair.

    The initially entangled rung (1,2) and the initially empty rung (3,4)
    each form their own class; the four remaining pairs behave identically
    and are classed together as legs.
    """

    FIRST_RUNG = "first_rung"
    LAST_RUNG = "last_rung"
    LEG = "leg"


def classify_pair(p: int, q: int) -> PairClass:
    """Total map from unordered site pairs to their observable class."""
    pair = frozenset(check_sites(p, q))
    if pair == frozenset((1, 2)):
        return PairClass.FIRST_RUNG
    if pair == frozenset((3, 4)):
        return PairClass.LAST_RUNG
    return PairClass.LEG


def spectral_params(d: float) -> SpectralParams:
    """omega = sqrt(1+d^2), mu = sqrt(2+d^2+2*omega), nu = d^2/mu.

    nu is evaluated through the exact identity mu*nu = d^2 rather than the
    subtractive square root, which cancels catastrophically for small d.
    Raises DomainError outside about 1.5e-154 <= d <= 5.6e102: d must be
    > 0 and d^2 a normal float, below which nu underflows and eta_xi divides
    by zero, and omega*d^2, the prefactor of xi in eta_xi, must be finite,
    above which |eta|^2 + |xi|^2 = 4 fails (by 4.0 at d = 1e103).
    """
    d = float(d)
    if not d > 0.0:
        raise DomainError(
            f"closed forms need d > 0 (got {d}); use the numeric propagator "
            "in laddyn.dynamics for d = 0"
        )
    omega = math.sqrt(1.0 + d * d)
    mu = math.sqrt(2.0 + d * d + 2.0 * omega)
    nu = d * d / mu
    # om * d * d in the order eta_xi evaluates it
    if not (sys.float_info.min <= d * d and math.isfinite(omega * d * d)):
        raise DomainError(
            f"closed forms need d*d to be a normal float and omega*d*d finite, about "
            f"1.5e-154 <= d <= 5.6e102 (got {d})"
        )
    return SpectralParams(d=d, omega=omega, mu=mu, nu=nu)


def eta_xi(t, d: float):
    """Complex envelopes (eta, xi) of the evolved one-excitation state.

    The evolved state is eta/(2*sqrt2) on (|1000>+|0100>) plus
    xi/(2*sqrt2) on (|0010>+|0001>), so |eta|^2 + |xi|^2 = 4 at all times,
    with eta(0) = 2 and xi(0) = 0.
    """
    sp = spectral_params(d)
    om, mu, nu = sp.omega, sp.mu, sp.nu
    t = np.asarray(t, dtype=float)
    cm, cn = np.cos(mu * t / 2), np.cos(nu * t / 2)
    sm, sn = np.sin(mu * t / 2), np.sin(nu * t / 2)
    eta = cm + cn - (1j / om) * ((om + om * om) / mu * sm + (om - om * om) / nu * sn)
    xi = (-(1j + d) / (om * d * d)) * (
        1j * d * d * (cm - cn) + (om + 1.0) * nu * sm + (om - 1.0) * mu * sn
    )
    if t.ndim == 0:
        return complex(eta), complex(xi)
    return eta, xi


def concurrence_formula(pair_class: PairClass, t, d: float):
    """Pairwise concurrence of the evolved state, by pair class.

    cos^2((mu+nu)t/4) on the first rung, sin^2 of the same argument on the
    last rung, and |sin((mu+nu)t/2)|/2 on every leg-class pair.
    """
    sp = spectral_params(d)
    s = sp.mu + sp.nu
    t = np.asarray(t, dtype=float)
    if pair_class is PairClass.FIRST_RUNG:
        out = np.cos(s * t / 4.0) ** 2
    elif pair_class is PairClass.LAST_RUNG:
        out = np.sin(s * t / 4.0) ** 2
    elif pair_class is PairClass.LEG:
        out = 0.5 * np.abs(np.sin(s * t / 2.0))
    else:
        raise ValidationError(f"unknown pair class {pair_class!r}")
    return float(out) if out.ndim == 0 else out


_AXES = ("xx", "yy", "zz")


def correlation_formula(pair_class: PairClass, axes: str, t, d: float):
    """Tabulated equal-axis two-point correlation <S^a_p S^a_q>.

    The leg-class xx/yy entry is the tabulated form sin((mu+nu)t/2)/8.
    The exact evolved state carries an extra relative phase between the
    two envelopes on leg-class pairs, so numeric expectations are compared
    against this entry rather than assumed equal (see the verify report).
    """
    if axes not in _AXES:
        raise ValidationError(f"axes must be one of {_AXES}, got {axes!r}")
    sp = spectral_params(d)
    s = sp.mu + sp.nu
    t = np.asarray(t, dtype=float)
    if pair_class is PairClass.FIRST_RUNG:
        out = -0.25 * np.cos(s * t / 2.0) if axes == "zz" else 0.25 * np.cos(s * t / 4.0) ** 2
    elif pair_class is PairClass.LAST_RUNG:
        out = 0.25 * np.cos(s * t / 2.0) if axes == "zz" else 0.25 * np.sin(s * t / 4.0) ** 2
    elif pair_class is PairClass.LEG:
        out = np.zeros_like(t) if axes == "zz" else 0.125 * np.sin(s * t / 2.0)
    else:
        raise ValidationError(f"unknown pair class {pair_class!r}")
    return float(out) if out.ndim == 0 else out


_LEG_AXES = ("xx", "yy", "xy", "yx")


def leg_correlation(axes: str, t, d: float):
    """Exact transverse two-point correlation <S^a_p S^b_q> on a leg-class pair.

    These are Re and Im of conj(eta) xi / 16, whose phase depends on d only,
    through the (1j + d) factor of xi.  With s = mu + nu and
    omega = sqrt(1 + d^2): chi_xx = chi_yy = -(d/omega) sin(s t/2)/8 and
    chi_xy = -chi_yx = (1/omega) sin(s t/2)/8, for p on the first rung and
    q on the last (swapping p and q swaps xy and yx).  chi_xx^2 + chi_xy^2
    is the square of the tabulated correlation_formula entry, which drops
    the phase.
    """
    if axes not in _LEG_AXES:
        raise ValidationError(f"axes must be one of {_LEG_AXES}, got {axes!r}")
    sp = spectral_params(d)
    s = sp.mu + sp.nu
    t = np.asarray(t, dtype=float)
    scale = {"xx": -sp.d, "yy": -sp.d, "xy": 1.0, "yx": -1.0}[axes] / sp.omega
    out = scale * np.sin(s * t / 2.0) / 8.0
    return float(out) if out.ndim == 0 else out


def _check_event_index(n):
    """n as an int, or an integer ndarray of indices as it is; each must be >= 0."""
    if isinstance(n, np.ndarray) and n.dtype.kind in "iu":
        if np.any(n < 0):
            raise ValidationError(f"event indices n must be non-negative, got {n.min()}")
        return n
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise ValidationError(f"event index n must be a non-negative integer, got {n!r}")
    return int(n)


#: largest n for which (2n+1)*_event_time_base(d) is exact: 2n+1 <= 31
#: fits in the five mantissa bits the base leaves clear
EXACT_N_MAX = 15


def _event_time_base(d: float) -> float:
    """pi/(mu+nu) rounded to 48 mantissa bits.

    Clearing the last five bits makes every odd multiple (2n+1)*base exact
    in double precision for n <= EXACT_N_MAX, so the ratio t(n)/t(0) is
    exactly the odd integer.  The perturbation is below 4e-15 relative,
    orders of magnitude under every comparison tolerance in the suite.
    """
    sp = spectral_params(d)
    frac, exp = math.frexp(math.pi / (sp.mu + sp.nu))
    return math.ldexp(round(math.ldexp(frac, 48)), exp - 48)


def w_times(d: float, n):
    """n-th time at which the evolved state is a W state: (2n+1)*pi/(mu+nu).

    n is an int, or an integer ndarray that gives an array of times with the
    bits of each int n.
    """
    n = _check_event_index(n)
    return (2 * n + 1) * _event_time_base(d)


def transfer_times(d: float, n):
    """n-th time of complete entanglement transfer to the last rung.

    Equals (2n+1)*2*pi/(mu+nu); evaluated as 2*w_times so the documented
    ratio t_w = t_tr/2 is exact in floating point as well.  n is an int or
    an integer ndarray, as in w_times.
    """
    return 2.0 * w_times(d, n)
