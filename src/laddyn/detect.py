"""Event detection.

Locates entanglement-transfer events (all entanglement on the last rung)
and W-state events (all six pairwise concurrences equal to 1/2) in the
numeric evolution, refines each against the closed-form event structure,
and gives the closed-form W times behind the t_w curves.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from typing import NamedTuple

import numpy as np

from . import analytic, dynamics, measures, model
from .errors import ValidationError
from .linalg import check_positive
from .tables import ALL_PAIRS, LEG_CLASS_PAIRS
# the sweep table lives in tables; perfbench/tracing.py wraps it as detect.sweep,
# by name, so the name stays bound here until the benchmark's TRACED names it there
from .tables import sweep  # noqa: F401

TRANSFER = "transfer"
W_STATE = "w_state"

_REFINE_WIDTH = 1e-10

#: fewest coarse scan points per period 4 pi/(mu+nu) of C_{3,4}.  A transfer
#: bracket spans two steps, so at 3 points or fewer it can reach the roots of
#: sin((mu+nu)t/2) at the minima of C_{3,4} either side of a maximum.  Measured
#: at d = 1, 3 and 100: every transfer was found at each of 101 steps from 3.05
#: to 8 points per period, and 0 to 66 of the 68 transfers of d = 1 up to
#: t = 300 at 23 steps from 2.01 to 2.97 points; 4 leaves a third in reserve.
SCAN_POINTS_PER_PERIOD = 4

#: grid points evolved either side of each closed-form event time.  The grid
#: maxima of C_{3,4} = sin^2((mu+nu)t/4) lie within one step of a transfer
#: time and the sign changes of C_{1,2} - C_{3,4} = cos((mu+nu)t/2) within one
#: step of a W time, plateau ties and roots within roundoff of a grid point
#: included; each stencil reads one point either side, so two steps hold every
#: candidate of the whole grid.
_SCAN_WINDOW = 2


class EventRecord(NamedTuple):
    """One detected event with its closed-form prediction: a row of the events table."""

    kind: str
    n: int
    t_predicted: float
    t_detected: float
    residual: float
    fidelity: float | None = None


def w_fidelity(amps):
    """Overlap with the nearest member of the W family: (sum_j |b_j|)^2 / 4.

    The per-site phases of a W state are free, so the fidelity is maximized
    over them; the maximum is attained by aligning each phase with arg b_j,
    which gives this closed form.  A stack of amplitude rows gives an array
    of one fidelity per row.
    """
    sums = np.abs(np.asarray(amps, dtype=complex)).sum(axis=-1)
    # squared one float at a time: a scalar power is libm's pow, whose bits the
    # written fidelities are pinned to, and numpy's array square can differ from
    # it in the last bit
    if sums.ndim == 0:
        return sums.item() ** 2 / 4.0
    return np.array([s ** 2 / 4.0 for s in sums.tolist()])


def _local_maxima(c: np.ndarray) -> np.ndarray:
    """Indices of interior points not below either neighbour (transfer candidates)."""
    return np.flatnonzero((c[1:-1] >= c[:-2]) & (c[1:-1] >= c[2:])) + 1


def _sign_changes(diff: np.ndarray) -> np.ndarray:
    """Indices i where diff changes sign or touches zero on [i, i+1] (W candidates)."""
    # <= 0 keeps a root that lands exactly on a grid point; duplicates merge
    return np.flatnonzero(np.sign(diff[:-1]) * np.sign(diff[1:]) <= 0)


def _block_candidates(blocks) -> tuple[np.ndarray, np.ndarray]:
    """Grid indices of the _local_maxima of c and _sign_changes of diff, from (ks, c, diff) blocks.

    ks holds grid indices, c and diff the values at them, and the blocks, in
    order, make up one ascending run of points, each block dropped once it
    is scanned.  A stencil counts only where every point it reads was given:
    k - 1, k and k + 1 for a maximum at k, and k and k + 1 for a sign change
    at k, so the candidates are those of the whole grid that those points
    decide.  A block is scanned with the last two points before it
    prepended: the first interior point of that run is new, since the last
    point of a scanned run is never interior, and the first of its pairs was
    scanned with the run before.
    """
    no_points = np.empty(0, dtype=int)
    maxima, changes = [no_points], [no_points]
    tail = (no_points, np.empty(0), np.empty(0))
    for block in blocks:
        ks, c, diff = (np.concatenate(pair) for pair in zip(tail, block))
        # ks ascends, so both neighbours of a point are given where theirs are two apart
        m = _local_maxima(c)
        maxima.append(ks[m[ks[m + 1] - ks[m - 1] == 2]])
        x = _sign_changes(diff)
        changes.append(ks[x[(x >= len(tail[0]) - 1) & (ks[x + 1] - ks[x] == 1)]])
        tail = (ks[-2:], c[-2:], diff[-2:])
    return np.concatenate(maxima), np.concatenate(changes)


def _scan_indices(d: float, n_points: int, dt: float) -> Iterator[np.ndarray]:
    """The grid indices k < n_points within _SCAN_WINDOW steps of an event time, in blocks.

    Event times come from analytic.w_times and transfer_times, in time
    order: W events 2j and 2j + 1 either side of transfer j, at 4j + 1, 4j + 2
    and 4j + 3 times t_w(0).  The indices ascend and each is given once,
    where windows overlap too, so there are never more than the grid has.
    Blocks hold at most dynamics.BLOCK_ROWS indices, and at least two unless
    there is one in all: a row of an evolve_states product of two or more
    rows has the bits of the same row of the whole-grid product, and a
    one-row product may differ.
    """
    offsets = np.arange(-_SCAN_WINDOW, _SCAN_WINDOW + 1)
    chunk = dynamics.BLOCK_ROWS // 3  # j per chunk, three events each
    # the windows of j = n_j and later start past the last grid point
    n_j = int((n_points + _SCAN_WINDOW) * dt / (4.0 * analytic.w_times(d, 0))) + 1
    pending = np.empty(0, dtype=int)
    last = -1  # the largest index given so far
    for start in range(0, n_j, chunk):
        j = np.arange(start, min(start + chunk, n_j))
        times = np.column_stack((analytic.w_times(d, 2 * j), analytic.transfer_times(d, j),
                                 analytic.w_times(d, 2 * j + 1)))
        # a centre past n_points + _SCAN_WINDOW gives no index, and the clip
        # keeps the cast finite where dt is tiny beside the event times
        centres = np.rint(np.minimum(times.ravel() / dt, n_points + _SCAN_WINDOW)).astype(int)
        ks = centres[:, None] + offsets
        # the centres ascend, so the new points of a window are those past the
        # window before it
        ks = ks[(ks > np.concatenate(([last], centres[:-1] + _SCAN_WINDOW))[:, None])
                & (ks < n_points)]
        if ks.size:
            last = ks[-1]
        pending = np.concatenate((pending, ks))
        while len(pending) >= dynamics.BLOCK_ROWS + 2:
            yield pending[:dynamics.BLOCK_ROWS]
            pending = pending[dynamics.BLOCK_ROWS:]
    if len(pending) > dynamics.BLOCK_ROWS:
        yield pending[:len(pending) // 2]
        pending = pending[len(pending) // 2:]
    if pending.size:
        yield pending


def _scan_blocks(prop: dynamics.Propagator, index_blocks, dt: float) -> Iterator[tuple]:
    """(ks, C_{3,4}, C_{1,2} - C_{3,4}) by the shortcut 2|b_p b_q| at ks * dt, a block at a time."""
    for ks in index_blocks:
        # float(k) * dt, the bits of the grid's points.  The sector check raises
        # SectorLeakageError in any block where 2|b_p b_q| would not hold
        b = dynamics.one_particle_amplitudes(dynamics.evolve_states(prop, ks * dt))
        c_last = measures.concurrence_one_particle(b, 3, 4)
        yield ks, c_last, measures.concurrence_one_particle(b, 1, 2) - c_last


def _refined_roots(f, brackets: np.ndarray, width: float) -> tuple[np.ndarray, np.ndarray]:
    """(roots, brackets) of the (lo, hi) rows of brackets where f changes sign.

    All rows are bisected together; f maps an array of times to an array.
    Each row keeps the rules of a scalar bisection: an end where f is 0 is
    the root, and a row whose ends f gives the same sign has none.  Else the
    row is halved at 0.5 * (lo + hi), keeping the half over which f changes
    sign, until it is no wider than width, or its midpoint equals lo or hi
    (float resolution, so width 0 bisects to there), or f is 0 there; the
    root is that midpoint.
    """
    lo, hi = brackets[:, 0], brackets[:, 1]
    f_lo, f_hi = f(lo), f(hi)
    roots = np.where(f_lo == 0.0, lo, np.where(f_hi == 0.0, hi, np.nan))
    rows = np.flatnonzero((f_lo != 0.0) & (f_hi != 0.0) & ((f_lo > 0) != (f_hi > 0)))
    lo, hi, up = lo[rows], hi[rows], f_lo[rows] > 0
    while rows.size:
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        done = ~((hi - lo > width) & (mid != lo) & (mid != hi)) | (f_mid == 0.0)
        roots[rows[done]] = mid[done]
        above = (f_mid > 0) == up  # f keeps its sign at lo up to mid
        go = ~done
        rows, up = rows[go], up[go]
        lo, hi = np.where(above, mid, lo)[go], np.where(above, hi, mid)[go]
    found = ~np.isnan(roots)  # a row without a root holds NaN
    return roots[found], brackets[found]


def _widened_without_root(f, brackets: np.ndarray) -> np.ndarray:
    """brackets, with each (lo, hi) row over which f has no sign change widened by hi - lo.

    A W bracket is the scan step where the numeric C_{1,2} - C_{3,4} changes
    sign.  Where a root lies within roundoff of a grid point, as on a grid
    commensurate with the W spacing, the closed form can take the other sign
    there, and its root lies in the step before or after; the widened row,
    which starts no earlier than t = 0, holds it.  So a root can be found
    twice, from two rows, and both detections carry its n.  They lie within
    the refinement width of that root, and W events are 2 t_w(0) apart, so
    no other W detection comes between them in time order, where
    _merge_events keeps one.
    """
    lo, hi = brackets[:, 0], brackets[:, 1]
    f_lo, f_hi = f(lo), f(hi)
    stuck = (f_lo != 0.0) & (f_hi != 0.0) & ((f_lo > 0) == (f_hi > 0))
    step = hi[stuck] - lo[stuck]
    widened = brackets.copy()
    widened[stuck] = np.column_stack((np.maximum(lo[stuck] - step, 0.0), hi[stuck] + step))
    return widened


def _merge_events(events: list[EventRecord]) -> list[EventRecord]:
    """One record per closed-form index n of events of one kind, in time order.

    Of the detections of one n, the strictly smaller residual wins, else
    the earlier one.  All detections of one event lie within the refinement
    width of its root, and distinct events of one kind are at least t_w(0)
    apart, so in time order a repeated n is next to its first detection and
    comparing each record with the one before finds it.
    """
    events = sorted(events, key=lambda e: e.t_detected)
    merged: list[EventRecord] = []
    for ev in events:
        if merged and ev.n == merged[-1].n:
            if ev.residual < merged[-1].residual:
                merged[-1] = ev
        else:
            merged.append(ev)
    return merged


def _checked(prop: dynamics.Propagator, t_stars: np.ndarray, check) -> tuple[list, np.ndarray]:
    """check(t_stars, states, conc) of the roots' states and full-Wootters concurrences.

    check gives the EventRecords of the roots that pass, in root order, and
    the mask of those roots.
    """
    states = dynamics.evolve_each(prop, t_stars.tolist())
    conc = {pair: measures.concurrence_series(states, *pair) for pair in ALL_PAIRS}
    return check(t_stars, states, conc)


def _checked_events(prop: dynamics.Propagator, f, brackets: np.ndarray, t_max: float,
                    check) -> list[EventRecord]:
    """Events at the roots of f in the (lo, hi) rows of brackets, one per n, up to t_max.

    The brackets are taken dynamics.BLOCK_ROWS at a time.  Each one in which
    f changes sign is bisected to _REFINE_WIDTH in t, and the roots are
    checked together (_checked).  A root that fails is bisected on to float
    resolution and checked once more: a root up to 5e-11 off in t leaves a
    residual of up to the tested concurrences' slope, about d/2 near an
    event, times 5e-11, which exceeds tol = 1e-9 above d of about 40.  So
    every detection that passes lies within the refinement width of its
    root, and the events are of one kind, at least t_w(0) apart: the
    detections of one event carry one n and are neighbours in time order,
    where _merge_events keeps one.  An event is up to t_max when its
    closed-form time t_predicted is, the rule `verify` counts by; its root
    can lie past a t_max within roundoff of it.
    """
    events = []
    for k in range(0, len(brackets), dynamics.BLOCK_ROWS):
        t_stars, found = _refined_roots(f, brackets[k:k + dynamics.BLOCK_ROWS], _REFINE_WIDTH)
        checked, passed = _checked(prop, t_stars, check)
        events += checked
        if not passed.all():
            retried, _ = _refined_roots(f, found[~passed], 0.0)
            events += _checked(prop, retried, check)[0]
    return [ev for ev in _merge_events(events) if ev.t_predicted <= t_max]


def find_events(d: float, t_max: float, coarse_dt: float = 0.01,
                tol: float = 1e-9) -> list[EventRecord]:
    """Transfer and W events with t_predicted <= t_max, in time order, from one coarse scan.

    search_events on the propagator of d, which it builds once the closed forms accept d
    and before the search's other refusals.
    """
    analytic.spectral_params(d)
    return search_events(model.propagator(d), d, t_max, coarse_dt, tol)


def search_events(prop: dynamics.Propagator, d: float, t_max: float, coarse_dt: float,
                  tol: float) -> list[EventRecord]:
    """The events of find_events, on the propagator prop of d, from one coarse scan.

    Refuses, before any scan and in this order, a d outside the closed forms'
    domain (DomainError), a t_max or coarse_dt that dynamics.time_grid refuses,
    a coarse_dt with fewer than SCAN_POINTS_PER_PERIOD points per period
    4 pi/(mu+nu) of C_{3,4} and a tol not finite and > 0 (ValidationError).

    The candidates come from the grid 0, coarse_dt, ..., which runs two steps
    past t_max so that an event in the last step up to t_max still has a
    bracket, evaluated only near the closed-form event times (_scan_brackets)
    and kept as (lo, hi) time brackets: local maxima of C_{3,4} for
    find_transfer_events and sign changes of C_{1,2} - C_{3,4} for
    find_w_events, which refine and check them.  So the scan holds one
    block and the brackets, and the searches the brackets and their events.
    Events at the same time keep that order, transfers first.  Empty if
    t_max is below the first event.
    """
    sp = analytic.spectral_params(d)  # checks d is in the closed forms' domain
    # the point count of dynamics.time_grid, and two past it
    n_points = dynamics.time_grid_points(t_max, coarse_dt) + 2
    dt_max = 4.0 * math.pi / ((sp.mu + sp.nu) * SCAN_POINTS_PER_PERIOD)
    if coarse_dt > dt_max:
        raise ValidationError(
            f"a scan step of {coarse_dt:g} undersamples C_34 at d = {d:g}: it needs "
            f"{SCAN_POINTS_PER_PERIOD} points per period 4*pi/(mu+nu), so a step (--dt) "
            f"of at most {dt_max:.6g}")
    check_positive("tolerance", tol)
    # every scanned state passes the sector check before either search starts
    transfer_brackets, w_brackets = _scan_brackets(prop, d, n_points, coarse_dt)
    events = (find_transfer_events(prop, transfer_brackets, d, t_max, tol)
              + find_w_events(prop, w_brackets, d, t_max, tol))
    return sorted(events, key=lambda e: e.t_detected)


def _scan_brackets(prop: dynamics.Propagator, d: float, n_points: int,
                   coarse_dt: float) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) rows around each transfer and each W candidate of the coarse scan.

    The brackets of the whole grid k * coarse_dt, k < n_points, with only
    the points within _SCAN_WINDOW steps of an event time evolved
    (_scan_indices), at most dynamics.BLOCK_ROWS at a time and each through
    the sector check.  The whole grid is never held.
    """
    maxima, crossings = _block_candidates(
        _scan_blocks(prop, _scan_indices(d, n_points, coarse_dt), coarse_dt))
    return (np.column_stack(((maxima - 1) * coarse_dt, (maxima + 1) * coarse_dt)),
            np.column_stack((crossings * coarse_dt, (crossings + 1) * coarse_dt)))


# perfbench/tracing.py wraps these two by name and counts the evolve calls under them
def find_transfer_events(prop: dynamics.Propagator, brackets: np.ndarray, d: float,
                         t_max: float, tol: float) -> list[EventRecord]:
    """Transfer events: local maxima of C_{3,4} reaching 1 while all others vanish.

    brackets has one (lo, hi) row per local maximum of C_{3,4} = 2|b_3 b_4|
    on the coarse scan of find_events: the grid points either side of it.
    The scan evaluates C_{3,4} only within two steps of an event time, where
    its grid maxima lie (_scan_brackets).
    Each is refined by bisecting the closed-form derivative of C_{3,4}
    (proportional to sin((mu+nu)t/2)) and then checked with full Wootters
    concurrences: C_{3,4} >= 1-tol, C_{1,2} <= tol and every leg-class
    concurrence <= tol (_checked_events).
    """
    sp = analytic.spectral_params(d)
    s = sp.mu + sp.nu

    def check(t_stars, states, conc):
        c_last, c_first = conc[(3, 4)], conc[(1, 2)]
        c_leg = np.array([conc[p] for p in LEG_CLASS_PAIRS])
        # every value is +0.0 or above, so np.max has the bits of Python's max
        residuals = np.max([1.0 - c_last, c_first, *c_leg], axis=0)
        passed = ~((c_last < 1.0 - tol) | (c_first > tol) | np.any(c_leg > tol, axis=0))
        t = t_stars[passed]
        n = np.rint((t * s / (2.0 * math.pi) - 1.0) / 2.0).astype(int)
        return [EventRecord(TRANSFER, *row) for row in zip(
            n.tolist(), analytic.transfer_times(d, n).tolist(), t.tolist(),
            residuals[passed].tolist())], passed

    return _checked_events(prop, lambda t: np.sin(s * t / 2.0), brackets, t_max, check)


def find_w_events(prop: dynamics.Propagator, brackets: np.ndarray, d: float,
                  t_max: float, tol: float) -> list[EventRecord]:
    """W-state events: all six pairwise concurrences within tol of 1/2.

    brackets has one (lo, hi) row per sign change of C_{1,2} - C_{3,4} =
    2|b_1 b_2| - 2|b_3 b_4| on the coarse scan of find_events: the two grid
    points around it.  The scan evaluates the difference only within two
    steps of an event time, where its sign changes lie (_scan_brackets).
    Each is refined by bisecting the closed-form difference cos((mu+nu)t/2)
    and then checked with full Wootters concurrences (_checked_events).  Each
    event reports the phase-maximized W fidelity, which must be within tol of 1.
    """
    sp = analytic.spectral_params(d)
    s = sp.mu + sp.nu

    def check(t_stars, states, conc):
        residuals = np.max([np.abs(c - 0.5) for c in conc.values()], axis=0)
        passed = ~(residuals > tol)
        fids = w_fidelity(dynamics.one_particle_amplitudes(states[passed]))
        fit = ~(np.abs(1.0 - fids) > tol)
        passed[passed] = fit
        fids = fids[fit]
        t = t_stars[passed]
        n = np.rint((t * s / math.pi - 1.0) / 2.0).astype(int)
        return [EventRecord(W_STATE, *row) for row in zip(
            n.tolist(), analytic.w_times(d, n).tolist(), t.tolist(),
            residuals[passed].tolist(), fids.tolist())], passed

    def f(t):
        return np.cos(s * t / 2.0)

    return _checked_events(prop, f, _widened_without_root(f, brackets), t_max, check)


def w_time_curves(d_grid, n_max: int = 9) -> np.ndarray:
    """W times t_w(d, n) for n = 0..n_max, shape (n_max+1, len(d_grid)).

    Row n equals (2n+1) times row 0 exactly, and every row is strictly
    decreasing in d.  n_max is at most analytic.EXACT_N_MAX, the range
    where that ratio is exact.
    """
    if not isinstance(n_max, (int, np.integer)) or not 0 <= n_max <= analytic.EXACT_N_MAX:
        raise ValidationError(f"n_max must be in 0..{analytic.EXACT_N_MAX}, got {n_max!r}")
    ds = np.atleast_1d(np.asarray(d_grid, dtype=float))
    if ds.size == 0:
        raise ValidationError("d grid must be non-empty")
    base = np.array([analytic.w_times(float(dv), 0) for dv in ds])
    return np.array([(2 * n + 1) * base for n in range(int(n_max) + 1)])
