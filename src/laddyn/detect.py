"""Event detection and parameter sweeps.

Locates entanglement-transfer events (all entanglement on the last rung)
and W-state events (all six pairwise concurrences equal to 1/2) in the
numeric evolution, refines each against the closed-form event structure,
and generates the sweep data behind the time/coupling surface plots.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from . import analytic, dynamics, measures, model
from .errors import ValidationError

#: the six unordered site pairs, and the four of them in the leg class
ALL_PAIRS = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
LEG_CLASS_PAIRS = ((1, 3), (1, 4), (2, 3), (2, 4))

#: representative pair per observable class, used for sweep columns
CLASS_REPRESENTATIVE = {
    analytic.PairClass.FIRST_RUNG: (1, 2),
    analytic.PairClass.LEG: (1, 3),
    analytic.PairClass.LAST_RUNG: (3, 4),
}

#: column-name suffix per observable class
CLASS_COLUMN = {
    analytic.PairClass.FIRST_RUNG: "first",
    analytic.PairClass.LEG: "leg",
    analytic.PairClass.LAST_RUNG: "last",
}

#: fields of the sweep table, in output order
_SWEEP_COLUMNS = (
    "d", "t", "c_first", "c_last", "c_leg",
    "chi_xx_first", "chi_yy_first", "chi_zz_first",
    "chi_xx_leg", "chi_yy_leg", "chi_zz_leg",
    "chi_xx_last", "chi_yy_last", "chi_zz_last",
    "s_tot_z",
)

TRANSFER = "transfer"
W_STATE = "w_state"

_REFINE_WIDTH = 1e-10
_MERGE_WINDOW = 1e-6


@dataclass(frozen=True)
class EventRecord:
    """One detected event with its closed-form prediction and residual."""

    kind: str
    n: int
    t_detected: float
    t_predicted: float
    residual: float
    fidelity: float | None = None


@dataclass(frozen=True)
class BlockTable:
    """A float table as a stream of structured-array blocks, in row order.

    len() is the total row count, known before any block is computed.
    Each iteration calls ``blocks`` and so computes the blocks afresh; a
    consumer that drops each block before asking for the next holds one
    block at a time.
    """

    names: tuple
    n_rows: int
    blocks: Callable[[], Iterator[np.ndarray]]

    def __len__(self) -> int:
        return self.n_rows

    def __iter__(self) -> Iterator[np.ndarray]:
        return self.blocks()


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


def _bisect(f, lo: float, hi: float, width: float) -> float | None:
    """Root of f by bisection, or None when f does not change sign on [lo, hi].

    Bisection stops once the bracket is no wider than width, or at float
    resolution, where its midpoint equals lo or hi; width 0 bisects to there.
    """
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0) == (fhi > 0):
        return None
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _local_maxima(c: np.ndarray) -> np.ndarray:
    """Indices of interior points not below either neighbour (transfer candidates)."""
    return np.flatnonzero((c[1:-1] >= c[:-2]) & (c[1:-1] >= c[2:])) + 1


def _sign_changes(diff: np.ndarray) -> np.ndarray:
    """Indices i where diff changes sign or touches zero on [i, i+1] (W candidates)."""
    # <= 0 keeps a root that lands exactly on a grid point; duplicates merge
    return np.flatnonzero(np.sign(diff[:-1]) * np.sign(diff[1:]) <= 0)


def _block_candidates(blocks) -> tuple[np.ndarray, np.ndarray]:
    """_local_maxima of c and _sign_changes of diff, for (c, diff) given in blocks.

    The indices are those of the whole arrays that the blocks, in order, make
    up, and each block is dropped once it is scanned.  A block is scanned
    with the last two points before it prepended: the first interior point of
    that run is new, since the last point of a scanned run is never interior,
    and the first of its pairs was scanned with the run before.
    """
    maxima, changes = [], []
    c_tail = diff_tail = np.empty(0)
    end = 0  # index one past the points scanned so far
    for c, diff in blocks:
        c = np.concatenate((c_tail, c))
        diff = np.concatenate((diff_tail, diff))
        first = end - len(c_tail)  # index of the run's first point
        maxima.append(first + _local_maxima(c))
        crossing = _sign_changes(diff)
        changes.append(first + crossing[crossing >= len(diff_tail) - 1])
        end = first + len(c)
        c_tail, diff_tail = c[-2:], diff[-2:]
    return np.concatenate(maxima), np.concatenate(changes)


def _scan_blocks(prop: dynamics.Propagator, ts: np.ndarray) -> Iterator[tuple]:
    """(C_{3,4}, C_{1,2} - C_{3,4}) by the shortcut 2|b_p b_q|, a block of ts at a time."""
    for _, states in dynamics.evolved_blocks(prop, ts):
        # the sector check raises SectorLeakageError in any block where
        # 2|b_p b_q| would not hold
        b = dynamics.one_particle_amplitudes(states)
        del states  # hold no block while the next one is evolved
        # the expression of measures.concurrence_one_particle, without its
        # checks on every block
        c_last = 2.0 * np.abs(b[:, 2] * b[:, 3])
        yield c_last, 2.0 * np.abs(b[:, 0] * b[:, 1]) - c_last


def _refined_roots(f, brackets, t_max: float, width: float) -> list:
    """(root, bracket) of each (lo, hi) bracket where f changes sign, up to t_max."""
    # t_max as requested, not the grid's end, which can pass it by roundoff
    roots = ((_bisect(f, lo, hi, width), (lo, hi)) for lo, hi in brackets)
    return [(t, bracket) for t, bracket in roots if t is not None and t <= t_max]


def _merge_events(events: list[EventRecord]) -> list[EventRecord]:
    """Collapse detections closer than the merge window, keeping the smaller residual."""
    events = sorted(events, key=lambda e: e.t_detected)
    merged: list[EventRecord] = []
    for ev in events:
        if merged and abs(ev.t_detected - merged[-1].t_detected) < _MERGE_WINDOW:
            if ev.residual < merged[-1].residual:
                merged[-1] = ev
        else:
            merged.append(ev)
    return merged


def _checked(prop: dynamics.Propagator, roots: list, check) -> list:
    """check(t_stars, states, conc) of the roots' states and full-Wootters concurrences."""
    if not roots:
        return []
    t_stars = [t for t, _ in roots]
    # evolve per candidate, not evolve_states: evolve, like a one-row product,
    # takes numpy's vector path, whose bits can differ from a row of a product
    # of two or more rows, and the written residuals and fidelities are pinned
    # to these bits
    states = np.array([dynamics.evolve(prop, t) for t in t_stars])
    conc = {pair: measures.concurrence_series(states, *pair) for pair in ALL_PAIRS}
    return check(t_stars, states, conc)


def _checked_events(prop: dynamics.Propagator, f, brackets: np.ndarray, t_max: float,
                    check) -> list[EventRecord]:
    """Events at the roots of f in the (lo, hi) rows of brackets, up to t_max, merged.

    The brackets are taken dynamics.BLOCK_ROWS at a time.  Each one in which
    f changes sign is bisected to _REFINE_WIDTH in t, and the roots are
    checked together: check(t_stars, states, conc) gives an EventRecord, or
    None for a root that fails.  A root that fails is bisected on to float
    resolution and checked once more: a root up to 5e-11 off in t leaves a
    residual of up to the tested concurrences' slope, about d/2 near an
    event, times 5e-11, which exceeds tol = 1e-9 above d of about 40.
    """
    events = []
    for k in range(0, len(brackets), dynamics.BLOCK_ROWS):
        roots = _refined_roots(f, brackets[k:k + dynamics.BLOCK_ROWS], t_max, _REFINE_WIDTH)
        failed = []
        for (_, bracket), event in zip(roots, _checked(prop, roots, check)):
            if event is None:
                failed.append(bracket)
            else:
                events.append(event)
        if failed:
            retried = _checked(prop, _refined_roots(f, failed, t_max, 0.0), check)
            events += [event for event in retried if event is not None]
    return _merge_events(events)


def find_events(d: float, t_max: float, coarse_dt: float = 0.01, tol: float = 1e-9,
                graph: model.CouplingGraph = model.DEFAULT_GRAPH) -> list[EventRecord]:
    """Transfer and W-state events up to t_max, in time order, from one coarse scan.

    Builds the propagator of (d, graph) and walks the grid 0, coarse_dt, ...,
    which runs two steps past t_max so that an event in the last step up to
    t_max still has a bracket, once, in the blocks of dynamics.evolved_blocks.
    The candidates are found block by block (_block_candidates) and kept as
    (lo, hi) time brackets: local maxima of C_{3,4} for find_transfer_events
    and sign changes of C_{1,2} - C_{3,4} for find_w_events, which refine and
    check them.  So the
    scan holds the time grid, one block and the brackets, and the searches
    the brackets and their events.  Events at the same time keep that order,
    transfers first.  Empty if t_max is below the first event.
    """
    analytic.spectral_params(d)  # checks d is in the closed forms' domain before the scan
    prop = model.propagator(d, graph)
    # every block passes the sector check before either search starts
    transfer_brackets, w_brackets = _scan_brackets(prop, t_max, coarse_dt)
    events = (find_transfer_events(prop, transfer_brackets, d, t_max, tol)
              + find_w_events(prop, w_brackets, d, t_max, tol))
    return sorted(events, key=lambda e: e.t_detected)


def _scan_brackets(prop: dynamics.Propagator, t_max: float,
                   coarse_dt: float) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) rows around each transfer and each W candidate of the coarse scan.

    The grid is dropped on return, so the searches do not hold it.
    """
    # the checks and point count of dynamics.time_grid; float(k) * coarse_dt has
    # the bits of its points, and the grid is built in place, as one array
    ts = np.arange(dynamics.time_grid_points(0.0, t_max, coarse_dt) + 2, dtype=float)
    ts *= coarse_dt
    maxima, crossings = _block_candidates(_scan_blocks(prop, ts))
    return (np.column_stack((ts[maxima - 1], ts[maxima + 1])),
            np.column_stack((ts[crossings], ts[crossings + 1])))


# perfbench/tracing.py wraps these two by name and counts the evolve calls under them
def find_transfer_events(prop: dynamics.Propagator, brackets: np.ndarray, d: float,
                         t_max: float, tol: float) -> list[EventRecord]:
    """Transfer events: local maxima of C_{3,4} reaching 1 while all others vanish.

    brackets has one (lo, hi) row per local maximum of C_{3,4} = 2|b_3 b_4|
    on the coarse scan of find_events: the grid points either side of it.
    Each is refined by bisecting the closed-form derivative of C_{3,4}
    (proportional to sin((mu+nu)t/2)) and then checked with full Wootters
    concurrences: C_{3,4} >= 1-tol, C_{1,2} <= tol and every leg-class
    concurrence <= tol (_checked_events).
    """
    sp = analytic.spectral_params(d)
    s = sp.mu + sp.nu

    def check(t_stars, states, conc):
        events = []
        for k, t_star in enumerate(t_stars):
            c_last_k, c_first_k = conc[(3, 4)][k], conc[(1, 2)][k]
            c_leg = [conc[p][k] for p in LEG_CLASS_PAIRS]
            residual = max(1.0 - c_last_k, c_first_k, *c_leg)
            if c_last_k < 1.0 - tol or c_first_k > tol or any(c > tol for c in c_leg):
                events.append(None)
                continue
            n = int(round((t_star * s / (2.0 * math.pi) - 1.0) / 2.0))
            events.append(EventRecord(
                kind=TRANSFER,
                n=n,
                t_detected=float(t_star),
                t_predicted=analytic.transfer_times(d, n),
                residual=float(residual),
            ))
        return events

    return _checked_events(prop, lambda t: math.sin(s * t / 2.0), brackets, t_max, check)


def find_w_events(prop: dynamics.Propagator, brackets: np.ndarray, d: float,
                  t_max: float, tol: float) -> list[EventRecord]:
    """W-state events: all six pairwise concurrences within tol of 1/2.

    brackets has one (lo, hi) row per sign change of C_{1,2} - C_{3,4} =
    2|b_1 b_2| - 2|b_3 b_4| on the coarse scan of find_events: the two grid
    points around it.  Each is refined by bisecting the closed-form
    difference cos((mu+nu)t/2) and then checked with full Wootters
    concurrences (_checked_events).  Each event reports the phase-maximized
    W fidelity, which must also be at least 1-tol.
    """
    sp = analytic.spectral_params(d)
    s = sp.mu + sp.nu

    def check(t_stars, states, conc):
        residuals = [max(abs(c[k] - 0.5) for c in conc.values()) for k in range(len(t_stars))]
        passed = [k for k, residual in enumerate(residuals) if not residual > tol]
        events = [None] * len(t_stars)
        if not passed:
            return events
        fids = w_fidelity(dynamics.one_particle_amplitudes(states[passed]))
        for k, fid in zip(passed, fids.tolist()):
            if fid < 1.0 - tol:
                continue
            n = int(round((t_stars[k] * s / math.pi - 1.0) / 2.0))
            events[k] = EventRecord(
                kind=W_STATE,
                n=n,
                t_detected=float(t_stars[k]),
                t_predicted=analytic.w_times(d, n),
                residual=float(residuals[k]),
                fidelity=fid,
            )
        return events

    return _checked_events(prop, lambda t: math.cos(s * t / 2.0), brackets, t_max, check)


def _sweep_block(d: float, states: np.ndarray, ts: np.ndarray) -> np.recarray:
    """The sweep table rows of d at the times ts, from their evolved states."""
    cols = {"d": np.full(ts.size, d), "t": ts}
    for cls, (p, q) in CLASS_REPRESENTATIVE.items():
        name = CLASS_COLUMN[cls]
        cols[f"c_{name}"] = measures.concurrence_series(states, p, q)
        for a in model.AXES:
            cols[f"chi_{a}{a}_{name}"] = measures.correlation_series(states, p, q, a, a)
    cols["s_tot_z"] = measures.total_spin_series(states, "z")
    return np.rec.fromarrays([cols[name] for name in _SWEEP_COLUMNS], names=_SWEEP_COLUMNS)


def sweep(d_grid, t_grid, graph: model.CouplingGraph = model.DEFAULT_GRAPH) -> BlockTable:
    """Observables over the Cartesian product of grids, ordered d-major then t.

    Returns a BlockTable of structured arrays with the float64 fields d, t,
    c_first, c_last, c_leg, chi_{xx,yy,zz}_{first,leg,last} and s_tot_z, in
    d order and, within each d, in blocks of at most dynamics.BLOCK_ROWS
    times (dynamics.evolved_blocks); each block is computed when the table
    is iterated.  The grids are checked, and duplicate d values are dropped
    with a warning, at the call.
    """
    ds = [float(x) for x in np.atleast_1d(np.asarray(d_grid, dtype=float))]
    # a copy: the blocks are computed later, from the grid as it is now
    ts = np.array(t_grid, dtype=float, ndmin=1)
    if len(ds) == 0 or ts.size == 0:
        raise ValidationError("sweep grids must be non-empty")
    if any(not dv > 0.0 for dv in ds):
        raise ValidationError("all sweep d values must be > 0")
    unique = list(dict.fromkeys(ds))
    if len(unique) != len(ds):
        warnings.warn("duplicate d values in sweep grid were dropped", stacklevel=2)

    def blocks():
        for dv in unique:
            for rows, states in dynamics.evolved_blocks(model.propagator(dv, graph), ts):
                yield _sweep_block(dv, states, ts[rows])

    return BlockTable(_SWEEP_COLUMNS, len(unique) * ts.size, blocks)


def w_time_curves(d_grid, n_max: int = 9) -> np.ndarray:
    """W times t_w(d, n) for n = 0..n_max, shape (n_max+1, len(d_grid)).

    Row n equals (2n+1) times row 0 exactly, and every row is strictly
    decreasing in d.  n_max is at most analytic.EXACT_N_MAX, the range
    where that ratio is exact.
    """
    if not isinstance(n_max, (int, np.integer)) or not 0 <= n_max <= analytic.EXACT_N_MAX:
        raise ValidationError(
            f"n_max must be an integer in 0..{analytic.EXACT_N_MAX}, got {n_max!r}")
    ds = np.atleast_1d(np.asarray(d_grid, dtype=float))
    if ds.size == 0:
        raise ValidationError("d grid must be non-empty")
    base = np.array([analytic.w_times(float(dv), 0) for dv in ds])
    return np.array([(2 * n + 1) * base for n in range(int(n_max) + 1)])
