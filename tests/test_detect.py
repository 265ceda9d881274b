import gc
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from laddyn import analytic, cli, detect, dynamics, measures, model, tables
from laddyn.detect import ALL_PAIRS
from laddyn.errors import DomainError, SectorLeakageError, ValidationError


class TestWFidelity:
    def test_perfect_w_state(self):
        b = 0.5 * np.exp(1j * np.array([0.1, 2.0, -1.3, 0.7]))
        assert abs(detect.w_fidelity(b) - 1.0) < 1e-14

    def test_initial_state_half(self):
        b = np.array([1 / math.sqrt(2), 1 / math.sqrt(2), 0, 0])
        assert abs(detect.w_fidelity(b) - 0.5) < 1e-14

    def test_stack_has_the_bits_of_each_row(self, rng):
        # the one-state form is the reference: numpy's array square differs from
        # a scalar power in the last bit for about one value in a thousand
        b = rng.normal(size=(10_000, 4)) + 1j * rng.normal(size=(10_000, 4))
        rows = [float(np.abs(row).sum() ** 2 / 4.0) for row in b]
        assert detect.w_fidelity(b).tolist() == rows
        assert [detect.w_fidelity(row) for row in b[:100]] == rows[:100]

    def test_matches_brute_force_phase_search(self, rng):
        # oracle: explicit maximization of |<W(theta)|psi>|^2 over a phase grid,
        # W(theta) = (1, e^{i t1}, e^{i t2}, e^{i t3}) / 2, broadcast over (t1, t2, t3)
        for _ in range(4):
            b = rng.normal(size=4) + 1j * rng.normal(size=4)
            b /= np.linalg.norm(b)
            grid = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
            phase = np.exp(-1j * grid)
            overlap = 0.5 * (b[0]
                             + (phase * b[1])[:, None, None]
                             + (phase * b[2])[None, :, None]
                             + (phase * b[3])[None, None, :])
            best = float(np.max(np.abs(overlap) ** 2))
            formula = detect.w_fidelity(b)
            assert best <= formula + 1e-12
            assert formula - best < 5e-3


def transfers(*args, **kwargs):
    return [e for e in detect.find_events(*args, **kwargs) if e.kind == detect.TRANSFER]


def w_events(*args, **kwargs):
    return [e for e in detect.find_events(*args, **kwargs) if e.kind == detect.W_STATE]


class TestTransferEvents:
    def test_d1_event_times(self):
        events = transfers(1.0, 10.0)
        assert [e.n for e in events] == [0, 1]
        expected = [math.pi / math.sqrt(2.0), 3.0 * math.pi / math.sqrt(2.0)]
        for ev, t in zip(events, expected):
            assert abs(ev.t_detected - t) < 1e-6

    def test_detection_matches_prediction_closely(self):
        for ev in transfers(0.6, 30.0):
            assert abs(ev.t_detected - ev.t_predicted) < 1e-9

    def test_residuals_within_tolerance(self):
        for d in (0.4, 1.3):
            for ev in transfers(d, 20.0, tol=1e-9):
                assert ev.residual <= 1e-9
                assert ev.fidelity is None

    def test_short_window_is_empty_not_error(self):
        assert detect.find_events(0.6, 1.0) == []


class TestWEvents:
    def test_d1_first_event(self):
        events = w_events(1.0, 2.0)
        assert len(events) == 1
        assert abs(events[0].t_detected - math.pi / (2.0 * math.sqrt(2.0))) < 1e-6
        assert events[0].n == 0

    def test_all_concurrences_half_at_events(self):
        for ev in w_events(0.6, 15.0):
            psi = dynamics.evolve(model.propagator(0.6), ev.t_detected)
            for pair in ALL_PAIRS:
                c = measures.concurrence_series(psi[None], *pair)[0]
                assert abs(c - 0.5) <= 1e-9

    def test_fidelity_at_events(self):
        for d in (0.3, 1.0, 2.0):
            events = w_events(d, 12.0)
            assert events, f"no W events found at d={d}"
            for ev in events:
                assert ev.fidelity is not None and ev.fidelity >= 1.0 - 1e-9

    def test_event_interleaving_structure(self):
        # every transfer sits exactly halfway between two W events; with
        # matching indices t_w(n) = t_tr(n)/2, and two W events fall between
        # consecutive transfers
        trs = transfers(0.8, 30.0)
        ws = w_events(0.8, 30.0)
        for ev in trs:
            lower = [w for w in ws if w.t_detected < ev.t_detected]
            upper = [w for w in ws if w.t_detected > ev.t_detected]
            assert lower and (upper or ev is trs[-1])
        for tr in trs:
            tw = analytic.w_times(0.8, tr.n)
            assert tw == pytest.approx(tr.t_predicted / 2.0, abs=0.0)
        for a, b in zip(trs, trs[1:]):
            between = [w for w in ws if a.t_detected < w.t_detected < b.t_detected]
            assert len(between) == 2


class TestCandidateScan:
    @pytest.mark.parametrize("d", [0.3, 1.0, 3.0])
    def test_shortcut_candidates_match_full_wootters(self, d):
        states = dynamics.evolve_states(model.propagator(d), dynamics.time_grid(60.0, 0.01))
        amps = dynamics.one_particle_amplitudes(states)
        fast = {pair: measures.concurrence_one_particle(amps, *pair) for pair in ((1, 2), (3, 4))}
        full = {pair: measures.concurrence_series(states, *pair) for pair in ((1, 2), (3, 4))}
        maxima = detect._local_maxima(fast[(3, 4)])
        changes = detect._sign_changes(fast[(1, 2)] - fast[(3, 4)])
        assert maxima.size and changes.size
        np.testing.assert_array_equal(maxima, detect._local_maxima(full[(3, 4)]))
        np.testing.assert_array_equal(changes, detect._sign_changes(full[(1, 2)] - full[(3, 4)]))


def _leaky_propagator(d):
    # the Bell seed plus weight on |0000>, which no Hamiltonian of the model moves
    psi0 = model.initial_state().astype(complex)
    psi0[0] = 0.05
    psi0 /= np.linalg.norm(psi0)
    return dynamics.make_propagator(model.build_hamiltonian(model.ModelParams(d=d)), psi0)


def _record_calls(monkeypatch, name):
    """Replace detect.<name> by a wrapper that logs each call; return the log."""
    real = getattr(detect, name)
    calls = []

    def recording(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(detect, name, recording)
    return calls


def _record_block_times(monkeypatch):
    """Replace dynamics.evolve_states by a wrapper that logs each call's times."""
    real = dynamics.evolve_states
    times = []

    def recording(prop, ts):
        times.append(np.array(ts, dtype=float))
        return real(prop, ts)

    monkeypatch.setattr(dynamics, "evolve_states", recording)
    return times


def _scan_points(t_max, dt):
    """Point count of the scan grid: time_grid's up to t_max, and two past it."""
    return dynamics.time_grid_points(t_max, dt) + 2


def _whole_grid_brackets(prop, t_max, dt):
    """The brackets of a scan of every grid point: the reference for detect._scan_brackets.

    The grid float(k) * dt is evolved in one product, whose rows have the bits
    of the same rows of any product of two or more rows.
    """
    ts = np.arange(_scan_points(t_max, dt), dtype=float)
    ts *= dt
    amps = dynamics.one_particle_amplitudes(dynamics.evolve_states(prop, ts))
    c_last = measures.concurrence_one_particle(amps, 3, 4)
    maxima = detect._local_maxima(c_last)
    changes = detect._sign_changes(measures.concurrence_one_particle(amps, 1, 2) - c_last)
    return (np.column_stack((ts[maxima - 1], ts[maxima + 1])),
            np.column_stack((ts[changes], ts[changes + 1])))


def _window_points(d, t_max, dt):
    """The grid indices within two steps of a closed-form event time, ascending."""
    n_points = _scan_points(t_max, dt)
    n = np.arange(int(n_points * dt / analytic.w_times(d, 0)) + 2)
    centres = [round(t / dt) for t in np.concatenate((analytic.w_times(d, n),
                                                      analytic.transfer_times(d, n))).tolist()]
    return sorted({k for c in centres for k in range(c - 2, c + 3) if 0 <= k < n_points})


@st.composite
def _steps(draw, d):
    # 0.1 to 0.999 of the largest step search_events accepts, or a step
    # commensurate with the W spacing, t_w(0) / k
    sp = analytic.spectral_params(d)
    dt_max = 4.0 * math.pi / ((sp.mu + sp.nu) * detect.SCAN_POINTS_PER_PERIOD)
    return draw(st.floats(0.1, 0.999).map(lambda f: f * dt_max)
                | st.integers(2, 10).map(lambda k: analytic.w_times(d, 0) / k))


@st.composite
def _t_maxes(draw, d_dt):
    # up to about 3,000 grid points: a whole number of steps, or an event time
    d, dt = d_dt
    n_max = int(700 * dt / analytic.w_times(d, 0))
    return draw(st.integers(1, 3000).map(lambda k: k * dt)
                | st.integers(0, n_max).map(lambda n: analytic.w_times(d, n))
                | st.integers(0, n_max).map(lambda n: analytic.transfer_times(d, n)))


# one d and one step per example, shared by the three strategies
_SCAN_D = st.shared(st.floats(math.log(1e-3), math.log(1e2)).map(math.exp), key="scan_d")
_SCAN_DT = st.shared(_SCAN_D.flatmap(_steps), key="scan_dt")
_SCAN_T_MAX = st.tuples(_SCAN_D, _SCAN_DT).flatmap(_t_maxes)


class TestCoarseScan:
    def test_one_scan_serves_both_finders(self, monkeypatch):
        calls = _record_block_times(monkeypatch)
        events = detect.find_events(1.0, 10.0)
        # of the 1003 grid points up to t_max and two past it, the five around
        # each of the 2 transfers and 5 W events, 111 steps apart, evolved once
        # in one block
        assert [len(ts) for ts in calls] == [35]
        np.testing.assert_array_equal(calls[0], 0.01 * np.array(_window_points(1.0, 10.0, 0.01)))
        assert [e.kind for e in events].count(detect.TRANSFER) == 2
        assert [e.kind for e in events].count(detect.W_STATE) == 5
        times = [e.t_detected for e in events]
        assert times == sorted(times)

    @pytest.mark.parametrize("d", [0.3, 1.0, 3.0])
    def test_block_scan_candidates_match_whole_grid(self, monkeypatch, d):
        # the scan of t_max 300 evolves the points within two steps of an event
        # time, in several blocks of two or more rows; the brackets each search
        # is handed are those of the whole-grid scan
        transfer_calls = _record_calls(monkeypatch, "find_transfer_events")
        w_calls = _record_calls(monkeypatch, "find_w_events")
        blocks = _record_block_times(monkeypatch)
        detect.find_events(d, 300.0)
        [(prop, transfer_brackets, *_)] = transfer_calls
        [(_, w_brackets, *_)] = w_calls
        points = _window_points(d, 300.0, 0.01)
        np.testing.assert_array_equal(np.concatenate(blocks), 0.01 * np.array(points))
        assert len(points) < _scan_points(300.0, 0.01) / 5
        assert len(blocks) > 1 and all(2 <= len(ts) <= dynamics.BLOCK_ROWS for ts in blocks)
        expected_transfer, expected_w = _whole_grid_brackets(prop, 300.0, 0.01)
        assert expected_transfer.size and expected_w.size
        np.testing.assert_array_equal(transfer_brackets, expected_transfer)
        np.testing.assert_array_equal(w_brackets, expected_w)

    @given(d=_SCAN_D, t_max=_SCAN_T_MAX, dt=_SCAN_DT)
    @example(d=1.2113633229846195, t_max=300, dt=0.01)  # t_w(0) = 1, on the grid
    @settings(max_examples=300, deadline=None)
    def test_windowed_brackets_match_whole_grid(self, d, t_max, dt):
        # d from 1e-3 to 100, steps up to the refusal limit, grids commensurate
        # with the W spacing and t_max at an event time
        prop = model.propagator(d)
        got = detect._scan_brackets(prop, d, t_max, dt)
        expected = _whole_grid_brackets(prop, t_max, dt)
        np.testing.assert_array_equal(got[0], expected[0])
        np.testing.assert_array_equal(got[1], expected[1])

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_block_candidates_match_whole_array(self, data):
        # values from a small set make plateaus and exact zeros, and every block
        # edge may get a zero on either side or a plateau across it.  Up to six
        # indices are left out of the blocks, and a stencil that reads one of
        # them gives no candidate
        sizes = data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=10))
        n = sum(sizes) + data.draw(st.integers(0, 6))
        ks = np.sort(data.draw(st.permutations(range(n)))[:sum(sizes)])
        edges = np.cumsum(sizes)[:-1]
        values = st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]) | st.floats(-1.0, 1.0)

        def sequence():
            x = np.array(data.draw(st.lists(values, min_size=n, max_size=n)))
            for before, after in zip(ks[edges - 1], ks[edges]):
                how = data.draw(st.sampled_from(["none", "zero_before", "zero_after",
                                                 "plateau", "zero_plateau"]))
                if how == "zero_before":
                    x[before] = 0.0
                elif how == "zero_after":
                    x[after] = 0.0
                elif how == "plateau":
                    x[after] = x[before]
                elif how == "zero_plateau":
                    x[before] = x[after] = 0.0
            return x

        c, diff = sequence(), sequence()
        maxima, changes = detect._block_candidates(
            zip(np.split(ks, edges), np.split(c[ks], edges), np.split(diff[ks], edges)))
        given_points = set(ks.tolist())
        np.testing.assert_array_equal(maxima, [k for k in detect._local_maxima(c).tolist()
                                               if {k - 1, k, k + 1} <= given_points])
        np.testing.assert_array_equal(changes, [k for k in detect._sign_changes(diff).tolist()
                                                if {k, k + 1} <= given_points])

    def test_scan_memory_is_bounded(self):
        # the scan in 4096-row blocks peaked at 5.1 MB here, and with 64 B of
        # amplitudes per point and whole-grid concurrences at 3.2 MB; the
        # streamed scan holds the 240 kB time grid, one block and the brackets
        gc.collect()
        tracemalloc.start()
        try:
            detect.find_events(1.0, 300.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    @pytest.mark.parametrize("d", [1.0, 3.0])
    def test_scan_memory_grows_only_with_the_time_grid(self, d):
        # at t_max 3000 the scan that kept 64 B of amplitudes per point peaked at
        # 31.4 MB (d = 1) and 31.6 MB (d = 3) here; the time grid takes 2.4 MB
        grid_bytes = 8 * (dynamics.time_grid(3000.0, 0.01).size + 2)
        gc.collect()
        tracemalloc.start()
        try:
            detect.find_events(d, 3000.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < grid_bytes + 0.8e6

    @pytest.mark.parametrize("d, t_max, parent_peak", [(1.0, 9000.0, 8_150_850),
                                                       (60.0, 3000.0, 25_634_434)],
                             ids=["d=1", "d=60"])
    def test_long_search_peak_is_pinned(self, d, t_max, parent_peak):
        # the peaks measured here when the scan evolved every grid point and held
        # the whole time grid (8 B per point); at d = 1 that grid set the peak, at
        # d = 60 the records of its 85,956 events do.  The full collection empties
        # the free lists that earlier tests fill, which moved the peak by 0.2 MB
        gc.collect()
        tracemalloc.start()
        try:
            detect.find_events(d, t_max)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= parent_peak

    @pytest.mark.parametrize("d, dt", [(1.0, None), (60.0, None), (100.0, None), (60.0, 0.01)],
                             ids=["d=1-largest_dt", "d=60-largest_dt", "d=100-largest_dt",
                                  "d=60-dt=0.01"])
    def test_scan_never_evolves_more_points_than_the_grid(self, monkeypatch, d, dt):
        # at the largest step allowed (None) the windows of consecutive events
        # overlap most; each point is evolved once, and never one off the grid
        if dt is None:
            sp = analytic.spectral_params(d)
            dt = math.nextafter(
                4.0 * math.pi / ((sp.mu + sp.nu) * detect.SCAN_POINTS_PER_PERIOD), 0.0)
        t_max = 3000.0 * dt
        blocks = _record_block_times(monkeypatch)
        detect._scan_brackets(model.propagator(d), d, t_max, dt)
        rows = np.concatenate(blocks)
        assert rows.size <= _scan_points(t_max, dt)
        np.testing.assert_array_equal(rows, dt * np.array(_window_points(d, t_max, dt)))

    @pytest.mark.parametrize("search", ["find_transfer_events", "find_w_events"])
    def test_validation(self, monkeypatch, search):
        # d is checked by spectral_params, t_max and coarse_dt by the scan's time grid,
        # all before either search reads the scan
        reached = _record_calls(monkeypatch, search)
        for args, error in (((1.0, -1.0), ValidationError), ((0.0, 10.0), DomainError),
                            ((1.0, 10.0, 0.0), ValidationError),
                            ((1.0, 10.0, -1.0), ValidationError)):
            with pytest.raises(error):
                detect.find_events(*args)
        assert reached == []


def _bounded(f, max_calls=100):
    """f, failing once it has been called max_calls times (a bisection that does not stop)."""
    calls = []

    def bounded(t):
        calls.append(t)
        assert len(calls) < max_calls, "bisection did not stop"
        return f(t)

    return bounded


def _bisect(f, lo: float, hi: float, width: float) -> float | None:
    """Root of f by bisection, or None when f does not change sign on [lo, hi].

    The scalar reference that detect._refined_roots, which bisects a whole
    array of brackets at once, is checked against.  Bisection stops once the
    bracket is no wider than width, or at float resolution, where its midpoint
    equals lo or hi; width 0 bisects to there.
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


def _array_roots(f, brackets, width):
    """detect._refined_roots of the rows of brackets, with None for a row without a root."""
    brackets = np.array(brackets, dtype=float).reshape(-1, 2)
    roots, found = detect._refined_roots(f, brackets, width)
    # the rows with a root come back in bracket order, and equal rows have equal roots
    out, k = [], 0
    for row in brackets.tolist():
        has_root = k < len(found) and found[k].tolist() == row
        out.append(roots[k].item() if has_root else None)
        k += has_root
    assert k == len(found)
    return out


def _bits(roots):
    return [None if t is None else float(t).hex() for t in roots]


class TestRefinement:
    def test_bisection_stops_at_float_resolution(self):
        # near 2**30 adjacent floats are 2.4e-7 apart, wider than the 1e-10 width;
        # t - 2**30 is exact there and never 0.3, so no step lands on a zero
        lo = 2.0 ** 30
        for width in (detect._REFINE_WIDTH, 0.0):
            t = _bisect(_bounded(lambda t: (t - lo) - 0.3), lo, lo + 1.0, width)
            assert abs((t - lo) - 0.3) <= math.ulp(lo)
            assert _array_roots(_bounded(lambda t: (t - lo) - 0.3), [lo, lo + 1.0], width) == [t]

    def test_zero_width_bisects_to_adjacent_floats(self):
        t = _bisect(_bounded(math.cos), 1.5, 1.6, 0.0)
        assert abs(t - math.pi / 2) <= math.ulp(math.pi / 2)
        assert _array_roots(_bounded(np.cos), [1.5, 1.6], 0.0) == [t]

    @given(base=st.sampled_from([0.0, 3.0, 2.0 ** 30]),
           roots=st.lists(st.integers(0, 2 ** 10).map(lambda m: m / 2 ** 8)
                          | st.floats(0.0, 4.0) | st.floats(0.0, 1e-10),
                          min_size=1, max_size=2),
           ends=st.lists(st.tuples(st.integers(0, 64).map(lambda m: m / 16) | st.floats(0.0, 4.0),
                                   st.integers(0, 64).map(lambda m: m / 16) | st.floats(0.0, 4.0)),
                         max_size=30),
           width=st.sampled_from([detect._REFINE_WIDTH, 0.0]),
           sign=st.sampled_from([1.0, -1.0]))
    @settings(max_examples=300, deadline=None)
    def test_array_bisection_matches_scalar_oracle(self, base, roots, ends, width, sign):
        # f = sign * prod(t - r) is evaluated with the same float operations on a
        # scalar and on an array, so the two bisections see the same signs.  Many
        # ends are multiples of 2**-4 above base and many roots multiples of 2**-8,
        # so zeros at an end, at both ends (the brackets between and at the roots)
        # and at a midpoint occur, as do brackets around both roots (no sign
        # change), a bracket exactly width wide at base 0 and, near 2**30,
        # brackets bisected to float resolution
        roots = [base + r for r in roots]
        brackets = [(base + min(a, b), base + max(a, b)) for a, b in ends]
        brackets += [(min(roots), max(roots)), (roots[0], roots[0] + 0.0625),
                     (roots[0] - 0.0625, roots[0]), (base, base + 1e-10)]

        def f(t):
            out = sign * (t - roots[0])
            for r in roots[1:]:
                out = out * (t - r)
            return out

        expected = [_bisect(f, lo, hi, width) for lo, hi in brackets]
        assert _bits(_array_roots(f, brackets, width)) == _bits(expected)

    @pytest.mark.parametrize("d, t_max", [(0.3, 300.0), (1.0, 300.0), (3.0, 300.0),
                                          (60.0, 30.0), (100.0, 3.0)])
    def test_closed_form_roots_match_scalar_oracle(self, d, t_max):
        # the searches' own functions: the oracle takes math.sin and math.cos of
        # each time, the array bisection np.sin and np.cos of a whole chunk
        sp = analytic.spectral_params(d)
        s = sp.mu + sp.nu
        transfer, w = detect._scan_brackets(model.propagator(d), d, t_max, 0.01)
        for brackets, scalar, array in ((transfer, math.sin, np.sin), (w, math.cos, np.cos)):
            for width in (detect._REFINE_WIDTH, 0.0):
                expected = [_bisect(lambda t: scalar(s * t / 2.0), lo, hi, width)
                            for lo, hi in brackets.tolist()]
                got = _array_roots(lambda t: array(s * t / 2.0), brackets, width)
                assert None not in expected
                assert _bits(got) == _bits(expected)

    @pytest.mark.parametrize("d", [0.3, 1.0, 3.0])
    def test_pinned_candidates_take_no_extra_steps(self, monkeypatch, d):
        # every candidate of the pinned events configs passes the check at the
        # 1e-10 width, so none is bisected on to float resolution and every
        # written bit stays as it was
        calls = _record_calls(monkeypatch, "_refined_roots")
        detect.find_events(d, 300.0)
        assert calls and all(width == detect._REFINE_WIDTH for *_, width in calls)

    @pytest.mark.parametrize("d, t_max, n_transfer, n_w", [
        (60.0, 30.0, 287, 573),
        (100.0, 3.0, 48, 95),
    ])
    def test_large_d_finds_every_event(self, monkeypatch, d, t_max, n_transfer, n_w):
        # refined to 1e-10 in t, a root leaves a residual up to about d * 2.5e-11,
        # and only 256 / 512 (d = 60) and 24 / 56 (d = 100) of these passed the check
        calls = _record_calls(monkeypatch, "_refined_roots")
        events = detect.find_events(d, t_max)
        trs = [e for e in events if e.kind == detect.TRANSFER]
        ws = [e for e in events if e.kind == detect.W_STATE]
        assert [e.n for e in trs] == list(range(n_transfer))
        assert [e.n for e in ws] == list(range(n_w))
        # the closed-form counts up to t_max
        assert analytic.transfer_times(d, n_transfer - 1) <= t_max < analytic.transfer_times(
            d, n_transfer)
        assert analytic.w_times(d, n_w - 1) <= t_max < analytic.w_times(d, n_w)
        assert all(e.residual <= 1e-9 for e in events)
        assert any(width == 0.0 for *_, width in calls)

    def test_candidate_checks_run_in_blocks(self, monkeypatch):
        # the 573 W candidates at d = 60 are checked at most BLOCK_ROWS at a time
        calls = _record_calls(monkeypatch, "_checked")
        detect.find_events(60.0, 30.0)
        sizes = [len(roots) for _, roots, _ in calls]
        assert max(sizes) <= dynamics.BLOCK_ROWS and sum(sizes) > dynamics.BLOCK_ROWS

    @pytest.mark.parametrize("find", [detect.find_transfer_events, detect.find_w_events])
    def test_a_chunk_without_roots_is_checked_as_an_empty_stack(self, monkeypatch, find):
        # brackets that refine to no root are checked as a (0, DIM) stack
        monkeypatch.setattr(detect, "_refined_roots",
                            lambda f, brackets, width: (np.empty(0), np.empty((0, 2))))
        calls = _record_calls(monkeypatch, "_checked")
        assert find(model.propagator(1.0), np.array([[2.0, 2.5]]), 1.0, 30.0, 1e-9) == []
        assert [len(roots) for _, roots, _ in calls] == [0]


class TestMergeEvents:
    """Detections of one kind merge by their closed-form index n alone."""

    @staticmethod
    def record(n, t, residual):
        return detect.EventRecord(detect.W_STATE, n, 1.0, t, residual, 1.0)

    def test_same_n_keeps_the_smaller_residual(self):
        kept = self.record(3, 1.0 + 1e-12, 1e-12)
        assert detect._merge_events([self.record(3, 1.0, 1e-11), kept]) == [kept]

    def test_same_n_and_residual_keeps_the_earlier(self):
        early, late = self.record(3, 1.0, 1e-11), self.record(3, 1.0 + 1e-12, 1e-11)
        assert detect._merge_events([late, early]) == [early]

    def test_neighbouring_n_are_both_kept_however_close(self):
        # an absolute window of 1e-6 in t merged these, as it merged distinct
        # events 2 pi/(mu+nu) apart above d of about 3e6
        first, second = self.record(3, 1e-7, 1e-11), self.record(4, 1e-7 + 1e-9, 1e-12)
        assert detect._merge_events([second, first]) == [first, second]


class TestSearchOnAGivenPropagator:
    @pytest.mark.parametrize("d", [0.3, 1.0, 3.0])
    def test_find_events_is_its_refusals_then_the_search(self, monkeypatch, d):
        # find_events is search_events on model.propagator(d), whose refusals come first
        searched = detect.search_events(model.propagator(d), d, 60.0, 0.01, 1e-9)
        built = _record_calls(monkeypatch, "search_events")
        assert detect.find_events(d, 60.0) == searched
        [(prop, *args)] = built
        assert [a.tobytes() for a in prop] == [a.tobytes() for a in model.propagator(d)]
        assert args == [d, 60.0, 0.01, 1e-9]

    @pytest.mark.parametrize("args, error, match", [
        ((300.0, 3.0), ValidationError, "undersamples"),
        ((1.0, 10.0, math.inf), ValidationError, "undersamples"),
        ((1e-170, 3.0), DomainError, "closed forms need"),
        ((1.0, 10.0, 0.01, math.nan), ValidationError, "tolerance must be positive"),
        ((1.0, 10.0, math.nan), ValidationError, "dt must be finite"),
        ((1.0, 1e7, 0.01), ValidationError, "more than 1000000 points"),
    ], ids=["undersampled", "infinite_dt", "d_below_domain", "nan_tol", "nan_dt", "over_budget"])
    def test_refusals_come_before_any_evolution(self, monkeypatch, args, error, match):
        evolved = _record_block_times(monkeypatch)
        monkeypatch.setattr(dynamics, "evolve", None)  # never reached
        transfers = _record_calls(monkeypatch, "find_transfer_events")
        ws = _record_calls(monkeypatch, "find_w_events")
        with pytest.raises(error, match=match):
            detect.find_events(*args)
        assert evolved == transfers == ws == []

    @pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0])
    def test_tolerance_must_be_positive_and_finite(self, tol):
        # without the refusal the search listed 7, 0 and 0 of the 7 events here
        message = f"tolerance must be positive and finite, got {tol}"
        with pytest.raises(ValidationError, match=message):
            detect.find_events(1.0, 10.0, 0.01, tol)


class TestScanSampling:
    def test_undersampled_scan_is_refused(self, monkeypatch):
        # d = 300 at dt 0.01 gives 2.1 points per period 4 pi/(mu+nu): the scan
        # found 13 of 143 transfers there; d = 1 at dt 100 gives 0.04 points, and
        # its scan to t = 1e7 listed 22,378 of 6,752,373 events in 18 s
        reached = _record_calls(monkeypatch, "_scan_brackets")
        for d, t_max, dt in ((300.0, 3.0, 0.01), (1.0, 1e7, 100.0)):
            sp = analytic.spectral_params(d)
            dt_max = 4.0 * math.pi / ((sp.mu + sp.nu) * detect.SCAN_POINTS_PER_PERIOD)
            with pytest.raises(ValidationError, match=f"at most {dt_max:.6g}"):
                detect.find_events(d, t_max, dt)
            with pytest.raises(ValidationError):
                detect.find_events(d, t_max, math.nextafter(dt_max, math.inf))
        assert reached == []

    def test_undersampled_search_is_refused(self):
        # d = 1 at step 5 has 0.89 points per period: on a given propagator the
        # search listed 23 of the 203 events up to t = 300 and raised nothing
        with pytest.raises(ValidationError, match="undersamples"):
            detect.search_events(model.propagator(1.0), 1.0, 300.0, 5.0, 1e-9)

    def test_largest_allowed_step_is_accepted(self):
        # exactly SCAN_POINTS_PER_PERIOD points per period at d = 1
        dt_max = 4.0 * math.pi / (2.0 * math.sqrt(2.0) * detect.SCAN_POINTS_PER_PERIOD)
        dt = math.nextafter(dt_max, 0.0)
        assert detect.find_events(1.0, 30.0, dt)

    def test_fine_scan_at_d_300_finds_every_event(self):
        # 5.2 points per period; the residuals reach 9.3e-10 of the 1e-9 tolerance
        events = detect.find_events(300.0, 3.0, 0.004)
        trs = [e for e in events if e.kind == detect.TRANSFER]
        ws = [e for e in events if e.kind == detect.W_STATE]
        assert [e.n for e in trs] == list(range(143))
        assert [e.n for e in ws] == list(range(286))
        # the closed-form counts up to t_max
        assert analytic.transfer_times(300.0, 142) <= 3.0 < analytic.transfer_times(300.0, 143)
        assert analytic.w_times(300.0, 285) <= 3.0 < analytic.w_times(300.0, 286)
        assert all(e.residual <= 1e-9 for e in events)


def _closed_form_counts(d, t_max):
    # the transfer and W counts `verify` expects: how many closed-form times,
    # transfers at (2n+1) 2 pi/s and W events at (2n+1) pi/s, s = mu + nu, are
    # <= t_max; the n past the last one is at most t_max s / pi + 1
    sp = analytic.spectral_params(d)
    n = np.arange(int(t_max * (sp.mu + sp.nu) / math.pi) + 2)
    return (int(np.count_nonzero(analytic.transfer_times(d, n) <= t_max)),
            int(np.count_nonzero(analytic.w_times(d, n) <= t_max)))


#: d where t_w(0) = 1, 1/2 and 1/4, so every W time lies on the default 0.01 grid.
#: There the numeric C_12 - C_34 at a grid point within roundoff of a root can
#: pick the step after it while the closed form puts the root in the step
#: before; the scan listed 36/150, 71/300 and 145/600 W events up to t = 300
COMMENSURATE_DS = (1.2113633229846195, 2.9781881070693568, 6.203097420189161)


class TestCommensurateGrid:
    @pytest.mark.parametrize("d, t_w0, n_transfer", zip(COMMENSURATE_DS, (1.0, 0.5, 0.25),
                                                        (75, 150, 300)))
    def test_every_w_event_is_listed(self, d, t_w0, n_transfer):
        assert analytic.w_times(d, 0) == t_w0
        events = detect.find_events(d, 300.0)
        trs = [e for e in events if e.kind == detect.TRANSFER]
        ws = [e for e in events if e.kind == detect.W_STATE]
        assert _closed_form_counts(d, 300.0) == (n_transfer, 2 * n_transfer)
        assert [e.n for e in trs] == list(range(n_transfer))
        assert [e.n for e in ws] == list(range(2 * n_transfer))
        assert all(e.residual <= 1e-9 for e in events)

    @given(d=st.floats(min_value=math.log(0.05), max_value=math.log(40.0)).map(math.exp),
           t_max=st.floats(min_value=1.0, max_value=60.0))
    @example(d=COMMENSURATE_DS[0], t_max=60.0)
    @example(d=COMMENSURATE_DS[1], t_max=60.0)
    @example(d=COMMENSURATE_DS[2], t_max=60.0)
    # t_max within roundoff of an event: transfer 37 at 60.00000000000006 is
    # past it, and W event 562 at 59.999999999999886 is not, though its root is
    @example(d=3.797532998764082, t_max=60.0)
    @example(d=29.435449704641755, t_max=60.0)
    @settings(max_examples=100, deadline=None)
    def test_counts_match_the_closed_form(self, d, t_max):
        events = detect.find_events(d, t_max)
        counts = (sum(e.kind == detect.TRANSFER for e in events),
                  sum(e.kind == detect.W_STATE for e in events))
        assert counts == _closed_form_counts(d, t_max)


class TestSectorLeakage:
    @pytest.mark.parametrize("search", ["find_transfer_events", "find_w_events"])
    def test_event_scan_fails_loudly(self, monkeypatch, search):
        # the guard runs on the scan in find_events, so neither search sees leaked amplitudes
        reached = _record_calls(monkeypatch, search)
        monkeypatch.setattr(detect.model, "propagator", _leaky_propagator)
        with pytest.raises(SectorLeakageError):
            detect.find_events(1.0, 10.0)
        assert reached == []

    def test_leakage_in_last_block_fails_loudly(self, monkeypatch):
        # weight on |0000> only at times in the last eighth of the 30,003 grid
        # points of t_max 300, which the scan's last block evaluates
        transfer_reached = _record_calls(monkeypatch, "find_transfer_events")
        w_reached = _record_calls(monkeypatch, "find_w_events")
        real = dynamics.evolve_states
        last_block = 0.01 * (30_003 * 7 // 8)

        def leaky(prop, times):
            states = real(prop, times)
            states[np.asarray(times) >= last_block, 0] += 0.05
            return states

        monkeypatch.setattr(dynamics, "evolve_states", leaky)
        with pytest.raises(SectorLeakageError):
            detect.find_events(1.0, 300.0)
        assert transfer_reached == [] and w_reached == []

    def test_events_command_reports_check_failure(self, monkeypatch, capsys):
        monkeypatch.setattr(detect.model, "propagator", _leaky_propagator)
        assert cli.main(["events", "--d", "1", "--t-max", "10"]) == cli.EXIT_CHECK_FAILURE
        err = capsys.readouterr().err
        assert "check failure:" in err and "one-excitation sector" in err
        assert "Traceback" not in err


class TestSweep:
    def test_single_point_matches_measures(self):
        table = np.concatenate(list(tables.sweep([0.5], [0.0])))
        assert len(table) == 1
        psi = dynamics.evolve(model.propagator(0.5), 0.0)
        assert table["c_first"][0] == pytest.approx(
            measures.concurrence_series(psi[None], 1, 2)[0], abs=1e-14)
        assert table["c_first"][0] == pytest.approx(1.0, abs=1e-12)
        assert table["c_last"][0] == pytest.approx(0.0, abs=1e-12)
        assert table["s_tot_z"][0] == pytest.approx(-1.0, abs=1e-12)

    def test_cross_section_starts_correctly(self):
        ts = np.arange(0.0, 12.0, 0.05)
        table = np.concatenate(list(tables.sweep([0.6], ts)))
        assert table["c_first"][0] == pytest.approx(1.0, abs=1e-12)
        assert table["c_last"][0] == pytest.approx(0.0, abs=1e-12)
        assert table["c_leg"][0] == pytest.approx(0.0, abs=1e-12)
        assert table["chi_zz_first"][0] == pytest.approx(-0.25, abs=1e-12)

    def test_first_w_time_monotone_in_d(self):
        # first event is below pi/2 for every d here, so a short window suffices
        d_grid = np.arange(0.1, 4.01, 0.1)
        firsts = [w_events(float(d), 3.0)[0].t_detected for d in d_grid]
        assert all(a > b for a, b in zip(firsts, firsts[1:]))

    def test_row_ordering_d_major(self):
        table = np.concatenate(list(tables.sweep([0.5, 1.0], [0.0, 1.0, 2.0])))
        assert list(zip(table["d"].tolist(), table["t"].tolist())) == [
            (0.5, 0.0), (0.5, 1.0), (0.5, 2.0),
            (1.0, 0.0), (1.0, 1.0), (1.0, 2.0),
        ]

    def test_duplicate_d_warns_and_dedupes(self):
        with pytest.warns(UserWarning, match="duplicate"):
            table = tables.sweep([0.5, 0.5], [0.0])
        assert len(table) == 1

    def test_blocks_are_computed_per_d_as_read(self, monkeypatch):
        calls = []

        class Recording(tables.BlockColumns):
            def __init__(self, *args):
                calls.append(args)
                super().__init__(*args)

        monkeypatch.setattr(tables, "BlockColumns", Recording)
        table = tables.sweep([0.5, 1.0, 1.5], [0.0, 1.0])
        assert len(table) == 6 and table.names == (
            "d", "t", "c_first", "c_last", "c_leg",
            "chi_xx_first", "chi_yy_first", "chi_zz_first",
            "chi_xx_leg", "chi_yy_leg", "chi_zz_leg",
            "chi_xx_last", "chi_yy_last", "chi_zz_last", "s_tot_z")
        assert calls == []
        for k, chunk in enumerate(table, 1):
            computed = [d for d, *_ in calls]
            assert computed == [0.5, 1.0, 1.5][:k]
            assert chunk["d"].tolist() == [computed[-1]] * 2
        # a second pass computes the chunks again, with the same bits
        again = np.concatenate(list(table))
        assert len(calls) == 6
        assert np.array_equal(again, np.concatenate(list(table)))
        assert len(calls) == 9

    @pytest.mark.parametrize("command, n_d", [("sweep", 2), ("evolve", 1)])
    def test_memory_is_bounded_by_the_block(self, command, n_d):
        # 20,001 times per d in 41 blocks; whole per-d sweep tables peaked at 40.4 MB
        # here, slices of one whole-grid product per d at 16.0 MB (sweep) and
        # 15.5 MB (evolve), and one product per 4096-row block at 8.3 and 8.5 MB
        ts = dynamics.time_grid(200.0, 0.01)
        gc.collect()
        tracemalloc.start()
        try:
            if command == "sweep":
                table = tables.sweep([1.0, 2.0], ts)
            else:
                table = tables.evolve_table(0.6, ts, ALL_PAIRS)
            rows = [len(block) for block in table]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3e6
        assert sum(rows) == n_d * ts.size and max(rows) <= dynamics.BLOCK_ROWS

    def test_validation(self):
        with pytest.raises(ValidationError):
            tables.sweep([], [0.0])
        with pytest.raises(ValidationError):
            tables.sweep([0.0], [0.0])


class TestWTimeCurves:
    def test_layout_matches_reference_figure(self):
        d_grid = np.arange(0.1, 4.01, 0.1)
        curves = detect.w_time_curves(d_grid, n_max=9)
        assert curves.shape == (10, len(d_grid))

    def test_exact_odd_ratios(self):
        d_grid = np.arange(0.1, 4.0001, 0.1)
        curves = detect.w_time_curves(d_grid, n_max=9)
        for n in range(10):
            assert np.all(curves[n] / curves[0] == float(2 * n + 1))

    def test_d1_values(self):
        curves = detect.w_time_curves([1.0], n_max=9)
        for n in range(10):
            expected = (2 * n + 1) * math.pi / (2.0 * math.sqrt(2.0))
            assert abs(curves[n, 0] - expected) < 1e-12

    def test_monotone_and_ordered(self):
        curves = detect.w_time_curves(np.arange(0.1, 4.01, 0.1), n_max=9)
        assert np.all(np.diff(curves, axis=1) < 0)  # decreasing in d
        assert np.all(np.diff(curves, axis=0) > 0)  # ordered in n

    def test_validation(self):
        with pytest.raises(ValidationError):
            detect.w_time_curves([], 9)
        with pytest.raises(ValidationError):
            detect.w_time_curves([1.0], -1)
        # beyond analytic.EXACT_N_MAX the odd ratios are no longer exact
        with pytest.raises(ValidationError, match="n_max"):
            detect.w_time_curves([1.0], 16)
