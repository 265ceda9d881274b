"""Cross-module invariants checked on randomized inputs."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from laddyn import analytic, dynamics, linalg, measures, model
from laddyn.detect import ALL_PAIRS, LEG_CLASS_PAIRS

from conftest import state_with_marginal


ds = st.floats(min_value=0.05, max_value=4.0, allow_nan=False)
times = st.floats(min_value=0.0, max_value=30.0, allow_nan=False)
seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)


def _random_state(seed, dim=16):
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)


@given(seed=seeds)
@settings(max_examples=25, deadline=None)
def test_eig_reconstruction_random_hermitian(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    m = (a + a.conj().T) / 2
    w, v, _ = dynamics.make_propagator(m, _random_state(seed))
    assert np.max(np.abs((v * w) @ v.conj().T - m)) < 1e-10 * max(1.0, np.max(np.abs(m)))
    assert abs(w.sum() - np.trace(m).real) < 1e-10 * max(1.0, np.max(np.abs(m)))
    assert np.all(np.diff(w) >= 0)


@given(seed=seeds)
@settings(max_examples=25, deadline=None)
def test_partial_trace_is_density_operator(seed):
    psi = _random_state(seed)
    for p, q in ((1, 2), (1, 4), (3, 2)):
        a = linalg.pair_marginal_factors(psi, p, q)
        rho = a @ a.conj().T
        assert abs(np.trace(rho).real - 1.0) < 1e-12
        w = np.linalg.eigvalsh(rho)
        assert w.min() >= -1e-12 and w.max() <= 1.0 + 1e-12


@given(t=times, d=ds)
@settings(max_examples=50, deadline=None)
def test_evolution_preserves_norm_and_sector(t, d):
    psi = dynamics.evolve(model.propagator(d), t)
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
    assert dynamics.sector_leakage(psi) <= 1e-12


@given(t=times, d=ds)
@settings(max_examples=50, deadline=None)
def test_closed_form_matches_numeric_concurrence(t, d):
    psi = dynamics.evolve(model.propagator(d), t)
    for pair in ALL_PAIRS:
        pc = analytic.classify_pair(*pair)
        numeric = measures.concurrence_series(psi[None], *pair)[0]
        assert abs(numeric - analytic.concurrence_formula(pc, t, d)) < 1e-9


@given(t=times, d=ds)
@settings(max_examples=50, deadline=None)
def test_one_particle_shortcut_matches_full_wootters(t, d):
    psi = dynamics.evolve(model.propagator(d), t)
    amps = dynamics.one_particle_amplitudes(psi)
    for pair in ALL_PAIRS:
        fast = measures.concurrence_one_particle(amps, *pair)
        full = measures.concurrence_series(psi[None], *pair)[0]
        assert abs(fast - full) < 1e-12


@given(t=times, d=ds)
@settings(max_examples=50, deadline=None)
def test_leg_transverse_magnitude_identity(t, d):
    # the invariant that actually holds on leg-class pairs: the transverse
    # block has magnitude |sin((mu+nu)t/2)|/8 split between xx and xy
    sp = analytic.spectral_params(d)
    psi = dynamics.evolve(model.propagator(d), t)
    target = (math.sin((sp.mu + sp.nu) * t / 2.0) / 8.0) ** 2
    for pair in LEG_CLASS_PAIRS:
        xx = measures.two_point_correlation(psi, *pair, "x", "x")
        xy = measures.two_point_correlation(psi, *pair, "x", "y")
        yy = measures.two_point_correlation(psi, *pair, "y", "y")
        assert abs(xx ** 2 + xy ** 2 - target) < 1e-10
        assert abs(xx - yy) < 1e-12


log_ds = st.floats(min_value=math.log(1e-2), max_value=math.log(1e2)).map(math.exp)
log_times = st.floats(min_value=math.log(1e-2), max_value=math.log(1e3)).map(math.exp)


@given(t=log_times, d=log_ds)
@settings(max_examples=50, deadline=None)
def test_leg_correlations_exact_form(t, d):
    # an oracle written from the envelopes, not taken from analytic: Re and Im of
    # conj(eta) xi / 16, whose phase depends on d only, through the (1j + d) of xi.
    # The error grows with the phase (mu+nu)t: it stayed below 3.6e-16 (1 + (mu+nu)t)
    # on 1,500 random (d, t)
    omega = math.sqrt(1.0 + d * d)
    s = 2.0 * omega  # mu + nu
    wave = math.sin(s * t / 2.0) / 8.0
    psi = dynamics.evolve(model.propagator(d), t)
    tol = 2e-15 * (1.0 + s * t)
    for axes, expected in (("xx", -(d / omega) * wave), ("yy", -(d / omega) * wave),
                           ("xy", wave / omega), ("yx", -wave / omega)):
        exact = analytic.leg_correlation(axes, t, d)
        assert abs(exact - expected) < tol, axes
        for pair in LEG_CLASS_PAIRS:
            numeric = measures.correlation_series(psi[None], *pair, axes[0], axes[1])[0]
            assert abs(numeric - exact) < tol, (pair, axes)


@given(t=log_times, d=log_ds)
# eigh mixed a degenerate pair across the 1- and 3-excitation sectors at this d,
# and the leaked amplitude left a residual of 1.0114e-13
@example(d=82.63475583856787, t=math.exp(4.4375))
@settings(max_examples=50, deadline=None)
def test_ckw_monogamy_equality(t, d):
    # Coffman, Kundu, Wootters, PRA 61, 052306 (2000): for a pure state with one
    # excitation the tangle of site i with the rest, 4 n_i (1 - n_i), is the sum
    # of its squared pair concurrences; it held to 7.7e-15 on 1,500 random (d, t)
    psi = dynamics.evolve(model.propagator(d), t)
    n = np.abs(dynamics.one_particle_amplitudes(psi)) ** 2
    conc = {pair: measures.concurrence_series(psi[None], *pair)[0] for pair in ALL_PAIRS}
    for i in range(1, 5):
        tangle = sum(c ** 2 for pair, c in conc.items() if i in pair)
        assert abs(tangle - 4.0 * n[i - 1] * (1.0 - n[i - 1])) < 1e-13


@given(t=times, d=ds)
@settings(max_examples=50, deadline=None)
def test_rung_correlations_match_table(t, d):
    psi = dynamics.evolve(model.propagator(d), t)
    for pair, pc in (((1, 2), analytic.PairClass.FIRST_RUNG),
                     ((3, 4), analytic.PairClass.LAST_RUNG)):
        for axes in ("xx", "yy", "zz"):
            numeric = measures.two_point_correlation(psi, *pair, axes[0], axes[1])
            assert abs(numeric - analytic.correlation_formula(pc, axes, t, d)) < 1e-9


@given(seed=seeds, one_excitation=st.booleans())
@settings(max_examples=40, deadline=None)
def test_correlations_match_dense_oracle_bit_for_bit(seed, one_excitation):
    # the dense 16x16 contraction is the oracle; the sign of a zero counts too
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=(64, 16)) + 1j * rng.normal(size=(64, 16))
    if one_excitation:
        outside = np.ones(16, dtype=bool)
        outside[list(linalg.ONE_PARTICLE_INDICES)] = False
        psi[:, outside] = 0.0
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    for pair in ALL_PAIRS:
        for a in model.AXES:
            for b in model.AXES:
                op = model.spin_operator(pair[0], a) @ model.spin_operator(pair[1], b)
                perm, w = measures._pair_product_operator(*pair, a, b)
                rebuilt = np.zeros_like(op)
                rebuilt[np.arange(16), perm] = w
                assert np.array_equal(rebuilt, op)
                assert not perm.flags.writeable and not w.flags.writeable
                for states in (psi, np.asfortranarray(psi)):
                    dense = np.einsum("...i,ij,...j->...", states.conj(), op, states).real
                    fast = measures.correlation_series(states, *pair, a, b)
                    assert np.array_equal(fast.view(np.uint64), dense.view(np.uint64))


@given(t=times, d=ds)
@settings(max_examples=50, deadline=None)
def test_total_spin_conserved(t, d):
    psi = dynamics.evolve(model.propagator(d), t)
    assert abs(measures.total_spin_series(psi[None], "z")[0] + 1.0) < 1e-10
    assert abs(measures.total_spin_series(psi[None], "x")[0]) < 1e-10
    assert abs(measures.total_spin_series(psi[None], "y")[0]) < 1e-10


@given(d=ds)
@settings(max_examples=50, deadline=None)
def test_event_time_structure(d):
    base = analytic.w_times(d, 0)
    for n in (1, 2, 5, 9):
        assert analytic.w_times(d, n) == (2 * n + 1) * base
        assert analytic.transfer_times(d, n) == 2.0 * analytic.w_times(d, n)


@given(seed=seeds)
@settings(max_examples=15, deadline=None)
def test_wootters_unitary_invariance_single_qubit(seed):
    # concurrence is invariant under local unitaries on either qubit
    rng = np.random.default_rng(seed)
    # rho = x x^dagger / tr(x x^dagger) is the (1,2) marginal of state_with_marginal(x),
    # and u rho u^dagger that of state_with_marginal(u x)
    x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    u = np.kron(q, np.eye(2))
    c0, c1 = (measures.concurrence_series(state_with_marginal(z)[None], 1, 2)[0]
              for z in (x, u @ x))
    assert abs(c0 - c1) < 1e-10
