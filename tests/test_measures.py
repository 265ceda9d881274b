import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laddyn import analytic, dynamics, linalg, measures, model
from laddyn.detect import ALL_PAIRS
from laddyn.errors import ValidationError

from conftest import evolved, state_with_marginal

ds = st.floats(min_value=0.05, max_value=4.0, allow_nan=False)
times = st.floats(min_value=0.0, max_value=30.0, allow_nan=False)


def bell_vector():
    bell = np.zeros(4, dtype=complex)
    bell[1] = bell[2] = 1 / math.sqrt(2)
    return bell


def pair_12_concurrence(z) -> float:
    """Full-route concurrence of the two-qubit state z z^dagger / tr(z z^dagger)."""
    return float(measures.concurrence_series(state_with_marginal(z)[None], 1, 2)[0])


def w4_state():
    psi = np.zeros(16, dtype=complex)
    psi[list(linalg.ONE_PARTICLE_INDICES)] = 0.5
    return psi


class TestWoottersConcurrence:
    def test_bell_state_maximal(self):
        assert abs(pair_12_concurrence(bell_vector()) - 1.0) < 1e-10

    def test_product_state_zero(self):
        assert pair_12_concurrence([1.0, 0.0, 0.0, 0.0]) == 0.0

    def test_w4_pairs_are_half(self):
        # every reduced pair of the four-site W state carries 2/N = 1/2
        for p, q in ALL_PAIRS:
            assert abs(measures.concurrence_series(w4_state()[None], p, q)[0] - 0.5) < 1e-10

    def test_werner_family_closed_form(self):
        # p |bell><bell| + (1 - p) I/4 has weight (1 + 3p)/4 on the Bell state
        # and (1 - p)/4 on each of three states orthogonal to it
        basis = np.stack([bell_vector(), [0, 1, -1, 0] / np.sqrt(2),
                          [1, 0, 0, 0], [0, 0, 0, 1]], axis=1)
        for p in (0.1, 1 / 3, 0.5, 0.9):
            z = basis * np.sqrt([(1 + 3 * p) / 4, *[(1 - p) / 4] * 3])
            a = linalg.pair_marginal_factors(state_with_marginal(z), 1, 2)
            werner = p * np.outer(bell_vector(), bell_vector().conj()) + (1 - p) * np.eye(4) / 4
            assert np.max(np.abs(a @ a.conj().T - werner)) < 1e-15
            expected = max(0.0, (3 * p - 1) / 2)
            assert abs(pair_12_concurrence(z) - expected) < 1e-12

    @pytest.mark.parametrize("pair", ALL_PAIRS)
    def test_empty_stack_gives_no_values(self, pair):
        # as correlation_series does
        vals = measures.concurrence_series(np.zeros((0, 16), dtype=complex), *pair)
        assert vals.shape == (0,) and vals.dtype == float


class TestOneParticleShortcut:
    def test_initial_amplitudes(self):
        b = np.array([1 / math.sqrt(2), 1 / math.sqrt(2), 0, 0])
        assert measures.concurrence_one_particle(b, 1, 2) == pytest.approx(1.0)
        assert measures.concurrence_one_particle(b, 3, 4) == 0.0

    def test_w_amplitudes_give_half(self):
        b = 0.5 * np.exp(1j * np.array([0.3, -1.0, 2.2, 0.0]))
        for p, q in ALL_PAIRS:
            assert abs(measures.concurrence_one_particle(b, p, q) - 0.5) < 1e-14

    def test_index_validation(self):
        with pytest.raises(ValidationError):
            measures.concurrence_one_particle(np.zeros(4), 2, 2)
        with pytest.raises(ValidationError):
            measures.concurrence_one_particle(np.zeros(3), 1, 2)

    @given(t=times, d=ds)
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_full_route(self, t, d):
        psi = dynamics.evolve(model.propagator(d), t)
        b = dynamics.one_particle_amplitudes(psi)
        for p, q in ALL_PAIRS:
            full = measures.concurrence_series(psi[None], p, q)[0]
            short = measures.concurrence_one_particle(b, p, q)
            assert abs(full - short) < 1e-10


class TestTwoPointCorrelation:
    def test_initial_zz_values(self):
        psi = model.initial_state()
        assert abs(measures.two_point_correlation(psi, 1, 2, "z", "z") + 0.25) < 1e-14
        assert abs(measures.two_point_correlation(psi, 3, 4, "z", "z") - 0.25) < 1e-14

    def test_rung_cross_axis_vanishes(self):
        psi = evolved(0.6, 1.7)
        for pair in ((1, 2), (3, 4)):
            for a, b in (("x", "y"), ("y", "x"), ("x", "z"), ("z", "y")):
                assert abs(measures.two_point_correlation(psi, *pair, a, b)) < 1e-12

    def test_leg_transverse_identity(self):
        # on leg-class pairs the xy part is generally nonzero; what holds is
        # chi_xx^2 + chi_xy^2 = (sin((mu+nu) t / 2) / 8)^2
        d, t = 0.6, 1.7
        sp = analytic.spectral_params(d)
        psi = evolved(d, t)
        xx = measures.two_point_correlation(psi, 1, 3, "x", "x")
        xy = measures.two_point_correlation(psi, 1, 3, "x", "y")
        target = (math.sin((sp.mu + sp.nu) * t / 2.0) / 8.0) ** 2
        assert abs(xx ** 2 + xy ** 2 - target) < 1e-12
        assert abs(xy) > 0.01  # the cross term is genuinely nonzero here

    def test_particle_number_violating_axes_vanish_for_all_pairs(self):
        psi = evolved(1.0, 2.3)
        for p, q in ALL_PAIRS:
            for a, b in (("x", "z"), ("z", "x"), ("y", "z"), ("z", "y")):
                assert abs(measures.two_point_correlation(psi, p, q, a, b)) < 1e-12

    def test_pair_symmetry_exact(self):
        psi = evolved(0.8, 2.1)
        for p, q in ALL_PAIRS:
            for a in ("x", "z"):
                assert measures.two_point_correlation(psi, p, q, a, a) == \
                    measures.two_point_correlation(psi, q, p, a, a)

    def test_validation(self):
        psi = model.initial_state()
        with pytest.raises(ValidationError):
            measures.two_point_correlation(psi, 1, 1, "x", "x")

    def test_empty_stack_gives_no_values(self):
        vals = measures.correlation_series(np.zeros((0, 16), dtype=complex), 1, 2, "z", "z")
        assert vals.shape == (0,)


class TestTotalSpin:
    @pytest.mark.parametrize("t", [0.0, 0.9, 7.7])
    def test_evolved_state_totals(self, t):
        psi = evolved(0.6, t)
        assert abs(measures.total_spin_series(psi[None], "z")[0] + 1.0) < 1e-12
        assert abs(measures.total_spin_series(psi[None], "x")[0]) < 1e-12
        assert abs(measures.total_spin_series(psi[None], "y")[0]) < 1e-12

    def test_all_up_state(self):
        psi = np.zeros(16, dtype=complex)
        psi[15] = 1.0
        assert abs(measures.total_spin_series(psi[None], "z")[0] - 2.0) < 1e-14


_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
#: the dense sigma_y (x) sigma_y that _wootters_from_factors replaced by a signed
#: column permutation, kept as its oracle
_YY = np.kron(_SY, _SY).real

seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)


def _svd_inputs(monkeypatch):
    """The matrices np.linalg.svd is called with, in call order."""
    seen, svd = [], np.linalg.svd

    def recording(a, *args, **kwargs):
        seen.append(np.array(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    return seen


class TestSignedPermutationOracle:
    @given(seed=seeds, n=st.integers(min_value=1, max_value=30),
           rank=st.integers(min_value=1, max_value=4))
    @settings(max_examples=200, deadline=None)
    def test_product_has_the_bits_of_the_dense_product(self, seed, n, rank):
        rng = np.random.default_rng(seed)
        z = rng.normal(size=(n, 4, 4)) + 1j * rng.normal(size=(n, 4, 4))
        z[..., rank:] = 0.0
        # trace z z^dagger, the state's weight, up to 1
        z *= 10.0 ** rng.uniform(-8.0, 0.0, size=(n, 1, 1)) / np.linalg.norm(
            z, axis=(-2, -1), keepdims=True)
        with pytest.MonkeyPatch.context() as mp:
            seen = _svd_inputs(mp)
            conc = measures._wootters_from_factors(z)
        expected = z.swapaxes(-1, -2) @ _YY @ z
        assert len(seen) == 1 and seen[0].tobytes() == expected.tobytes()
        lam = np.linalg.svd(expected, compute_uv=False)
        raw = lam[..., 0] - lam[..., 1:].sum(axis=-1)
        assert conc.tobytes() == np.clip(raw, 0.0, 1.0).tobytes()

    @pytest.mark.parametrize("d", [0.3, 1.0, 3.0])
    def test_evolved_pairs_have_the_bits_of_the_dense_product(self, monkeypatch, d):
        states = dynamics.evolve_states(model.propagator(d), 0.01 * np.arange(300))
        seen = _svd_inputs(monkeypatch)
        for pair in ALL_PAIRS:
            measures.concurrence_series(states, *pair)
        assert len(seen) == len(ALL_PAIRS)
        for pair, w in zip(ALL_PAIRS, seen):
            a = linalg.pair_marginal_factors(states, *pair)
            rhos = a @ a.conj().swapaxes(-1, -2)
            ev, v = np.linalg.eigh(rhos)
            ev = np.where(ev < measures._RANK_TOL, 0.0, ev)
            z = v * np.sqrt(ev)[..., None, :]
            assert w.tobytes() == (z.swapaxes(-1, -2) @ _YY @ z).tobytes(), pair


def _dense_total(psi, alpha):
    # the dense contraction that total_spin_series replaced for S^z_tot, its oracle
    return np.einsum("...i,ij,...j->...", psi.conj(), model.total_spin_operator(alpha), psi).real


class TestTotalSpinOracle:
    @given(seed=seeds, n=st.integers(min_value=1, max_value=30))
    @settings(max_examples=200, deadline=None)
    def test_diagonal_z_has_the_bits_of_the_dense_contraction(self, seed, n):
        rng = np.random.default_rng(seed)
        psi = rng.normal(size=(n, 16)) + 1j * rng.normal(size=(n, 16))
        psi /= np.linalg.norm(psi, axis=1)[:, None]
        for states in (psi, psi[0]):
            for a in model.AXES:
                got = measures.total_spin_series(states, a)
                assert got.tobytes() == _dense_total(states, a).tobytes(), a

    @pytest.mark.parametrize("d", [0.3, 1.0, 3.0])
    def test_evolved_z_has_the_bits_of_the_dense_contraction(self, d):
        states = dynamics.evolve_states(model.propagator(d), 0.01 * np.arange(1000))
        got = measures.total_spin_series(states, "z")
        assert got.tobytes() == _dense_total(states, "z").tobytes()


class TestOracleEquivalence:
    @pytest.mark.parametrize("d", [0.2, 0.6, 1.0, 1.5, 2.0])
    def test_numeric_matches_closed_forms(self, d):
        ts = np.linspace(0.0, 30.0, 241)
        states = dynamics.evolve_states(model.propagator(d), ts)
        for p, q in ALL_PAIRS:
            pc = analytic.classify_pair(p, q)
            cn = measures.concurrence_series(states, p, q)
            ca = analytic.concurrence_formula(pc, ts, d)
            assert np.max(np.abs(cn - ca)) < 1e-9

    @pytest.mark.parametrize("d", [0.2, 1.0, 2.0])
    def test_rung_sum_is_one(self, d):
        ts = np.linspace(0.0, 30.0, 241)
        states = dynamics.evolve_states(model.propagator(d), ts)
        total = (measures.concurrence_series(states, 1, 2)
                 + measures.concurrence_series(states, 3, 4))
        assert np.max(np.abs(total - 1.0)) < 1e-9

    def test_scalar_and_series_paths_agree(self):
        # a stack gives each state the value it has on its own
        states = dynamics.evolve_states(model.propagator(0.6), np.array([0.0, 1.0, 2.7]))
        for p, q in ALL_PAIRS:
            stacked = measures.concurrence_series(states, p, q)
            for psi, val in zip(states, stacked):
                assert abs(measures.concurrence_series(psi[None], p, q)[0] - val) < 1e-14


def _textbook_concurrence(rho):
    """Wootters, PRL 80, 2245 (1998): the square roots of the eigenvalues of
    R = rho (sy (x) sy) rho* (sy (x) sy), in decreasing order, give
    C = max(0, l1 - l2 - l3 - l4).  An oracle that shares no code with measures."""
    r = rho @ _YY @ rho.conj() @ _YY
    lam = np.sort(np.sqrt(np.abs(np.linalg.eigvals(r))))[::-1]
    return max(0.0, lam[0] - lam[1] - lam[2] - lam[3])


def _textbook_marginal(psi, p, q):
    """rho_pq of a pure 4-site state by contracting the other two sites,
    with site p as the more significant qubit."""
    ket = "abcd"
    bra = "".join(ch.upper() if site in (p, q) else ch for site, ch in enumerate(ket, 1))
    out = ket[p - 1] + ket[q - 1] + bra[p - 1] + bra[q - 1]
    t = psi.reshape((2,) * 4)
    return np.einsum(f"{ket},{bra}->{out}", t, t.conj()).reshape(4, 4)


#: the textbook route keeps about half the digits at rank-deficient rho: a zero
#: eigenvalue of R comes out near 1e-16 and its square root near 1e-8 (the
#: largest difference seen on 8,000 random matrices was 9.7e-8)
TEXTBOOK_TOL = 1e-6


class TestTextbookWoottersOracle:
    @given(seed=seeds, rank=st.integers(min_value=1, max_value=4))
    @settings(max_examples=200, deadline=None)
    def test_density_matrices_of_rank_one_to_four(self, seed, rank):
        rng = np.random.default_rng(seed)
        z = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
        # unequal weights keep most mixed states entangled, and some separable
        z *= 10.0 ** rng.uniform(-2.0, 0.0, size=rank)
        rho = z @ z.conj().T
        rho /= np.trace(rho).real
        assert abs(pair_12_concurrence(z) - _textbook_concurrence(rho)) < TEXTBOOK_TOL

    @given(seed=seeds)
    @settings(max_examples=100, deadline=None)
    def test_pure_one_excitation_marginals(self, seed):
        rng = np.random.default_rng(seed)
        b = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi = np.zeros(16, dtype=complex)
        psi[[8, 4, 2, 1]] = b / np.linalg.norm(b)  # |1000>, |0100>, |0010>, |0001>
        for p, q in ALL_PAIRS:
            expected = _textbook_concurrence(_textbook_marginal(psi, p, q))
            got = measures.concurrence_series(psi[None], p, q)[0]
            assert abs(got - expected) < TEXTBOOK_TOL, (p, q)
