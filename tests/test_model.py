import itertools
import math

import numpy as np
import pytest

from laddyn import analytic, dynamics, linalg, measures, model
from laddyn.errors import ValidationError


def candidate_leg_orientations():
    """All sign choices of the leg bonds (4 candidates for 2 legs)."""
    return tuple(itertools.product(*(((i, j), (j, i)) for (i, j) in model.LEG_BONDS)))


def propagator_with_legs(legs, d):
    """The propagator of the initial state under H(d), built with model.LEG_BONDS = legs."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "LEG_BONDS", legs)
        return model.propagator(d)


def matching_leg_orientations(tol=1e-8, d=0.6):
    """The candidate orientations whose evolved amplitudes match eta/xi within tol."""
    root8 = 2.0 * np.sqrt(2.0)
    matches = []
    for cand in candidate_leg_orientations():
        prop = propagator_with_legs(cand, d)
        worst = 0.0
        for t in (0.5, 1.0, 2.0):
            psi = dynamics.evolve(prop, t)
            eta, xi = analytic.eta_xi(t, d)
            expected = np.zeros(linalg.DIM, dtype=complex)
            expected[list(linalg.ONE_PARTICLE_INDICES)] = np.array([eta, eta, xi, xi]) / root8
            worst = max(worst, float(np.max(np.abs(psi - expected))))
        if worst <= tol:
            matches.append(cand)
    return matches


class TestParamsAndGraph:
    def test_params_validation(self):
        with pytest.raises(ValidationError):
            model.ModelParams(d=-0.1)
        assert model.ModelParams(d=0.0).d == 0.0

    def test_default_graph(self):
        assert model.RUNG_BONDS == ((1, 2), (2, 3), (3, 4), (4, 1))
        assert model.LEG_BONDS == ((1, 3), (2, 4))

    def test_relabelled_default_graph_builds_the_same_hamiltonian(self, monkeypatch):
        # rung order, the order within a rung and the order of the legs do not change H
        params = model.ModelParams(d=1.0)
        h = model.build_hamiltonian(params)
        monkeypatch.setattr(model, "RUNG_BONDS", ((4, 1), (4, 3), (2, 1), (3, 2)))
        monkeypatch.setattr(model, "LEG_BONDS", ((2, 4), (1, 3)))
        np.testing.assert_array_equal(model.build_hamiltonian(params), h)


class TestSpinOperator:
    def test_traceless(self):
        for axis in model.AXES:
            assert abs(np.trace(model.spin_operator(1, axis))) < 1e-15

    def test_up_state_is_plus_half_eigenstate(self):
        psi = np.zeros(16)
        psi[linalg.basis_index((1, 0, 0, 0))] = 1.0
        out = model.spin_operator(1, "z") @ psi
        np.testing.assert_allclose(out, 0.5 * psi, atol=1e-15)

    def test_angular_momentum_algebra(self):
        sx, sy, sz = (model.spin_operator(2, a) for a in "xyz")
        comm = sx @ sy - sy @ sx
        assert np.max(np.abs(comm - 1j * sz)) < 1e-14

    def test_spectrum(self):
        w = np.linalg.eigvalsh(model.spin_operator(3, "y"))
        np.testing.assert_allclose(np.sort(w), [-0.5] * 8 + [0.5] * 8, atol=1e-14)

    def test_validation(self):
        with pytest.raises(ValidationError):
            model.spin_operator(0, "x")
        with pytest.raises(ValidationError):
            model.spin_operator(1, "w")


class TestHamiltonian:
    def test_xx_hopping_element_at_d0(self):
        h = model.build_hamiltonian(model.ModelParams(d=0.0))
        i = linalg.basis_index((1, 0, 0, 0))
        j = linalg.basis_index((0, 1, 0, 0))
        assert abs(h[i, j] - 0.5) < 1e-15

    def test_vacuum_untouched(self):
        for d in (0.0, 0.6, 2.0):
            h = model.build_hamiltonian(model.ModelParams(d=d))
            assert h[0, 0] == 0.0

    def test_sector_eigenvalues_at_d1_exact_surds(self):
        # oracle: full 16x16 diagonalization restricted by sector projection,
        # against the exact surds (sqrt2 +- 1)/2
        h1 = model.one_particle_hamiltonian(model.ModelParams(d=1.0))
        w = np.sort(np.linalg.eigvalsh(h1))
        r2 = math.sqrt(2.0)
        expected = np.sort([(r2 + 1) / 2, -(r2 + 1) / 2, (r2 - 1) / 2, -(r2 - 1) / 2])
        np.testing.assert_allclose(w, expected, atol=1e-10)

    @pytest.mark.parametrize("d", [0.0, 0.3, 1.0, 2.7, 4.0])
    def test_hermitian_over_coupling_range(self, d):
        h = model.build_hamiltonian(model.ModelParams(d=d))
        assert np.max(np.abs(h - h.conj().T)) < 1e-14

    @pytest.mark.parametrize("d", [0.2, 0.6, 1.5, 3.3])
    def test_sector_identities_from_numerics(self, d):
        w = np.sort(np.linalg.eigvalsh(model.one_particle_hamiltonian(model.ModelParams(d=d))))
        mu, nu = 2 * w[-1], 2 * w[-2]
        assert abs(mu * nu - d * d) < 1e-10
        assert abs(mu ** 2 + nu ** 2 - 4 - 2 * d * d) < 1e-10

    def test_commutes_with_total_magnetization(self):
        sz = model.total_spin_operator("z")
        for d in (0.0, 0.6, 2.0):
            h = model.build_hamiltonian(model.ModelParams(d=d))
            assert np.max(np.abs(h @ sz - sz @ h)) < 1e-14


class TestOneParticleBlock:
    def test_d0_ring_hopping_matrix(self):
        h1 = model.one_particle_hamiltonian(model.ModelParams(d=0.0))
        expected = 0.5 * np.array(
            [[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]], dtype=complex
        )
        np.testing.assert_allclose(h1, expected, atol=1e-15)

    def test_traceless(self):
        assert abs(np.trace(model.one_particle_hamiltonian(model.ModelParams(d=1.7)))) < 1e-15

    def test_spectrum_is_subset_of_full(self):
        params = model.ModelParams(d=0.6)
        w_full = np.linalg.eigvalsh(model.build_hamiltonian(params))
        w_block = np.linalg.eigvalsh(model.one_particle_hamiltonian(params))
        for lam in w_block:
            assert np.min(np.abs(w_full - lam)) < 1e-10

    def test_matches_spectral_params_at_0_6(self):
        sp = analytic.spectral_params(0.6)
        w = np.sort(np.linalg.eigvalsh(model.one_particle_hamiltonian(model.ModelParams(d=0.6))))
        expected = np.sort([sp.mu / 2, -sp.mu / 2, sp.nu / 2, -sp.nu / 2])
        np.testing.assert_allclose(w, expected, atol=1e-10)


class TestInitialState:
    def test_amplitudes(self):
        psi = model.initial_state()
        assert abs(psi[linalg.basis_index((1, 0, 0, 0))] - 1 / math.sqrt(2)) < 1e-15
        assert abs(psi[linalg.basis_index((0, 1, 0, 0))] - 1 / math.sqrt(2)) < 1e-15
        assert psi[linalg.basis_index((0, 0, 1, 0))] == 0.0
        assert abs(np.vdot(psi, psi) - 1.0) < 1e-15

    def test_first_pair_fully_entangled(self):
        c = measures.concurrence_series(model.initial_state()[None], 1, 2)[0]
        assert abs(c - 1.0) < 1e-10


class TestCalibration:
    def test_four_candidates(self):
        assert len(candidate_leg_orientations()) == 4

    def test_selects_frozen_default(self):
        # exactly one of the four orientations matches eta/xi, and it is the default's
        [legs] = matching_leg_orientations()
        assert legs == model.LEG_BONDS

    def test_orientation_is_distinguishable(self):
        # flipping both legs leaves every |amplitude| invariant, so only the
        # complex amplitudes can tell the orientations apart
        flipped = tuple((j, i) for (i, j) in model.LEG_BONDS)
        prop = propagator_with_legs(flipped, 0.6)
        psi = dynamics.evolve(prop, 1.0)
        eta, xi = analytic.eta_xi(1.0, 0.6)
        expected = np.zeros(16, dtype=complex)
        expected[[8, 4]] = eta / (2 * math.sqrt(2))
        expected[[2, 1]] = xi / (2 * math.sqrt(2))
        assert np.max(np.abs(psi - expected)) > 0.1
        assert np.max(np.abs(np.abs(psi) - np.abs(expected))) < 1e-12

    def test_unique_match_required(self):
        # impossible tolerance: nothing matches, so the match above is not vacuous
        assert matching_leg_orientations(tol=1e-30) == []


class TestPropagatorFactory:
    def test_matches_direct_construction(self):
        h = model.build_hamiltonian(model.ModelParams(d=0.7))
        direct = dynamics.make_propagator(h, model.initial_state())
        built = model.propagator(0.7)
        np.testing.assert_array_equal(built.eigenvalues, direct.eigenvalues)
        np.testing.assert_array_equal(built.eigenvectors, direct.eigenvectors)
        np.testing.assert_array_equal(built.coefficients, direct.coefficients)
