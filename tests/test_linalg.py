import numpy as np
import pytest

from laddyn import analytic, dynamics, linalg, measures, model
from laddyn.errors import ValidationError

from conftest import evolved, random_hermitian, random_state

SY = np.array([[0, -1j], [1j, 0]])


def _spectrum(m):
    """(eigenvalues, eigenvectors) of m as make_propagator takes them, with a unit psi0."""
    psi0 = np.zeros(len(m), dtype=complex)
    psi0[0] = 1.0
    prop = dynamics.make_propagator(m, psi0)
    return prop.eigenvalues, prop.eigenvectors


class TestHermitianEig:
    """The eigendecomposition make_propagator takes, and check_hermitian's refusals."""

    def test_identity_eigenvalues(self):
        w, _ = _spectrum(np.eye(4))
        np.testing.assert_allclose(w, np.ones(4))

    def test_pauli_y_eigenvalues(self):
        w, _ = _spectrum(SY)
        np.testing.assert_allclose(w, [-1.0, 1.0], atol=1e-14)

    def test_random_hermitian_reconstruction(self, rng):
        m = random_hermitian(rng, 16)
        w, v = _spectrum(m)
        recon = (v * w) @ v.conj().T
        assert np.max(np.abs(recon - m)) < 1e-10

    def test_eigenvalues_ascending_and_orthonormal(self, rng):
        m = random_hermitian(rng, 16)
        w, v = _spectrum(m)
        assert np.all(np.diff(w) >= 0)
        assert np.max(np.abs(v.conj().T @ v - np.eye(16))) < 1e-12
        for i in range(16):
            assert np.max(np.abs(m @ v[:, i] - w[i] * v[:, i])) < 1e-10

    def test_eigenvalue_sum_equals_trace(self, rng):
        for n in (2, 4, 16):
            m = random_hermitian(rng, n)
            w, _ = _spectrum(m)
            assert abs(w.sum() - np.trace(m).real) < 1e-10

    def test_non_square_rejected(self):
        with pytest.raises(ValidationError, match="not square"):
            linalg.check_hermitian(np.zeros((2, 3)))
        with pytest.raises(ValidationError, match=r"expected a matrix, got array of shape \(16,\)"):
            linalg.check_hermitian(np.zeros(16))

    def test_non_hermitian_rejected_with_entry(self):
        m = np.eye(3, dtype=complex)
        m[0, 2] = 1e-3
        with pytest.raises(ValidationError, match=r"\(0,2\)"):
            linalg.check_hermitian(m)


def pair_marginal(psi, p, q):
    """rho_pq = A A^dagger of the factor A that pair_marginal_factors returns."""
    a = linalg.pair_marginal_factors(psi, p, q)
    return a @ a.conj().swapaxes(-1, -2)


class TestPartialTrace:
    def test_initial_state_first_pair_is_bell(self):
        rho = pair_marginal(model.initial_state(), 1, 2)
        bell = np.zeros(4, dtype=complex)
        bell[1] = bell[2] = 1 / np.sqrt(2)
        np.testing.assert_allclose(rho, np.outer(bell, bell.conj()), atol=1e-14)
        assert abs(np.trace(rho).real - 1.0) < 1e-12
        assert abs(np.trace(rho @ rho).real - 1.0) < 1e-12  # purity

    def test_initial_state_last_pair_is_vacuum(self):
        rho = pair_marginal(model.initial_state(), 3, 4)
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = 1.0
        np.testing.assert_allclose(rho, expected, atol=1e-14)

    def test_evolved_leg_pair_concurrence(self):
        # frozen from the closed-form leg concurrence |sin((mu+nu)t/2)|/2
        # at d=0.6, t=1.0, cross-checked against the full numeric route
        c = measures.concurrence_series(evolved(0.6, 1.0)[None], 1, 3)[0]
        assert abs(c - 0.45962879487657898) < 1e-10

    def test_validation(self):
        psi = model.initial_state()
        for p, q in ((2, 2), (0, 1), (1, 5)):
            with pytest.raises(ValidationError):
                linalg.pair_marginal_factors(psi, p, q)
        with pytest.raises(ValidationError, match="amplitudes"):
            linalg.pair_marginal_factors(psi[:8], 1, 2)
        # an unnormalized state gives a marginal of trace 4
        with pytest.raises(ValidationError, match="trace"):
            measures.concurrence_series((psi * 2.0)[None], 1, 2)

    def test_random_state_gives_valid_density(self, rng):
        for p, q in ((1, 2), (2, 4), (3, 1)):
            rho = pair_marginal(random_state(rng), p, q)
            assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
            assert abs(np.trace(rho).real - 1.0) < 1e-12
            w = np.linalg.eigvalsh(rho)
            assert w.min() > -1e-12 and w.max() < 1 + 1e-12

    def test_product_state_recovered_exactly(self, rng):
        # psi = a on the pair, b on the complement: the reduction returns |a><a|
        a = random_state(rng, 4)
        b = random_state(rng, 4)
        cases = {
            (1, 2): np.einsum("i,j->ij", a, b).reshape(16),
            (3, 4): np.einsum("j,i->ij", a, b).reshape(16),
            (1, 3): np.einsum("ik,jl->ijkl", a.reshape(2, 2), b.reshape(2, 2)).reshape(16),
        }
        for (p, q), psi in cases.items():
            rho = pair_marginal(psi, p, q)
            assert np.max(np.abs(rho - np.outer(a, a.conj()))) < 1e-12

    def test_pair_order_swaps_subsystems(self, rng):
        psi = random_state(rng)
        r12 = pair_marginal(psi, 1, 2)
        r21 = pair_marginal(psi, 2, 1)
        swap = np.zeros((4, 4))
        for s1 in range(2):
            for s2 in range(2):
                swap[2 * s2 + s1, 2 * s1 + s2] = 1.0
        np.testing.assert_allclose(r21, swap @ r12 @ swap, atol=1e-14)


def test_basis_index_convention():
    assert linalg.basis_index((1, 0, 0, 0)) == 8
    assert linalg.basis_index((0, 1, 0, 0)) == 4
    assert linalg.basis_index((0, 0, 1, 0)) == 2
    assert linalg.basis_index((0, 0, 0, 1)) == 1
    assert linalg.basis_index((1, 1, 1, 1)) == 15
    assert linalg.ONE_PARTICLE_INDICES == (8, 4, 2, 1)


#: callers of the one site/pair check, each fed a pair (p, q)
SITE_PAIR_ENTRY_POINTS = {
    "pair_marginal_factors": lambda p, q: linalg.pair_marginal_factors(
        model.initial_state(), p, q),
    "concurrence_series": lambda p, q: measures.concurrence_series(
        model.initial_state()[None], p, q),
    "correlation_series": lambda p, q: measures.correlation_series(
        model.initial_state()[None], p, q, "x", "x"),
    "concurrence_one_particle": lambda p, q: measures.concurrence_one_particle(
        np.full(4, 0.5), p, q),
    "classify_pair": analytic.classify_pair,
}


class TestCheckSites:
    @pytest.mark.parametrize("pair", [(0, 2), (1, 1), (1, 5), (1.5, 2), ("1", 2)])
    @pytest.mark.parametrize("entry", sorted(SITE_PAIR_ENTRY_POINTS))
    def test_bad_pair_rejected_everywhere(self, entry, pair):
        with pytest.raises(ValidationError):
            SITE_PAIR_ENTRY_POINTS[entry](*pair)

    def test_accepts_numpy_integers_as_int(self):
        sites = linalg.check_sites(np.int64(2), np.int32(1))
        assert sites == (2, 1)
        assert all(type(s) is int for s in sites)

    def test_rejects_bool(self):
        with pytest.raises(ValidationError):
            linalg.check_sites(True, 2)
