import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from laddyn import analytic, dynamics, linalg, model
from laddyn.errors import SectorLeakageError, ValidationError


times = st.floats(min_value=-30.0, max_value=30.0, allow_nan=False)

#: S^z_tot sector of each basis state, its number of up spins
SECTOR_OF = np.array([bin(i).count("1") for i in range(16)])


def sector_mixing(eigenvectors) -> float:
    """Largest weight an eigenvector has outside its main S^z_tot sector."""
    weights = np.array([np.sum(np.abs(eigenvectors[SECTOR_OF == k]) ** 2, axis=0)
                        for k in range(5)])
    return float(np.max(weights.sum(axis=0) - weights.max(axis=0)))


class TestMakePropagator:
    def test_zero_hamiltonian_is_identity_evolution(self):
        psi0 = model.initial_state()
        prop = dynamics.make_propagator(np.zeros((16, 16)), psi0)
        np.testing.assert_allclose(dynamics.evolve(prop, 7.3), psi0, atol=1e-14)

    def test_coefficients_normalized(self):
        prop = model.propagator(0.6)
        assert abs(np.sum(np.abs(prop.coefficients) ** 2) - 1.0) < 1e-12

    def test_coefficients_live_in_one_particle_sector(self):
        prop = model.propagator(0.6)
        v = prop.eigenvectors
        sector_weight = np.sum(np.abs(v[list(linalg.ONE_PARTICLE_INDICES), :]) ** 2, axis=0)
        # eigenvectors with no one-particle support must carry no coefficient
        outside = np.abs(prop.coefficients)[sector_weight < 1e-12]
        assert outside.size > 0 and np.max(outside, initial=0.0) < 1e-12

    def test_sector_mixed_eigensystem_is_rebuilt(self):
        # eigh of the whole H mixed a degenerate pair across the iso-spectral 1- and
        # 3-excitation sectors here (1.15e-2 of one eigenvector's weight), so the
        # evolved state leaked 7.7e-23 by t = 1e4, growing linearly in t
        d = 65.43729032048088
        h = model.build_hamiltonian(model.ModelParams(d=d))
        _, raw_v = np.linalg.eigh(h)
        assert sector_mixing(raw_v) > 1e-2
        prop = model.propagator(d)
        for col in prop.eigenvectors.T:
            assert len(set(SECTOR_OF[col != 0])) == 1
        np.testing.assert_allclose((prop.eigenvectors * prop.eigenvalues)
                                   @ prop.eigenvectors.conj().T, h, atol=1e-13)
        assert np.all(np.diff(prop.eigenvalues) >= 0)
        assert dynamics.sector_leakage(dynamics.evolve(prop, 1e4)) == 0.0
        assert dynamics.sector_leakage(dynamics.evolve_states(prop, [1e3, 1e4])) == 0.0

    def test_input_validation(self):
        with pytest.raises(ValidationError):
            dynamics.make_propagator(np.zeros((16, 16)), np.ones(16))
        m = np.zeros((16, 16), dtype=complex)
        m[0, 1] = 1.0
        with pytest.raises(ValidationError):
            dynamics.make_propagator(m, model.initial_state())


#: the d values of the benchmark's canonical workloads: the sweep grid
#: 0.1:4.0:0.1 (built as the CLI builds it), evolve, events and verify
CANONICAL_DS = sorted({*(0.1 + k * 0.1 for k in range(40)), 0.6, 0.3, 1.0, 3.0,
                       0.2, 1.5, 2.0})


class TestSectorGate:
    """make_propagator rebuilds the eigensystem only where eigh mixes sectors."""

    @staticmethod
    def _eigensystems(d):
        h = model.build_hamiltonian(model.ModelParams(d=d))
        return np.linalg.eigh(h), dynamics.make_propagator(h, model.initial_state())

    @pytest.mark.parametrize("d", CANONICAL_DS)
    def test_canonical_d_keeps_the_eigh_bits(self, d):
        (raw_w, raw_v), prop = self._eigensystems(d)
        assert sector_mixing(raw_v) <= dynamics.MIXING_TOL
        assert prop.eigenvalues.tobytes() == raw_w.tobytes()
        assert prop.eigenvectors.tobytes() == raw_v.tobytes()

    @given(d=st.floats(min_value=math.log(1e-2), max_value=math.log(3e2)).map(math.exp))
    @example(d=65.43729032048088)
    @example(d=82.63475583856787)
    @settings(max_examples=100, deadline=None)
    def test_unmixed_eigensystem_is_kept_bit_for_bit(self, d):
        (raw_w, raw_v), prop = self._eigensystems(d)
        if sector_mixing(raw_v) <= dynamics.MIXING_TOL:
            assert prop.eigenvalues.tobytes() == raw_w.tobytes()
            assert prop.eigenvectors.tobytes() == raw_v.tobytes()
        else:
            for col in prop.eigenvectors.T:
                assert len(set(SECTOR_OF[col != 0])) == 1
            np.testing.assert_allclose(prop.eigenvalues, raw_w, atol=1e-12)

    def test_gate_needs_a_sector_conserving_16x16_matrix(self):
        # an element between sectors, or another size, keeps eigh's eigensystem
        rng = np.random.default_rng(7)
        for n in (4, 16):
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            m = (a + a.conj().T) / 2
            psi = np.zeros(n, dtype=complex)
            psi[0] = 1.0
            _, raw_v = np.linalg.eigh(m)
            prop = dynamics.make_propagator(m, psi)
            assert prop.eigenvectors.tobytes() == raw_v.tobytes()


class TestEvolve:
    def test_time_zero_returns_initial(self):
        prop = model.propagator(0.6)
        np.testing.assert_allclose(dynamics.evolve(prop, 0.0), model.initial_state(),
                                   atol=1e-12)

    def test_complete_transfer_at_d_0_6(self):
        t_tr = analytic.transfer_times(0.6, 0)
        psi = dynamics.evolve(model.propagator(0.6), t_tr)
        p = np.abs(psi) ** 2
        assert abs(p[linalg.basis_index((0, 0, 1, 0))] - 0.5) < 1e-12
        assert abs(p[linalg.basis_index((0, 0, 0, 1))] - 0.5) < 1e-12
        others = np.delete(p, [1, 2])
        assert np.max(others) <= 1e-18

    def test_amplitudes_match_closed_form_d1(self):
        psi = dynamics.evolve(model.propagator(1.0), 1.3)
        eta, xi = analytic.eta_xi(1.3, 1.0)
        expected = np.zeros(16, dtype=complex)
        expected[[8, 4]] = eta / (2 * math.sqrt(2))
        expected[[2, 1]] = xi / (2 * math.sqrt(2))
        assert np.max(np.abs(psi - expected)) < 1e-9

    def test_nonfinite_time_rejected(self):
        with pytest.raises(ValidationError):
            dynamics.evolve(model.propagator(0.6), float("nan"))

    def test_evolve_each_stacks_the_evolve_calls(self, monkeypatch):
        # the states the event checks are pinned to, one evolve each, through the
        # module's evolve, so a patch or a tracing wrapper of it sees every call
        prop, ts = model.propagator(0.6), [0.0, 1.3, 2.7]
        expected = np.array([dynamics.evolve(prop, t) for t in ts])
        calls = []
        evolve = dynamics.evolve
        monkeypatch.setattr(dynamics, "evolve", lambda p, t: calls.append(t) or evolve(p, t))
        assert dynamics.evolve_each(prop, ts).tobytes() == expected.tobytes()
        assert calls == ts
        assert dynamics.evolve_each(prop, []).shape == (0, linalg.DIM)


class TestEvolveSeries:
    """States on an inclusive time grid: time_grid plus evolve_states."""

    def test_grid_layout(self):
        assert dynamics.time_grid(1.0, 0.5).tolist() == [0.0, 0.5, 1.0]

    def test_norms_and_pointwise_agreement(self):
        prop = model.propagator(1.5)
        ts = dynamics.time_grid(3.0, 0.25)
        for t, psi in zip(ts, dynamics.evolve_states(prop, ts)):
            assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
            np.testing.assert_allclose(psi, dynamics.evolve(prop, t), atol=1e-13)

    def test_bad_dt(self):
        with pytest.raises(ValidationError, match="dt must be positive"):
            dynamics.time_grid(1.0, 0.0)
        for t_max in (0.0, -1.0, math.nan):
            with pytest.raises(ValidationError, match="t_max must be positive"):
                dynamics.time_grid(t_max, 0.1)

    @pytest.mark.parametrize("dt", [math.inf, math.nan])
    def test_non_finite_dt(self, dt):
        # a dt of inf gave the grid [nan], with a numpy RuntimeWarning
        with pytest.raises(ValidationError, match=f"dt must be finite, got {dt}"):
            dynamics.time_grid(1.0, dt)

    def test_budget_counts_every_d_value(self):
        # 333 grids of 3001 points fit in MAX_GRID_POINTS, 334 do not
        assert dynamics.time_grid(30.0, 0.01, 333).size == 3001
        message = "grid of 334 d values x 3001 times has more than 1000000 points"
        with pytest.raises(ValidationError, match=message):
            dynamics.time_grid_points(30.0, 0.01, 334)
        with pytest.raises(ValidationError, match=message):
            dynamics.time_grid(30.0, 0.01, 334)

    def test_grid_limit(self):
        limit = dynamics.MAX_GRID_POINTS
        assert dynamics.grid_points(0.0, limit - 1.0, 1.0) == limit
        for stop in (float(limit), math.inf, math.nan):
            with pytest.raises(ValidationError):
                dynamics.grid_points(0.0, stop, 1.0)
        with pytest.raises(ValidationError):
            dynamics.time_grid(1e18, 1.0)


class TestEvolvedBlocks:
    @pytest.mark.parametrize("d", [0.0, 0.6, 3.0])
    @pytest.mark.parametrize("n", [1, 2, 3, dynamics.BLOCK_ROWS, dynamics.BLOCK_ROWS + 1,
                                   2 * dynamics.BLOCK_ROWS + 1, 4096, 4097, 8193, 30001])
    def test_blocks_tile_the_grid_with_whole_grid_bits(self, n, d):
        # every table and the event scan are pinned to the bits of one whole-grid
        # product; a one-row product may differ, so no block may have one row.  A
        # block's states stay below glibc's 128 KiB mmap threshold.
        prop = model.propagator(d)
        ts = 0.01 * np.arange(n)
        rows, states = zip(*dynamics.evolved_blocks(prop, ts))
        assert [r.start for r in rows] == [0, *(r.stop for r in rows[:-1])]
        assert rows[-1].stop == n
        sizes = [r.stop - r.start for r in rows]
        assert len(sizes) == -(-n // dynamics.BLOCK_ROWS)
        assert max(sizes) <= dynamics.BLOCK_ROWS
        assert n == 1 or min(sizes) > 1
        assert [len(s) for s in states] == sizes
        assert all(s.nbytes < 128 * 1024 for s in states)
        assert np.array_equal(np.concatenate(states), dynamics.evolve_states(prop, ts))


def _exp_phase_states(prop, ts):
    # the complex-exponential phases that evolve_states replaced by cos - i sin,
    # kept as its oracle
    phases = np.exp(-1j * np.outer(ts, prop.eigenvalues))
    return (phases * prop.coefficients) @ prop.eigenvectors.T


# |t| log-uniform in [1e-6, 1e9], either sign, and t = 0
signed_times = st.one_of(
    st.just(0.0),
    st.floats(min_value=math.log(1e-6), max_value=math.log(1e9)).map(math.exp).flatmap(
        lambda t: st.sampled_from([t, -t])),
)


class TestPhaseOracle:
    @given(d=st.one_of(st.just(0.0),
                       st.floats(min_value=math.log(1e-2), max_value=math.log(1e6)).map(math.exp)),
           ts=st.lists(signed_times, min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_states_have_the_bits_of_the_exponential_form(self, d, ts):
        # one-row stacks included: the phases are elementwise, so the rows agree
        # whatever path the product takes
        prop = model.propagator(d)
        states = dynamics.evolve_states(prop, ts)
        expected = _exp_phase_states(prop, np.asarray(ts))
        assert states.dtype == expected.dtype and states.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("d", [0.3, 1.0, 3.0])
    def test_grid_states_have_the_bits_of_the_exponential_form(self, d):
        prop = model.propagator(d)
        ts = 0.01 * np.arange(dynamics.BLOCK_ROWS)
        assert dynamics.evolve_states(prop, ts).tobytes() == _exp_phase_states(prop, ts).tobytes()


class TestSectorLeakage:
    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
           n=st.integers(min_value=1, max_value=20),
           weight=st.floats(min_value=math.log(1e-30), max_value=0.0).map(math.exp))
    @settings(max_examples=100, deadline=None)
    def test_same_decision_as_the_modulus_form(self, seed, n, weight):
        # re^2 + im^2 replaced abs()**2; both round a sum of 12 squares, so they
        # differ by a few ulps and decide alike away from the tolerance
        rng = np.random.default_rng(seed)
        psi = rng.normal(size=(n, 16)) + 1j * rng.normal(size=(n, 16))
        outside = np.ones(16, dtype=bool)
        outside[list(linalg.ONE_PARTICLE_INDICES)] = False
        psi[:, outside] *= math.sqrt(weight) / np.linalg.norm(psi[:, outside], axis=1)[:, None]
        modulus = float(np.sum(np.abs(psi[..., outside]) ** 2, axis=-1).max())
        leaked = dynamics.sector_leakage(psi)
        ulps = 8 * np.finfo(float).eps
        assert abs(leaked - modulus) <= ulps * modulus
        tol = dynamics.DEFAULT_LEAKAGE_TOL
        assert (leaked > tol) == (modulus > tol) or abs(modulus - tol) <= ulps * tol


class TestOneParticleAmplitudes:
    def test_initial_state(self):
        b = dynamics.one_particle_amplitudes(model.initial_state())
        np.testing.assert_allclose(b, [1 / math.sqrt(2), 1 / math.sqrt(2), 0, 0],
                                   atol=1e-15)

    def test_two_particle_state_raises(self):
        psi = np.zeros(16, dtype=complex)
        psi[linalg.basis_index((1, 1, 0, 0))] = 1.0
        with pytest.raises(SectorLeakageError) as err:
            dynamics.one_particle_amplitudes(psi)
        assert err.value.leaked == pytest.approx(1.0)

    @pytest.mark.parametrize("d", [0.2, 1.0, 2.0])
    def test_equal_moduli_at_w_times(self, d):
        psi = dynamics.evolve(model.propagator(d), analytic.w_times(d, 0))
        b = dynamics.one_particle_amplitudes(psi)
        np.testing.assert_allclose(np.abs(b), np.full(4, 0.5), atol=1e-9)


class TestInvariants:
    @pytest.mark.parametrize("d", [0.2, 0.6, 1.0, 1.5, 2.0])
    def test_unitarity_and_leakage_over_grid(self, d):
        states = dynamics.evolve_states(model.propagator(d), np.arange(0.0, 30.001, 0.25))
        norms = np.linalg.norm(states, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-12
        assert dynamics.sector_leakage(states) <= 1e-12

    @given(t1=times, t2=times)
    @settings(max_examples=25, deadline=None)
    def test_composition(self, t1, t2):
        prop = model.propagator(0.6)
        h = model.build_hamiltonian(model.ModelParams(d=0.6))
        psi_mid = dynamics.evolve(prop, t1)
        prop2 = dynamics.make_propagator(h, psi_mid)
        together = dynamics.evolve(prop, t1 + t2)
        stepped = dynamics.evolve(prop2, t2)
        assert np.max(np.abs(together - stepped)) < 1e-10

    @pytest.mark.parametrize("d", [0.2, 1.0, 2.0])
    def test_energy_conservation(self, d):
        h = model.build_hamiltonian(model.ModelParams(d=d))
        states = dynamics.evolve_states(model.propagator(d), np.linspace(0, 30, 301))
        energy = np.einsum("ti,ij,tj->t", states.conj(), h, states).real
        assert np.ptp(energy) < 1e-10

    @given(t=times)
    @settings(max_examples=50, deadline=None)
    def test_amplitude_pair_symmetry(self, t):
        b = dynamics.one_particle_amplitudes(dynamics.evolve(model.propagator(0.9), t))
        assert abs(b[0] - b[1]) < 1e-10
        assert abs(b[2] - b[3]) < 1e-10
