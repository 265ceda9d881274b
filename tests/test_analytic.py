import math
from decimal import Decimal, getcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laddyn import analytic
from laddyn.analytic import PairClass
from laddyn.errors import DomainError, ValidationError

ds = st.floats(min_value=1e-3, max_value=4.0, allow_nan=False)
times = st.floats(min_value=0.0, max_value=30.0, allow_nan=False)


class TestSpectralParams:
    def test_d_equals_one_exact_surds(self):
        sp = analytic.spectral_params(1.0)
        assert abs(sp.omega - math.sqrt(2.0)) < 1e-15
        assert abs(sp.mu - (1.0 + math.sqrt(2.0))) < 1e-14
        assert abs(sp.nu - (math.sqrt(2.0) - 1.0)) < 1e-14

    def test_small_d_series_against_high_precision(self):
        # independent oracle: 50-digit decimal evaluation of the subtractive form
        getcontext().prec = 50
        d = Decimal("0.001")
        omega = (1 + d * d).sqrt()
        nu_exact = (2 + d * d - 2 * omega).sqrt()
        nu = analytic.spectral_params(1e-3).nu
        assert abs(nu - float(nu_exact)) < 1e-18
        assert abs(nu - (1e-3) ** 2 / 2.0) < 1e-12  # leading order d^2/2

    def test_product_identity_at_0_6(self):
        sp = analytic.spectral_params(0.6)
        assert abs(sp.mu * sp.nu - 0.36) < 1e-12

    def test_frozen_values_at_0_6(self):
        sp = analytic.spectral_params(0.6)
        assert abs(sp.omega - 1.16619037896906) < 1e-14
        assert abs(sp.mu - 2.16619037896906) < 1e-14
        assert abs(sp.nu - 0.16619037896906011) < 1e-14

    @given(d=ds)
    def test_invariants(self, d):
        sp = analytic.spectral_params(d)
        assert sp.mu >= sp.nu >= 0.0
        assert abs(sp.mu * sp.nu - d * d) < 1e-12
        assert abs(sp.mu ** 2 + sp.nu ** 2 - 4.0 - 2.0 * d * d) < 1e-10 * (1 + d * d)

    @pytest.mark.parametrize("bad", [0.0, -0.1, -3.0])
    def test_domain_error(self, bad):
        with pytest.raises(DomainError):
            analytic.spectral_params(bad)

    def test_domain_error_where_d_squared_is_not_normal(self):
        # below sqrt of the smallest normal float nu underflows and eta_xi divides
        # by zero; above the cube root of the largest one omega*d*d overflows, and
        # |eta|^2 + |xi|^2 - 4 was 4.0 at d = 1e103
        for bad in (1e-170, 1e-154, 1e103, 1e120, 2e154, 1e300, math.inf, math.nan):
            with pytest.raises(DomainError):
                analytic.spectral_params(bad)
        for d in (1.5e-154, 1e-150, 1e100):
            eta, xi = analytic.eta_xi(0.7, d)
            assert abs(abs(eta) ** 2 + abs(xi) ** 2 - 4.0) < 1e-14


class TestEtaXi:
    @given(log_d=st.floats(min_value=math.log(1.5e-154), max_value=math.log(5.6e102)),
           t=st.floats(min_value=0.0, max_value=100.0))
    @settings(max_examples=200, deadline=None)
    def test_norm_identity_across_the_domain(self, log_d, t):
        # every d that spectral_params accepts; the identity held to 5.3e-14 on
        # 100,000 random (d, t) with t up to 300
        eta, xi = analytic.eta_xi(t, math.exp(log_d))
        assert abs(abs(eta) ** 2 + abs(xi) ** 2 - 4.0) < 1e-13

    def test_domain_ends(self):
        assert analytic.spectral_params(5.6e102)
        with pytest.raises(DomainError, match="omega\\*d\\*d finite"):
            analytic.spectral_params(5.7e102)

    def test_time_zero(self):
        for d in (0.2, 0.6, 1.0, 3.5):
            eta, xi = analytic.eta_xi(0.0, d)
            assert abs(eta - 2.0) < 1e-14
            assert abs(xi) < 1e-14

    def test_equal_moduli_at_w_time(self):
        t_w = analytic.w_times(0.6, 0)
        eta, xi = analytic.eta_xi(t_w, 0.6)
        assert abs(abs(eta) - math.sqrt(2.0)) < 1e-10
        assert abs(abs(xi) - math.sqrt(2.0)) < 1e-10

    def test_frozen_values(self):
        # frozen after cross-checking against the numeric propagator
        eta, xi = analytic.eta_xi(1.0, 0.6)
        assert abs(eta - (1.4651458650971856 - 0.80041283408692687j)) < 1e-13
        assert abs(xi - (-0.94993110269235748 - 0.55706174626807314j)) < 1e-13
        eta, xi = analytic.eta_xi(1.3, 1.0)
        assert abs(eta - (0.96553115958761571 - 0.73400103501914504j)) < 1e-13
        assert abs(xi - (-1.5757257155298157 - 0.21466376003943555j)) < 1e-13

    @given(t=times, d=ds)
    def test_normalization(self, t, d):
        eta, xi = analytic.eta_xi(t, d)
        assert abs(abs(eta) ** 2 + abs(xi) ** 2 - 4.0) < 1e-10

    @given(t=times, d=ds)
    def test_consistency_with_concurrences(self, t, d):
        eta, xi = analytic.eta_xi(t, d)
        assert abs(abs(eta) ** 2 / 4.0
                   - analytic.concurrence_formula(PairClass.FIRST_RUNG, t, d)) < 1e-10
        assert abs(abs(xi) ** 2 / 4.0
                   - analytic.concurrence_formula(PairClass.LAST_RUNG, t, d)) < 1e-10
        assert abs(abs(eta) * abs(xi) / 4.0
                   - analytic.concurrence_formula(PairClass.LEG, t, d)) < 1e-10

    def test_domain_error(self):
        with pytest.raises(DomainError):
            analytic.eta_xi(1.0, 0.0)

    def test_array_input(self):
        t = np.array([0.0, 0.5, 1.0])
        eta, xi = analytic.eta_xi(t, 0.6)
        assert eta.shape == (3,)
        e0, x0 = analytic.eta_xi(0.5, 0.6)
        # vectorized and scalar ufunc paths may differ by an ulp
        assert abs(eta[1] - e0) < 1e-15 and abs(xi[1] - x0) < 1e-15


class TestConcurrenceFormula:
    def test_first_rung_starts_at_one(self):
        assert analytic.concurrence_formula(PairClass.FIRST_RUNG, 0.0, 0.7) == 1.0

    @pytest.mark.parametrize("pc", list(PairClass))
    @pytest.mark.parametrize("n", [0, 1, 3])
    @pytest.mark.parametrize("d", [0.2, 0.6, 1.9])
    def test_all_classes_half_at_w_times(self, pc, n, d):
        t_w = analytic.w_times(d, n)
        assert abs(analytic.concurrence_formula(pc, t_w, d) - 0.5) < 1e-10

    def test_last_rung_full_at_transfer_d1(self):
        t_tr = analytic.transfer_times(1.0, 0)
        assert abs(t_tr - math.pi / math.sqrt(2.0)) < 1e-12
        assert abs(analytic.concurrence_formula(PairClass.LAST_RUNG, t_tr, 1.0) - 1.0) < 1e-12

    @given(t=times, d=ds)
    def test_complementarity(self, t, d):
        c1 = analytic.concurrence_formula(PairClass.FIRST_RUNG, t, d)
        c2 = analytic.concurrence_formula(PairClass.LAST_RUNG, t, d)
        assert abs(c1 + c2 - 1.0) < 1e-12

    @given(t=times, d=ds)
    @settings(max_examples=50)
    def test_bounds_and_periodicity(self, t, d):
        sp = analytic.spectral_params(d)
        period = 4.0 * math.pi / (sp.mu + sp.nu)
        for pc in PairClass:
            c = analytic.concurrence_formula(pc, t, d)
            assert -1e-12 <= c <= 1.0 + 1e-12
            assert abs(c - analytic.concurrence_formula(pc, t + period, d)) < 1e-9


class TestCorrelationFormula:
    def test_first_rung_zz_at_zero(self):
        assert abs(analytic.correlation_formula(PairClass.FIRST_RUNG, "zz", 0.0, 0.6)
                   + 0.25) < 1e-14

    @pytest.mark.parametrize("pc", list(PairClass))
    def test_zz_vanishes_at_w_times(self, pc):
        for d in (0.2, 1.0, 2.4):
            t_w = analytic.w_times(d, 0)
            assert abs(analytic.correlation_formula(pc, "zz", t_w, d)) < 1e-10

    def test_xx_magnitude_eighth_at_w_times_with_leg_sign(self):
        d = 0.6
        for n in range(4):
            t_w = analytic.w_times(d, n)
            for pc in (PairClass.FIRST_RUNG, PairClass.LAST_RUNG):
                assert abs(analytic.correlation_formula(pc, "xx", t_w, d) - 0.125) < 1e-10
            leg = analytic.correlation_formula(PairClass.LEG, "xx", t_w, d)
            # the table's signed entry alternates with the event index
            assert abs(leg - ((-1) ** n) * 0.125) < 1e-10

    @given(t=times, d=ds)
    @settings(max_examples=50)
    def test_bounds(self, t, d):
        for pc in PairClass:
            for axes in ("xx", "yy", "zz"):
                v = analytic.correlation_formula(pc, axes, t, d)
                assert -0.25 - 1e-12 <= v <= 0.25 + 1e-12

    def test_leg_zz_identically_zero(self):
        t = np.linspace(0, 30, 113)
        assert np.all(analytic.correlation_formula(PairClass.LEG, "zz", t, 1.3) == 0.0)

    def test_bad_axes(self):
        with pytest.raises(ValidationError):
            analytic.correlation_formula(PairClass.LEG, "xy", 1.0, 1.0)


class TestLegCorrelation:
    @given(t=times, d=ds)
    @settings(max_examples=50)
    def test_magnitude_is_the_tabulated_entry(self, t, d):
        table = analytic.correlation_formula(PairClass.LEG, "xx", t, d)
        xx = analytic.leg_correlation("xx", t, d)
        xy = analytic.leg_correlation("xy", t, d)
        assert abs(xx * xx + xy * xy - table * table) < 1e-15
        assert analytic.leg_correlation("yy", t, d) == xx
        assert analytic.leg_correlation("yx", t, d) == -xy

    def test_w_time_value_is_d_over_omega_eighths(self):
        # the paper's |chi_xx| = 1/8 at W events holds only on the rungs
        for d in (0.2, 1.0, 2.4):
            omega = math.sqrt(1.0 + d * d)
            for n in range(3):
                t_w = analytic.w_times(d, n)
                xx = analytic.leg_correlation("xx", t_w, d)
                assert abs(abs(xx) - d / omega / 8.0) < 1e-12

    def test_scalar_and_array_times(self):
        t = np.linspace(0.0, 30.0, 7)
        series = analytic.leg_correlation("xy", t, 0.6)
        assert isinstance(series, np.ndarray) and series.shape == t.shape
        assert isinstance(analytic.leg_correlation("xy", 1.5, 0.6), float)

    def test_bad_axes(self):
        for axes in ("zz", "xz", "x"):
            with pytest.raises(ValidationError):
                analytic.leg_correlation(axes, 1.0, 1.0)


class TestEventTimes:
    def test_d1_values(self):
        assert abs(analytic.transfer_times(1.0, 0) - 2.221441469) < 1e-6
        assert abs(analytic.w_times(1.0, 0) - 1.110720734) < 1e-6

    def test_n_scaling_exact(self):
        for d in (0.1, 0.7, 2.2):
            t0 = analytic.transfer_times(d, 0)
            assert analytic.transfer_times(d, 1) == 3.0 * t0
            assert analytic.transfer_times(d, 4) == 9.0 * t0

    def test_w_is_half_transfer_exact(self):
        for d in (0.3, 1.0, 3.9):
            for n in (0, 2, 9):
                assert analytic.w_times(d, n) == analytic.transfer_times(d, n) / 2.0

    def test_monotonicity(self):
        for n in (0, 1):
            vals = [analytic.transfer_times(d, n) for d in np.arange(0.1, 4.01, 0.1)]
            assert all(a > b for a, b in zip(vals, vals[1:]))
        assert analytic.w_times(0.5, 3) > analytic.w_times(0.5, 2)

    def test_array_of_n_has_the_bits_of_each_n(self):
        # the event search takes the times of a whole chunk of events at once
        n = np.arange(20_000)
        for d in (0.3, 1.0, 60.0):
            for times in (analytic.w_times, analytic.transfer_times):
                assert times(d, n).tolist() == [times(d, k) for k in range(n.size)]

    def test_validation(self):
        with pytest.raises(DomainError):
            analytic.transfer_times(0.0, 0)
        with pytest.raises(ValidationError):
            analytic.w_times(1.0, -1)
        with pytest.raises(ValidationError):
            analytic.w_times(1.0, 1.5)
        with pytest.raises(ValidationError):
            analytic.w_times(1.0, np.array([0, -1]))
        with pytest.raises(ValidationError):
            analytic.w_times(1.0, np.array([0.0, 1.0]))


class TestClassifyPair:
    def test_total_map(self):
        assert analytic.classify_pair(1, 2) is PairClass.FIRST_RUNG
        assert analytic.classify_pair(2, 1) is PairClass.FIRST_RUNG
        assert analytic.classify_pair(3, 4) is PairClass.LAST_RUNG
        for pair in ((1, 3), (2, 4), (2, 3), (1, 4)):
            assert analytic.classify_pair(*pair) is PairClass.LEG

    def test_validation(self):
        with pytest.raises(ValidationError):
            analytic.classify_pair(1, 1)
        with pytest.raises(ValidationError):
            analytic.classify_pair(0, 2)
