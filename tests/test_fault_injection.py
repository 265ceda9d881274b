"""Faults injected into the model, each caught by named gated `verify` records.

Each case monkeypatches `laddyn` (a bond constant, the Hamiltonian builder,
the two evolve functions or the closed-form event times), runs
`verify.run_checks` at one d on a short grid, and asserts the exact set of
gated records that fail.  The same run on the unpatched model fails none
(test_cli.py::TestVerifyCommand::test_default_topology_passes).

A known survivor: negating the xy and yx weights of
measures._pair_product_operator fails no gated record at this setting: the
gated cross-axis check reads the rung pairs, where xy and yx are zero, and
the leg-class ones are reported ungated.
test_properties.py::test_leg_correlations_exact_form fails on it.

Three more survivors at this setting:
- a weight of 1e-11 on |0111> (the case below at a smaller eps) fails no
  gated record: 1e-9 is the smallest weight tried that is caught;
- dropping lambda_3 + lambda_4 from measures._wootters_from_factors
  (raw = lam[..., 0] - lam[..., 1]) fails no gated record, because a pair
  marginal of a one-excitation state has rank <= 2, so lambda_3 = lambda_4 =
  0 there.  test_measures.py::TestWoottersConcurrence::
  test_werner_family_closed_form fails on it;
- mu+nu off by a part in 1e10 in the event times (the case below at a
  smaller eps) fails no gated record; at t <= 30, dt 0.01 it fails
  event_count.  A part in 1e11 fails nothing at either setting, because
  event_time_agreement compares the closed form with a bisection of itself.
"""

import math
import types

import pytest

from laddyn import analytic, detect, dynamics, model, verify


D, T_MAX, DT = 0.6, 6.0, 0.02


def _failed_gated():
    """The worst value of each gated record of verify.run_checks at D that fails, by name."""
    records = verify.run_checks([D], T_MAX, DT, 1e-9, 9)
    return {r.name: r.worst for r in records if r.gated and not r.passed}


def test_misoriented_leg_fails(monkeypatch):
    """One leg reversed (legs 3 -> 1 and 2 -> 4) breaks the 1<->2 and 3<->4 symmetry.

    Measured at d = 0.6, t <= 6, dt 0.02: amplitude_symmetry 0.717,
    amplitudes_vs_closed_form 0.540, concurrence_vs_closed_form 0.656,
    rung_correlations_vs_table 0.177, leg_zz_correlation_zero 0.170,
    cross_axis_zero_where_provable 0.063, and event_count (no events found,
    1 transfer and 2 W expected).
    """
    monkeypatch.setattr(model, "LEG_BONDS", ((3, 1), (2, 4)))
    failed = _failed_gated()
    assert set(failed) == {
        "amplitude_symmetry", "amplitudes_vs_closed_form", "concurrence_vs_closed_form",
        "rung_correlations_vs_table", "leg_zz_correlation_zero",
        "cross_axis_zero_where_provable", "event_count"}
    assert failed["amplitude_symmetry"] > 0.7
    assert failed["amplitudes_vs_closed_form"] > 0.5


def test_pure_flip_caught_by_amplitude_oracle(monkeypatch):
    """Both legs reversed leaves every |amplitude| as it was; only the amplitude oracle sees it.

    Measured at d = 0.6, t <= 6, dt 0.02: amplitudes_vs_closed_form 0.728
    is the one gated failure; every concurrence, correlation and event check
    passes.
    """
    monkeypatch.setattr(model, "LEG_BONDS", ((3, 1), (4, 2)))
    failed = _failed_gated()
    assert set(failed) == {"amplitudes_vs_closed_form"}
    assert failed["amplitudes_vs_closed_form"] > 0.7


def test_coupling_off_by_a_part_in_1e9_fails_the_spectrum(monkeypatch):
    """H built at d (1 + 1e-9) is checked against the closed forms of d.

    Measured at d = 0.6, t <= 6, dt 0.02: sector_eigenvalues 1.54e-10 and
    identity_mu_nu 1.44e-9, each against a tolerance of 1e-10; every state,
    concurrence, correlation and event check passes.
    """
    build = model.build_hamiltonian
    monkeypatch.setattr(model, "build_hamiltonian",
                        lambda params: build(model.ModelParams(d=params.d * (1 + 1e-9))))
    failed = _failed_gated()
    assert set(failed) == {"sector_eigenvalues", "identity_mu_nu"}
    assert failed["sector_eigenvalues"] > 1e-10
    assert failed["identity_mu_nu"] > 1e-9


def _leak_into_index_7(monkeypatch, eps):
    """Add eps to the amplitude of |0111> in every state dynamics.evolve and evolve_states give."""
    for name in ("evolve", "evolve_states"):
        def leaked(prop, t, evolve=getattr(dynamics, name)):
            psi = evolve(prop, t).copy()
            psi[..., 7] += eps
            return psi
        monkeypatch.setattr(dynamics, name, leaked)


@pytest.mark.parametrize("eps, expected", [
    (1e-7, {"concurrence_vs_closed_form": 1.41e-7, "concurrence_full_vs_shortcut": 1.41e-7,
            "rung_correlations_vs_table": 3.54e-8, "cross_axis_zero_where_provable": 2.4e-8,
            "evolution_composition": 7.51e-8, "event_count": None}),
    (1e-9, {"concurrence_vs_closed_form": 1.41e-9, "concurrence_full_vs_shortcut": 1.41e-9,
            "evolution_composition": 7.51e-10, "event_count": None}),
])
def test_weight_on_a_3_excitation_amplitude_fails_the_pair_checks(monkeypatch, eps, expected):
    """eps on |0111>, outside the one-excitation sector, in each evolved state.

    Measured at d = 0.6, t <= 6, dt 0.02 (the worst values in expected; an
    event_count failure has no worst).  sector_leakage and norm_preservation
    pass: the leaked weight eps**2 is below their tolerance of 1e-12.
    """
    _leak_into_index_7(monkeypatch, eps)
    failed = _failed_gated()
    assert set(failed) == set(expected)
    for name, worst in expected.items():
        if worst is not None:
            assert failed[name] == pytest.approx(worst, rel=0.01)


@pytest.mark.parametrize("eps", [1e-8, 1e-9])
def test_event_times_off_by_a_part_in_1e9_fail_the_event_count(monkeypatch, eps):
    """mu+nu scaled by (1 + eps) in the closed-form event times and in detect's root functions.

    analytic._event_time_base keeps its rounding to 48 mantissa bits, so the
    t_w curves stay exact odd multiples and w_time_curve_ratios_exact passes.
    Measured at d = 0.6, t <= 6, dt 0.02: event_count is the one gated
    failure (0 transfers and 0 W at 1e-8, 0 and 1 W at 1e-9, of 1 and 2
    expected): an event refined at a shifted time fails its concurrence
    checks and is not listed.
    """
    spectral_params = analytic.spectral_params

    def scaled(d):
        sp = spectral_params(d)
        return sp._replace(mu=sp.mu * (1 + eps), nu=sp.nu * (1 + eps))

    def event_time_base(d):
        sp = spectral_params(d)
        frac, exp = math.frexp(math.pi / ((sp.mu + sp.nu) * (1 + eps)))
        return math.ldexp(round(math.ldexp(frac, 48)), exp - 48)

    monkeypatch.setattr(analytic, "_event_time_base", event_time_base)
    monkeypatch.setattr(detect, "analytic",
                        types.SimpleNamespace(**{**vars(analytic), "spectral_params": scaled}))
    assert set(_failed_gated()) == {"event_count"}
