"""Faults injected into the model, each caught by named gated `verify` records.

Each case monkeypatches one `laddyn` function, runs `verify.run_checks` at one
d on a short grid, and asserts the exact set of gated records that fail.  The
same run on the unpatched model fails none
(test_cli.py::TestVerifyCommand::test_default_topology_passes).

A known survivor: negating the xy and yx weights of
measures._pair_product_operator fails no gated record at this setting: the
gated cross-axis check reads the rung pairs, where xy and yx are zero, and
the leg-class ones are reported ungated.
test_properties.py::test_leg_correlations_exact_form fails on it.
"""

from laddyn import dynamics, model, verify

from conftest import reverse_legs

D, T_MAX, DT = 0.6, 6.0, 0.02


def _failed_gated():
    """The worst value of each gated record of verify.run_checks at D that fails, by name."""
    records = verify.run_checks([D], dynamics.time_grid(0.0, T_MAX, DT), T_MAX, DT, 1e-9, 9)
    return {r.name: r.worst for r in records if r.gated and not r.passed}


def test_misoriented_leg_fails(monkeypatch):
    """One leg reversed (legs 3 -> 1 and 2 -> 4) breaks the 1<->2 and 3<->4 symmetry.

    Measured at d = 0.6, t <= 6, dt 0.02: amplitude_symmetry 0.717,
    amplitudes_vs_closed_form 0.540, concurrence_vs_closed_form 0.656,
    rung_correlations_vs_table 0.177, leg_zz_correlation_zero 0.170,
    cross_axis_zero_where_provable 0.063, and event_count (no events found,
    1 transfer and 2 W expected).
    """
    reverse_legs(monkeypatch, ((3, 1), (2, 4)))
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
    reverse_legs(monkeypatch, ((3, 1), (4, 2)))
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
