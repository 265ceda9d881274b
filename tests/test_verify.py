"""The verify report as records: one CheckRecord per line, rendered as the pinned text."""

import dataclasses
import hashlib
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from laddyn import analytic, cli, detect, dynamics, model, verify
from laddyn.errors import DomainError, ValidationError

#: sha256 of the default `laddyn verify` stdout (TestPinnedOutputs pins the same)
VERIFY_STDOUT_SHA256 = "55168a2909d60e2a00416cde61ad69d63457ed108675575dcff89fb6d8734f5a"
ADJUDICATIONS = {"leg_xxyy_vs_table", "leg_cross_axis_zero", "w_event_leg_xx_eighth"}
INFORMATIONAL = {"sector_leakage_value", "sz_tot_commutator"}


@pytest.fixture(scope="module")
def default_records():
    # the inputs of a default `laddyn verify`
    return verify.run_checks(verify.DEFAULT_D, 30.0, 0.01, 1e-9, 9)


def test_default_gated_records_all_pass(default_records):
    gated = [r for r in default_records if r.gated]
    assert len(gated) == 128
    assert all(r.passed for r in gated)


def test_render_is_the_pinned_text(default_records, capsys):
    assert cli.main(["verify"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_STDOUT_SHA256
    header = out.splitlines()[:3]
    assert out == "\n".join([*header, verify.render(default_records)]) + "\n"


def test_non_gated_records_are_the_non_gated_lines(default_records):
    lines = verify.render(default_records).splitlines()
    gated = [r for r in default_records if r.gated]
    assert lines[:len(gated)] == [line for line in lines if line.startswith(("PASS ", "FAIL "))]
    rest = lines[len(gated):]
    assert rest[0] == "-- tabulated-claim adjudications (reported, not gated) --"
    assert rest[-1] == "summary: 128/128 checks passed"
    reported = [r for r in default_records if not r.gated]
    # adjudications first, then informational values, each in record order
    ordered = ([r for r in reported if r.name in ADJUDICATIONS]
               + [r for r in reported if r.name in INFORMATIONAL])
    assert len(ordered) == len(reported) == 5 * len(verify.DEFAULT_D)
    for r, line in zip(ordered, rest[1:-1], strict=True):
        assert line.startswith("CONTRADICTED " if r.name in ADJUDICATIONS else "informational: ")
        assert f"[d={r.d:g}]" in line and line.endswith(f"{r.worst:.3e}" + (
            " (table ignores the relative phase between the rung envelopes)"
            if r.name == "leg_xxyy_vs_table" else ""))


def test_numeric_records_pass_by_their_tolerance(default_records):
    numeric = [r for r in default_records if not math.isnan(r.worst)]
    assert all(r.passed == (r.worst <= r.tol) for r in numeric)
    # the adjudications contradict the tabulated claims at the oracle tolerance;
    # informational values have no bound
    assert {r.passed for r in numeric if r.name in ADJUDICATIONS} == {False}
    assert {r.tol for r in numeric if r.name in INFORMATIONAL} == {math.inf}
    pass_fail = [r for r in default_records if math.isnan(r.worst)]
    assert [r.name for r in pass_fail] == ["event_count"] * 5 + [
        "w_time_curves_monotone", "w_time_curve_ratios_exact"]
    assert all(math.isnan(r.tol) and r.gated for r in pass_fail)
    assert [r.d for r in default_records if r.d is None and r.gated] == [None] * 3


def test_record_is_immutable(default_records):
    with pytest.raises(dataclasses.FrozenInstanceError):
        default_records[0].passed = False


def test_refused_event_search_fails_each_event_record():
    # the seven gated records of a search, each failed with the refusal, so a
    # refused d still counts 28; one event_detection record read 21/22 before
    records = verify.run_checks([300.0], 3.0, 0.01, 1e-9, 9)
    refused = [r for r in records if r.name.startswith(("event", "transfer", "w_event"))]
    assert [r.name for r in refused] == [
        "event_count", "event_time_agreement", "event_residuals", "transfer_zz_signature",
        "w_event_fidelity", "w_event_zz_quench", "w_event_rung_xx_eighth"]
    for r in refused:
        assert r.d == 300.0 and r.gated and not r.passed
        assert r.detail.startswith("raised a scan step of 0.01 undersamples C_34 at d = 300")
    text = verify.render(records)
    assert "FAIL w_event_zz_quench[d=300] (raised a scan step" in text
    assert text.endswith("summary: 21/28 checks passed")


@pytest.mark.parametrize("d_values, t_max, error, match", [
    ([0.6, 1e103], 3.0, DomainError, "closed forms need"),
    ([0.6, 0.0], 3.0, DomainError, "closed forms need d > 0"),
    ([0.6] * 400, 30.0, ValidationError, "grid of 400 d values x 3001 times has more than"),
])
def test_bad_input_is_refused_before_any_check(monkeypatch, d_values, t_max, error, match):
    # a d outside the domain, or a grid over the budget, refused before the
    # Hamiltonian of the first d is built
    real = model.build_hamiltonian
    built = []
    monkeypatch.setattr(model, "build_hamiltonian", lambda p: built.append(p) or real(p))
    with pytest.raises(error, match=match):
        verify.run_checks(d_values, t_max, 0.01, 1e-9, 9)
    assert built == []


# log-uniform over the closed forms' domain, the bounds spectral_params accepts
@given(d=st.floats(min_value=math.log(1.5e-154), max_value=math.log(5.6e102)).map(math.exp))
# an absolute 1e-6 merge window in t merged W events pi/d apart from d of about
# 3.1e6: 5 of 10 transfers and 5 of 20 W events at d = 1e7, 1 and 1 at d = 1e10
@example(d=1e7)
@example(d=1e10)
@example(d=5e102)
@settings(max_examples=60, deadline=None)
def test_every_gated_record_passes_across_the_closed_form_domain(d):
    # a grid scaled to the W spacing: 40 t_w(0), 8 steps per t_w(0)
    t_max = 40.0 * analytic.w_times(d, 0)
    dt = t_max / 320.0
    records = verify.run_checks([d], t_max, dt, 1e-9, 9)
    gated = [r for r in records if r.gated]
    assert len(gated) == 28
    assert [r for r in gated if not r.passed] == []


def test_large_d_passes_every_check(capsys):
    # mu nu and mu^2 + nu^2 are of size 2 d^2 = 1.8e5 here: against an absolute
    # 1e-10, roundoff alone failed identity_mu_nu with a worst of 1.164e-10
    assert cli.main(["verify", "--d", "300", "--t-max", "3", "--dt", "0.004"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "PASS identity_mu_nu[d=300]" in out
    assert "summary: 28/28 checks passed" in out


def test_very_large_d_passes_every_check(capsys):
    # eig_reconstruction read 5.8e-10 and energy_constant 4.0e-10 here, roundoff
    # of size eps d that failed an absolute 1e-10
    argv = ["verify", "--d", "1e6", "--t-max", "3e-4", "--dt", "4e-7"]
    assert cli.main(argv) == cli.EXIT_OK
    out = capsys.readouterr().out
    lines = {line.split("[")[0]: line for line in out.splitlines()}
    for name in ("eig_reconstruction", "eig_trace", "sector_eigenvalues", "energy_constant"):
        assert lines[f"PASS {name}"].endswith("(tol 1e-08)"), name
    assert "summary: 28/28 checks passed" in out


@pytest.mark.parametrize("d", [1.0, 1e6])
def test_size_of_h_tolerances_catch_a_relative_error_of_1e_9(d):
    # H(d (1 + 1e-9)) checked against the closed forms and the eigensystem of H(d)
    h = model.build_hamiltonian(model.ModelParams(d=d * (1 + 1e-9)))
    records = verify._state_checks(d, h, model.propagator(d),
                                   dynamics.time_grid(1.0 / d, 0.5 / d), 1e-9)
    by_name = {r.name: r for r in records}
    for name in ("sector_eigenvalues", "eig_reconstruction"):
        assert not by_name[name].passed, name
        assert by_name[name].tol == max(1e-10, 64 * 2.0 ** -52 * (1 + d))


@pytest.mark.parametrize("d", [1.0, 300.0])
def test_identity_mu_nu_catches_a_relative_error_of_1e_9(d):
    # the spectrum of H(d (1 + 1e-9)) misses mu nu = d^2 by about 2e-9 d^2
    h = model.build_hamiltonian(model.ModelParams(d=d * (1 + 1e-9)))
    prop = dynamics.make_propagator(h, model.initial_state())
    records = verify._state_checks(d, h, prop, dynamics.time_grid(1.0, 0.5), 1e-9)
    [identity] = [r for r in records if r.name == "identity_mu_nu"]
    assert not identity.passed
    assert identity.tol == (1e-10 if d == 1.0 else 64 * 2.0 ** -52 * (4 + 2 * d * d))


@pytest.mark.parametrize("kind, checks", [
    (detect.TRANSFER, {"transfer_zz_signature"}),
    (detect.W_STATE, {"w_event_zz_quench", "w_event_rung_xx_eighth", "w_event_leg_xx_eighth"}),
])
def test_nan_correlation_at_an_event_fails_its_check(monkeypatch, kind, checks):
    # the search finds the events on true states; then the state at the second
    # event of kind turns to nan, and with it every correlation read there
    search, evolve = detect.search_events, dynamics.evolve

    def search_then_poison(*args):
        events = search(*args)
        poisoned = [ev.t_detected for ev in events if ev.kind == kind][1]
        monkeypatch.setattr(dynamics, "evolve", lambda prop, t: evolve(prop, t) * (
            math.nan if t == poisoned else 1.0))
        return events

    monkeypatch.setattr(detect, "search_events", search_then_poison)
    prop = model.propagator(1.0)
    records = list(verify._event_checks(1.0, prop, 30.0, 0.01, 1e-9))
    assert {r.name for r in records if r.name in checks and math.isnan(r.worst)} == checks
    assert not any(r.passed for r in records if r.name in checks)
    assert all(r.passed for r in records if r.gated and r.name not in checks)


def test_nan_closed_form_identity_fails_its_check(monkeypatch):
    eta_xi = analytic.eta_xi

    def nan_eta_at_2_3(t, d):
        eta, xi = eta_xi(t, d)
        return (complex(math.nan) if t == 2.3 else eta), xi

    monkeypatch.setattr(analytic, "eta_xi", nan_eta_at_2_3)
    [identities] = [r for r in verify._closed_form_checks(9) if r.name == "closed_form_identities"]
    assert math.isnan(identities.worst) and not identities.passed
