"""Acceptance suite: one test per criterion, one printed verdict line each.

Criteria 1, 3 and 5 include clauses about leg-class transverse correlations
that the exact evolved state contradicts: the tabulated closed form
sin((mu+nu)t/2)/8 drops the relative phase between the two envelope
functions, and the cross-axis xy/yx components it implies are zero are
actually Im(conj(eta)*xi)/16 up to sign.  Those tests assert the tabulated
claims verbatim and therefore fail; the failure messages carry the measured
deviations, and the identity that does hold (chi_xx^2 + chi_xy^2 equals the
tabulated magnitude squared) is covered in test_properties.py.
"""

import time

import numpy as np

from laddyn import analytic, cli, detect, dynamics, measures, model
from laddyn.detect import ALL_PAIRS, LEG_CLASS_PAIRS


D_GRID = (0.2, 0.6, 1.0, 1.5, 2.0)
T_STEP = 0.01
T_MAX = 30.0
AXES = ("x", "y", "z")
CROSS = tuple((a, b) for a in AXES for b in AXES if a != b)

_cache = {}


def grid_data():
    """All series needed by the criteria, computed once and timed."""
    if _cache:
        return _cache
    t0 = time.perf_counter()
    ts = dynamics.time_grid(0.0, T_MAX, T_STEP)
    per_d = {}
    for d in D_GRID:
        prop = model.propagator(d)
        states = dynamics.evolve_states(prop, ts)
        entry = {"states": states}
        entry["conc"] = {p: measures.concurrence_series(states, *p) for p in ALL_PAIRS}
        entry["conc_an"] = {
            p: analytic.concurrence_formula(analytic.classify_pair(*p), ts, d)
            for p in ALL_PAIRS
        }
        entry["chi"] = {
            (p, a, b): measures.correlation_series(states, *p, a, b)
            for p in ALL_PAIRS for a in AXES for b in AXES
        }
        entry["chi_an"] = {
            (p, ax): analytic.correlation_formula(analytic.classify_pair(*p), ax, ts, d)
            for p in ALL_PAIRS for ax in ("xx", "yy", "zz")
        }
        entry["s_tot"] = {a: measures.total_spin_series(states, a) for a in AXES}
        h = model.build_hamiltonian(model.ModelParams(d=d))
        entry["energy"] = np.einsum("ti,ij,tj->t", states.conj(), h, states).real
        entry["norms"] = np.linalg.norm(states, axis=1)
        per_d[d] = entry
    _cache["ts"] = ts
    _cache["per_d"] = per_d
    _cache["elapsed"] = time.perf_counter() - t0
    return _cache


def test_criterion_1_oracle_equivalence():
    data = grid_data()
    worst_conc = 0.0
    worst_chi_rung = 0.0
    worst_chi_leg_zz = 0.0
    worst_chi_leg_xxyy = 0.0
    for d in D_GRID:
        e = data["per_d"][d]
        for p in ALL_PAIRS:
            worst_conc = max(worst_conc, float(np.max(np.abs(e["conc"][p] - e["conc_an"][p]))))
            for ax in ("xx", "yy", "zz"):
                dev = float(np.max(np.abs(e["chi"][(p, ax[0], ax[1])] - e["chi_an"][(p, ax)])))
                if analytic.classify_pair(*p) is analytic.PairClass.LEG:
                    if ax == "zz":
                        worst_chi_leg_zz = max(worst_chi_leg_zz, dev)
                    else:
                        worst_chi_leg_xxyy = max(worst_chi_leg_xxyy, dev)
                else:
                    worst_chi_rung = max(worst_chi_rung, dev)
    worst_chi = max(worst_chi_rung, worst_chi_leg_zz, worst_chi_leg_xxyy)
    elapsed = data["elapsed"]
    ok = worst_conc <= 1e-9 and worst_chi <= 1e-9 and elapsed <= 60.0
    print(f"criterion 1: {'PASS' if ok else 'FAIL'} "
          f"(concurrence dev {worst_conc:.3e}; chi dev rung {worst_chi_rung:.3e}, "
          f"leg zz {worst_chi_leg_zz:.3e}, leg xx/yy {worst_chi_leg_xxyy:.3e}; "
          f"grid runtime {elapsed:.1f}s)")
    assert elapsed <= 60.0
    assert worst_conc <= 1e-9
    assert worst_chi <= 1e-9, (
        f"leg-class chi_xx/chi_yy deviate from the tabulated form by up to "
        f"{worst_chi_leg_xxyy:.3e}: the table entry sin((mu+nu)t/2)/8 ignores the "
        f"relative phase between the rung envelopes (numeric value is "
        f"Re(conj(eta)*xi)/16).  Concurrences ({worst_conc:.3e}), rung chi "
        f"({worst_chi_rung:.3e}) and leg zz ({worst_chi_leg_zz:.3e}) all agree."
    )


def test_criterion_2_transfer_events():
    worst_c34 = 0.0
    worst_others = 0.0
    worst_dt = 0.0
    for d in D_GRID:
        prop = model.propagator(d)
        n = 0
        predicted = []
        while analytic.transfer_times(d, n) <= T_MAX:
            predicted.append((n, analytic.transfer_times(d, n)))
            n += 1
        assert predicted, f"no transfer events below t={T_MAX} at d={d}"
        for n, t_tr in predicted:
            psi = dynamics.evolve(prop, t_tr)
            conc = {p: float(measures.concurrence_series(psi[None], *p)[0])
                    for p in ALL_PAIRS}
            worst_c34 = max(worst_c34, 1.0 - conc[(3, 4)])
            worst_others = max(worst_others, conc[(1, 2)],
                               *(conc[p] for p in LEG_CLASS_PAIRS))
        events = [e for e in detect.find_events(d, T_MAX, 0.01, 1e-9)
                  if e.kind == detect.TRANSFER]
        assert [e.n for e in events] == [n for n, _ in predicted]
        for ev in events:
            worst_dt = max(worst_dt, abs(ev.t_detected - ev.t_predicted))
    ok = worst_c34 <= 1e-9 and worst_others <= 1e-9 and worst_dt <= 1e-8
    print(f"criterion 2: {'PASS' if ok else 'FAIL'} "
          f"(1-C34 {worst_c34:.3e}, other concurrences {worst_others:.3e}, "
          f"|t_detected - t_predicted| {worst_dt:.3e})")
    assert worst_c34 <= 1e-9
    assert worst_others <= 1e-9
    assert worst_dt <= 1e-8


def test_criterion_3_w_events():
    worst_conc = 0.0
    worst_fid = 0.0
    worst_zz = 0.0
    worst_rung_xxyy = 0.0
    worst_leg_xxyy = 0.0
    for d in D_GRID:
        prop = model.propagator(d)
        n = 0
        while analytic.w_times(d, n) <= T_MAX:
            t_w = analytic.w_times(d, n)
            psi = dynamics.evolve(prop, t_w)
            for p in ALL_PAIRS:
                c = float(measures.concurrence_series(psi[None], *p)[0])
                worst_conc = max(worst_conc, abs(c - 0.5))
                worst_zz = max(worst_zz, abs(measures.two_point_correlation(psi, *p, "z", "z")))
                for ax in ("x", "y"):
                    dev = abs(abs(measures.two_point_correlation(psi, *p, ax, ax)) - 0.125)
                    if analytic.classify_pair(*p) is analytic.PairClass.LEG:
                        worst_leg_xxyy = max(worst_leg_xxyy, dev)
                    else:
                        worst_rung_xxyy = max(worst_rung_xxyy, dev)
            fid = detect.w_fidelity(dynamics.one_particle_amplitudes(psi))
            worst_fid = max(worst_fid, 1.0 - fid)
            n += 1
    worst_xxyy = max(worst_rung_xxyy, worst_leg_xxyy)
    ok = (worst_conc <= 1e-9 and worst_fid <= 1e-9 and worst_zz <= 1e-9
          and worst_xxyy <= 1e-9)
    print(f"criterion 3: {'PASS' if ok else 'FAIL'} "
          f"(|C-1/2| {worst_conc:.3e}, 1-F {worst_fid:.3e}, |zz| {worst_zz:.3e}, "
          f"rung ||xx|-1/8| {worst_rung_xxyy:.3e}, leg ||xx|-1/8| {worst_leg_xxyy:.3e})")
    assert worst_conc <= 1e-9
    assert worst_fid <= 1e-9
    assert worst_zz <= 1e-9
    assert worst_xxyy <= 1e-9, (
        f"at W times the leg-class |xx|=|yy| is |Re(conj(eta)*xi)|/16, not 1/8; "
        f"measured deviation up to {worst_leg_xxyy:.3e} (rung pairs agree to "
        f"{worst_rung_xxyy:.3e})"
    )


def test_criterion_4_conserved_quantities():
    data = grid_data()
    worst_sz = worst_sxy = worst_norm = worst_energy = 0.0
    for d in D_GRID:
        e = data["per_d"][d]
        worst_sz = max(worst_sz, float(np.max(np.abs(e["s_tot"]["z"] + 1.0))))
        worst_sxy = max(worst_sxy, float(np.max(np.abs(e["s_tot"]["x"]))),
                        float(np.max(np.abs(e["s_tot"]["y"]))))
        worst_norm = max(worst_norm, float(np.max(np.abs(e["norms"] - 1.0))))
        worst_energy = max(worst_energy, float(np.ptp(e["energy"])))
    ok = (worst_sz <= 1e-10 and worst_sxy <= 1e-10 and worst_norm <= 1e-12
          and worst_energy <= 1e-10)
    print(f"criterion 4: {'PASS' if ok else 'FAIL'} "
          f"(S_z dev {worst_sz:.3e}, S_xy {worst_sxy:.3e}, norm {worst_norm:.3e}, "
          f"energy drift {worst_energy:.3e})")
    assert worst_sz <= 1e-10
    assert worst_sxy <= 1e-10
    assert worst_norm <= 1e-12
    assert worst_energy <= 1e-10


def test_criterion_5_cross_axis_correlations():
    data = grid_data()
    worst_rung = 0.0
    worst_leg_xy = 0.0
    worst_z_mixed = 0.0
    for d in D_GRID:
        e = data["per_d"][d]
        for p in ALL_PAIRS:
            for a, b in CROSS:
                dev = float(np.max(np.abs(e["chi"][(p, a, b)])))
                is_leg = analytic.classify_pair(*p) is analytic.PairClass.LEG
                if "z" in (a, b):
                    worst_z_mixed = max(worst_z_mixed, dev)
                elif is_leg:
                    worst_leg_xy = max(worst_leg_xy, dev)
                else:
                    worst_rung = max(worst_rung, dev)
    worst = max(worst_rung, worst_leg_xy, worst_z_mixed)
    ok = worst <= 1e-9
    print(f"criterion 5: {'PASS' if ok else 'FAIL'} "
          f"(z-mixed {worst_z_mixed:.3e}, rung xy {worst_rung:.3e}, "
          f"leg xy {worst_leg_xy:.3e})")
    assert worst <= 1e-9, (
        f"the all-pairs cross-axis-zero claim fails empirically on leg-class "
        f"pairs: max |chi_xy| = {worst_leg_xy:.3e} (= |Im(conj(eta)*xi)|/16 up to "
        f"sign).  All z-mixed components ({worst_z_mixed:.3e}) and rung xy "
        f"({worst_rung:.3e}) do vanish."
    )


def test_criterion_6_algebraic_identities():
    worst = 0.0
    for d in np.linspace(0.04, 4.0, 100):
        sp = analytic.spectral_params(float(d))
        eta0, xi0 = analytic.eta_xi(0.0, float(d))
        worst = max(
            worst,
            abs(sp.mu * sp.nu - d * d),
            abs(sp.mu ** 2 + sp.nu ** 2 - 4.0 - 2.0 * d * d),
            abs(eta0 - 2.0),
            abs(xi0),
        )
        for t in (0.3, 1.7, 9.2, 28.8):
            eta, xi = analytic.eta_xi(t, float(d))
            worst = max(worst, abs(abs(eta) ** 2 + abs(xi) ** 2 - 4.0))
    ok = worst <= 1e-10
    print(f"criterion 6: {'PASS' if ok else 'FAIL'} (worst identity dev {worst:.3e})")
    assert worst <= 1e-10


def test_criterion_7_w_time_curves():
    d_grid = np.arange(0.1, 4.0001, 0.1)
    curves = detect.w_time_curves(d_grid, n_max=9)
    decreasing = bool(np.all(np.diff(curves, axis=1) < 0))
    ordered = bool(np.all(np.diff(curves, axis=0) > 0))
    exact = all(np.all(curves[n] / curves[0] == float(2 * n + 1)) for n in range(10))
    ok = decreasing and ordered and exact
    print(f"criterion 7: {'PASS' if ok else 'FAIL'} "
          f"(decreasing in D: {decreasing}, ordered in n: {ordered}, "
          f"exact odd ratios: {exact})")
    assert decreasing and ordered and exact


def test_criterion_8_negative_control(monkeypatch, capsys):
    args = ["--d", "0.6", "--t-max", "6", "--dt", "0.02"]
    code_good = cli.main(["verify", *args])
    # the first leg runs 3 -> 1, not 1 -> 3
    monkeypatch.setattr(model, "LEG_BONDS", ((3, 1), (2, 4)))
    code_bad = cli.main(["verify", *args])
    out = capsys.readouterr().out
    ok = code_good == 0 and code_bad == 1
    print(f"criterion 8: {'PASS' if ok else 'FAIL'} "
          f"(default exit {code_good}, mis-oriented exit {code_bad})")
    assert code_good == 0
    assert code_bad == 1
    assert "FAIL" in out
