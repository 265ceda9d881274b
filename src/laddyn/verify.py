"""The invariant and oracle suite behind `laddyn verify`: one CheckRecord per report line.

Each d gets one Hamiltonian and one propagator, which all of its checks read.
"""

from __future__ import annotations

import collections
import math
from dataclasses import dataclass

import numpy as np

from . import analytic, detect, dynamics, measures, model, tables
from .errors import LaddynError


@dataclass(frozen=True)
class CheckRecord:
    """One report line: the worst value found, its tolerance and whether it passed.

    d is None for the d-independent checks.  A pass/fail check has NaN worst
    and tol and may say why in detail.  Only gated records count toward the
    summary and the exit code; an adjudication of a tabulated claim is held
    to the oracle tolerance, an informational value to inf.
    """

    name: str
    d: float | None
    worst: float
    tol: float
    passed: bool
    gated: bool = True
    detail: str = ""


#: the d values `laddyn verify` checks when none is given
DEFAULT_D = (0.2, 0.6, 1.0, 1.5, 2.0)


def _check(name: str, d, worst, tol: float, gated: bool = True) -> CheckRecord:
    return CheckRecord(name, d, float(worst), tol, bool(worst <= tol), gated)


def _require(name: str, d, ok: bool, detail: str = "") -> CheckRecord:
    return CheckRecord(name, d, math.nan, math.nan, bool(ok), detail=detail)


def _worst(values) -> float:
    """The largest of values, or 0.0 for none; unlike Python's max, a nan anywhere is kept."""
    return float(np.max(values, initial=0.0))


#: the line of each adjudication record, by name
_ADJUDICATIONS = {
    "leg_xxyy_vs_table": "CONTRADICTED leg xx/yy vs tabulated form [d={d:g}]: max deviation "
                         "{worst:.3e} (table ignores the relative phase between the rung "
                         "envelopes)",
    "leg_cross_axis_zero": "CONTRADICTED cross-axis xy/yx zero claim on leg-class pairs "
                           "[d={d:g}]: max |chi| {worst:.3e}",
    "w_event_leg_xx_eighth": "CONTRADICTED all-pairs |xx|=1/8 at W events [d={d:g}]: "
                             "leg-class deviation up to {worst:.3e}",
}
#: the line of each informational record, by name
_INFORMATIONAL = {
    "sector_leakage_value": "informational: sector leakage[d={d:g}]: {worst:.3e}",
    "sz_tot_commutator": "informational: commutator |[H, S^z_tot]|_max[d={d:g}] = {worst:.3e}",
}


def _gated_line(r: CheckRecord) -> str:
    head = ("PASS " if r.passed else "FAIL ") + (r.name if r.d is None else f"{r.name}[d={r.d:g}]")
    if math.isnan(r.worst):
        return head + (f" ({r.detail})" if r.detail else "")
    return f"{head}: worst {r.worst:.3e} (tol {r.tol:.0e})"


def render(records) -> str:
    """The report: gated lines, then adjudications, informational values and the summary."""
    gated = [r for r in records if r.gated]
    adjudications = [_ADJUDICATIONS[r.name].format(d=r.d, worst=r.worst)
                     for r in records if r.name in _ADJUDICATIONS]
    if adjudications:
        adjudications.insert(0, "-- tabulated-claim adjudications (reported, not gated) --")
    return "\n".join([*map(_gated_line, gated), *adjudications,
                      *(_INFORMATIONAL[r.name].format(d=r.d, worst=r.worst)
                        for r in records if r.name in _INFORMATIONAL),
                      f"summary: {sum(r.passed for r in gated)}/{len(gated)} checks passed"])


def run_checks(d_values, ts: np.ndarray, t_max: float, dt: float, tol: float,
               n_max: int) -> list[CheckRecord]:
    """The records for d_values on the grid ts, then the d-independent ones.

    Events are scanned with step dt up to t_max; tol is the oracle tolerance.
    """
    records = []
    sz = model.total_spin_operator("z")
    for d in map(float, d_values):
        h = model.build_hamiltonian(model.ModelParams(d=d))
        prop = dynamics.make_propagator(h, model.initial_state())
        records += _state_checks(d, h, prop, ts, tol)
        records += _event_checks(d, prop, t_max, dt, tol)
        records.append(_check("sz_tot_commutator", d,
                              np.max(np.abs(h @ sz - sz @ h)), math.inf, gated=False))
    records += _closed_form_checks(n_max)
    return records


def _roundoff_tol(size: float) -> float:
    """The bound on roundoff in quantities of the given size.

    For the size of H(d), 1 + d, measured roundoff stays below 7 eps (1 + d)
    for d in [1e-3, 1e100], and the bound is exactly 1e-10 below d = 7036;
    for 4 + 2 d^2, the size of mu^2 + nu^2, it is 1e-10 below d = 59.3.
    """
    return max(1e-10, 64 * np.finfo(float).eps * size)


def _state_checks(d: float, h: np.ndarray, prop: dynamics.Propagator, ts: np.ndarray,
                  tol: float):
    """The checks of H(d), its propagator prop and the states it evolves on ts, in blocks."""
    yield _check("hamiltonian_hermitian", d, np.max(np.abs(h - h.conj().T)), 1e-14)
    w, v = prop.eigenvalues, prop.eigenvectors
    h_tol = _roundoff_tol(1 + d)
    yield _check("eig_reconstruction", d, np.max(np.abs((v * w) @ v.conj().T - h)), h_tol)
    yield _check("eig_trace", d, abs(float(np.sum(w)) - float(np.trace(h).real)), h_tol)

    sp = analytic.spectral_params(d)
    idx = np.array(dynamics.ONE_PARTICLE_INDICES)
    sector = np.sort(np.linalg.eigvalsh(h[np.ix_(idx, idx)]))
    expected = np.sort([sp.mu / 2, -sp.mu / 2, sp.nu / 2, -sp.nu / 2])
    yield _check("sector_eigenvalues", d, np.max(np.abs(sector - expected)), h_tol)
    mu_n, nu_n = 2 * sector[-1], 2 * sector[-2]
    yield _check("identity_mu_nu", d, max(abs(mu_n * nu_n - d * d),
                                          abs(mu_n ** 2 + nu_n ** 2 - 4 - 2 * d * d)),
                 _roundoff_tol(4 + 2 * d * d))

    # one block of the grid at a time; each check keeps its running worst value,
    # the max over blocks (energy_constant: the running max minus the running min)
    worst = collections.defaultdict(float)
    energy_lo, energy_hi = math.inf, -math.inf

    def note(key: str, *block_values) -> None:
        # np.max, like a whole-grid max, keeps a nan
        worst[key] = float(np.max([worst[key], *block_values]))

    for rows, states in dynamics.evolved_blocks(prop, ts):
        t = ts[rows]
        note("norm", np.max(np.abs(np.linalg.norm(states, axis=1) - 1.0)))
        energy = np.einsum("ti,ij,tj->t", states.conj(), h, states).real
        energy_lo = float(np.min([energy_lo, np.min(energy)]))
        energy_hi = float(np.max([energy_hi, np.max(energy)]))
        note("leakage", dynamics.sector_leakage(states))

        amps = states[:, list(dynamics.ONE_PARTICLE_INDICES)]
        note("symmetry", np.max(np.abs(amps[:, 0] - amps[:, 1])),
             np.max(np.abs(amps[:, 2] - amps[:, 3])))

        # amplitude-level oracle; this is the check that pins the DM orientation
        eta, xi = analytic.eta_xi(t, d)
        expected_amps = np.stack([eta, eta, xi, xi], axis=1) / (2.0 * np.sqrt(2.0))
        note("amps", np.max(np.abs(amps - expected_amps)))

        # the observables the tables write, from their kernel
        cols = tables.BlockColumns(d, states, t)
        for p, q in tables.ALL_PAIRS:
            cn = cols[f"c_{p}{q}"]
            note("conc", np.max(np.abs(cn - cols[f"c_an_{p}{q}"])))
            note("short", np.max(np.abs(cn - measures.concurrence_one_particle(amps, p, q))))

        for cls in (analytic.PairClass.FIRST_RUNG, analytic.PairClass.LAST_RUNG):
            for axes in ("xx", "yy", "zz"):
                chi_a = analytic.correlation_formula(cls, axes, t, d)
                note("rung_chi", np.max(np.abs(cols[f"chi_{axes}_{tables.CLASS_COLUMN[cls]}"]
                                               - chi_a)))

        # |chi - reference| of each pair and axis pair; chi - 0.0 has the bits of chi
        leg_table = analytic.correlation_formula(analytic.PairClass.LEG, "xx", t, d)
        for key, pairs, axes, reference in (
                ("leg_zz", tables.LEG_CLASS_PAIRS, ("zz",), 0.0),
                ("leg_xxyy", tables.LEG_CLASS_PAIRS, ("xx", "yy"), leg_table),
                ("leg_cross", tables.LEG_CLASS_PAIRS, ("xy", "yx"), 0.0),
                ("cross", tables.ALL_PAIRS, ("xz", "zx", "yz", "zy"), 0.0),
                ("cross", ((1, 2), (3, 4)), ("xy", "yx"), 0.0)):
            for pair in pairs:
                for a, b in axes:
                    chi = measures.correlation_series(states, *pair, a, b)
                    note(key, np.max(np.abs(chi - reference)))

        note("spin_z", np.max(np.abs(cols["s_tot_z"] + 1.0)))
        note("spin_xy", np.max(np.abs(cols["s_tot_x"])), np.max(np.abs(cols["s_tot_y"])))
        del states, cols  # hold no block while the next one is evolved

    yield _check("norm_preservation", d, worst["norm"], 1e-12)
    yield _check("energy_constant", d, energy_hi - energy_lo, h_tol)
    yield _check("sector_leakage", d, worst["leakage"], 1e-12)
    yield _check("sector_leakage_value", d, worst["leakage"], math.inf, gated=False)
    yield _check("amplitude_symmetry", d, worst["symmetry"], 1e-10)
    yield _check("amplitudes_vs_closed_form", d, worst["amps"], tol)
    yield _check("concurrence_vs_closed_form", d, worst["conc"], tol)
    yield _check("concurrence_full_vs_shortcut", d, worst["short"], tol)
    yield _check("rung_correlations_vs_table", d, worst["rung_chi"], tol)
    yield _check("leg_zz_correlation_zero", d, worst["leg_zz"], tol)
    yield _check("cross_axis_zero_where_provable", d, worst["cross"], tol)
    yield _check("leg_xxyy_vs_table", d, worst["leg_xxyy"], tol, gated=False)
    yield _check("leg_cross_axis_zero", d, worst["leg_cross"], tol, gated=False)
    yield _check("total_spin_z_constant", d, worst["spin_z"], 1e-10)
    yield _check("total_spin_xy_zero", d, worst["spin_xy"], 1e-10)

    t_mid = float(ts[len(ts) // 2]) or 1.0
    prop_b = dynamics.make_propagator(h, dynamics.evolve(prop, t_mid / 2))
    yield _check("evolution_composition", d,
                 np.max(np.abs(dynamics.evolve(prop_b, t_mid / 2)
                               - dynamics.evolve(prop, t_mid))), 1e-10)


def _closed_form_count(times, d: float, t_max: float) -> int:
    """How many n = 0, 1, ... have a closed-form event time times(d, n) <= t_max."""
    # (2n+1) times(d, 0) <= t_max, up to the roundoff of times(d, n)
    n = np.arange(math.floor((t_max / times(d, 0) + 1.0) / 2.0) + 2)
    return int(np.count_nonzero(times(d, n) <= t_max))


#: the gated records of _event_checks, each failed with the reason where the search raises
_EVENT_CHECKS = ("event_count", "event_time_agreement", "event_residuals", "transfer_zz_signature",
                 "w_event_fidelity", "w_event_zz_quench", "w_event_rung_xx_eighth")


def _event_checks(d: float, prop: dynamics.Propagator, t_max: float, dt: float, tol: float):
    """The events the scan of prop finds up to t_max, against the closed forms and the states."""
    try:
        detect.check_event_search(d, dt)
        events = detect.search_events(prop, d, t_max, dt, tol)
    except LaddynError as exc:
        for name in _EVENT_CHECKS:
            yield _require(name, d, False, f"raised {exc}")
        return
    transfers = [ev for ev in events if ev.kind == detect.TRANSFER]
    ws = [ev for ev in events if ev.kind == detect.W_STATE]
    n_tr, n_w = (_closed_form_count(f, d, t_max) for f in (analytic.transfer_times, analytic.w_times))
    yield _require("event_count", d, len(transfers) == n_tr and len(ws) == n_w,
                   f"got {len(transfers)} transfers / {len(ws)} W, expected {n_tr} / {n_w}")
    yield _check("event_time_agreement", d,
                 _worst([abs(ev.t_detected - ev.t_predicted) for ev in transfers + ws]), 1e-8)
    yield _check("event_residuals", d, _worst([ev.residual for ev in transfers + ws]), tol)

    def event_states(events):
        return dynamics.evolve_each(prop, [ev.t_detected for ev in events])

    def chi(states, pairs, axes):
        """<S^a_p S^b_q>, a row per pair and a column per state."""
        return np.array([measures.correlation_series(states, *pair, *axes) for pair in pairs])

    zz = chi(event_states(transfers), ((3, 4), (1, 2)), "zz")
    yield _check("transfer_zz_signature", d, _worst(np.abs(zz - [[-0.25], [0.25]])), tol)

    w_states = event_states(ws)
    xx = chi(w_states, ((1, 2), (3, 4), *tables.LEG_CLASS_PAIRS), "xx")
    xx_off = np.abs(np.abs(xx) - 0.125)
    yield _check("w_event_fidelity", d, _worst([1.0 - (ev.fidelity or 0.0) for ev in ws]), tol)
    yield _check("w_event_zz_quench", d, _worst(np.abs(chi(w_states, tables.ALL_PAIRS, "zz"))), tol)
    yield _check("w_event_rung_xx_eighth", d, _worst(xx_off[:2]), tol)
    if ws:
        yield _check("w_event_leg_xx_eighth", d, _worst(xx_off[2:]), tol, gated=False)


def _closed_form_checks(n_max: int):
    """The closed-form identities across a fine d sample, and the t_w curves up to n_max."""
    residuals = []
    for d in np.linspace(0.04, 4.0, 100):
        sp = analytic.spectral_params(float(d))
        eta0, xi0 = analytic.eta_xi(0.0, float(d))
        residuals += [abs(sp.mu * sp.nu - d * d), abs(sp.mu ** 2 + sp.nu ** 2 - 4.0 - 2.0 * d * d),
                      abs(eta0 - 2.0), abs(xi0)]
        for t in (0.7, 2.3, 11.0):
            eta, xi = analytic.eta_xi(t, float(d))
            residuals.append(abs(abs(eta) ** 2 + abs(xi) ** 2 - 4.0))
    yield _check("closed_form_identities", None, _worst(residuals), 1e-10)

    curves = detect.w_time_curves(np.arange(0.1, 4.0001, 0.1), n_max)
    yield _require("w_time_curves_monotone", None, np.all(np.diff(curves, axis=1) < 0))
    yield _require("w_time_curve_ratios_exact", None, all(
        np.all(curves[n] / curves[0] == float(2 * n + 1)) for n in range(curves.shape[0])))
