"""Acceptance gate: one test per numbered criterion, at pinned tolerances.

Each test prints one [PASS]/[FAIL] line naming the criterion before it
asserts, so `pytest -v` shows the verdict sheet directly.  Criteria 3, 4
and 5 pin sup-norm decay exponents at the undamped-wave rate (1-lam)/2
per field derivative; the kernels this laboratory measures contract on
the damping clock instead and come in near (1+lam)/2 per derivative, so
those three tests fail at the stated tolerances.  The companion tests at
the bottom freeze the rates that are actually observed; the README
discusses the discrepancy.
"""

import math
import time

import numpy as np
import pytest

from conftest import Outputs, march, run_preset
from eulerlab.euler import SolverConfig, initial_bump, run
from eulerlab.grids import Grid, SpectralOps
from eulerlab.linear import evolve_modes
from eulerlab.params import DampingLaw, GasLaw, derive_constants, weight_eval
from reference import propagator_matrix, solve_linear_ivp

D_HALF = DampingLaw(lam=0.5, mu=2.0)
GAS = GasLaw()


# One line per criterion, echoed into the terminal summary by conftest
# so the verdict sheet survives pytest's stdout capture.
CRITERION_LINES: list = []


def _banner(num: int, ok: bool, text: str):
    tag = "PASS" if ok else "FAIL"
    line = f"[{tag}] criterion {num:02d}: {text}"
    CRITERION_LINES.append((num, line))
    print(line)


def _require(handle, names):
    """Collect failing verdicts into printable complaints."""
    bad = []
    for name in names:
        v = handle.verdict(name)
        if not v.passed:
            bad.append(f"{name}: value {v.value:.6g} vs predicted "
                       f"{v.predicted:.6g} +- {v.tolerance:g}")
    return bad


# ---------------------------------------------------------------------
#  1. Weight identities
# ---------------------------------------------------------------------

def test_criterion_01_weight_identities():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    n_points = 0
    for n in (1, 2, 3):
        spec = derive_constants(DampingLaw(lam=0.4, mu=1.5), n)
        for _ in range(25):
            t = float(rng.uniform(0.0, 1.0e4))
            x = rng.uniform(-50.0, 50.0, size=(n, 140))
            n_points += x.shape[1]
            we = weight_eval(t, x, spec)
            r2 = np.sum(x * x, axis=0)
            decay = (1.0 + t) ** (1.0 + spec.lam)
            scale = np.maximum(np.abs(we.psi), 1e-300)
            errs = [
                np.abs(we.psi - spec.a * r2 / decay) / scale,
                np.abs(we.psi_t * (1.0 + t) + (1.0 + spec.lam) * we.psi) / scale,
                np.abs(np.sum(x * we.grad_psi, axis=0) - 2.0 * we.psi) / scale,
                np.abs(we.lap_psi * r2 - 2.0 * n * we.psi) / scale,
            ]
            worst = max(worst, max(float(np.max(e)) for e in errs))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and n_points >= 10_000 and elapsed < 1.0
    _banner(1, ok, f"weight identities on {n_points} random points, "
                   f"worst relative error {worst:.2e}, {elapsed:.2f} s")
    assert n_points >= 10_000
    assert worst <= 1e-12
    assert elapsed < 1.0


# ---------------------------------------------------------------------
#  2. Mode exactness
# ---------------------------------------------------------------------

def test_criterion_02_mode_exactness():
    start = time.perf_counter()
    # (a) zero frequency: the first mode function is identically one
    t_out = np.concatenate(([0.0], np.geomspace(1e-2, 1e5, 61)))
    rows = evolve_modes(np.array([0.0]), D_HALF, t_out)
    err_a = float(np.max(np.abs(rows[0, 0, :] - 1.0)))

    # (b) free wave: phi2 = sin(r t) / r
    free = DampingLaw(lam=0.5, mu=0.0)
    err_b = max(abs(propagator_matrix(t, 0.0, r, free)[0, 1]
                    - math.sin(r * t) / r)
                for r in (0.5, 1.0, 2.0) for t in (1.0, 5.0, 17.0))

    # (c) critically damped unit mode at lam = 0, mu = 2
    crit = DampingLaw(lam=0.0, mu=2.0)
    err_c = 0.0
    for t in (0.5, 2.0, 8.0):
        E = propagator_matrix(t, 0.0, 1.0, crit)
        err_c = max(err_c, abs(E[0, 0] - (1.0 + t) * math.exp(-t)),
                    abs(E[0, 1] - t * math.exp(-t)))

    # (d) two-time composition through an intermediate time
    e_full = propagator_matrix(12.0, 0.7, 1.3, D_HALF)
    e_split = propagator_matrix(12.0, 3.0, 1.3, D_HALF) \
        @ propagator_matrix(3.0, 0.7, 1.3, D_HALF)
    err_d = float(np.max(np.abs(e_full - e_split)))

    elapsed = time.perf_counter() - start
    ok = (err_a <= 1e-12 and err_b <= 1e-8 and err_c <= 1e-8
          and err_d <= 1e-8 and elapsed < 10.0)
    _banner(2, ok, f"mode oracles: errors {err_a:.1e} / {err_b:.1e} / "
                   f"{err_c:.1e} / {err_d:.1e}, {elapsed:.2f} s")
    assert err_a <= 1e-12
    assert err_b <= 1e-8
    assert err_c <= 1e-8
    assert err_d <= 1e-8
    assert elapsed < 10.0


# ---------------------------------------------------------------------
#  3-5. Decay exponents at the undamped-wave rate (fail by design)
# ---------------------------------------------------------------------

def test_criterion_03_linear_sup_norm_slopes(linear_lambda_runs):
    total = sum(h.seconds for h in linear_lambda_runs.values())
    bad = []
    for lam in sorted(linear_lambda_runs):
        bad += [f"lam={lam} {msg}" for msg in
                _require(linear_lambda_runs[lam],
                         ("kernel_decay_k0", "kernel_decay_k1"))]
    ok = not bad and total < 120.0
    _banner(3, ok, "kernel sup-norm slopes -(1-lam)(1+k)/2 +- 0.05 for "
                   f"lam in (0.2, 0.5, 0.8); runs took {total:.0f} s")
    assert total < 120.0
    assert not bad, "; ".join(bad)


def test_criterion_04_zone_integral_envelopes(zone_integrals_run):
    bad = _require(zone_integrals_run,
                   ("z1_a0_ratio_spread", "z1_a2_ratio_spread",
                    "alpha_exponent_gap"))
    ok = not bad
    _banner(4, ok, "inner-zone moment integrals on (1-lam) power laws, "
                   "spread factor 3, exponent gap within 20%")
    assert not bad, "; ".join(bad)


def test_criterion_05_nonlinear_decay_exponents(nonlinear_run):
    bad = _require(nonlinear_run,
                   ("rho_slope", "u_slope", "slope_difference"))
    ok = not bad and nonlinear_run.seconds < 600.0
    _banner(5, ok, "nonlinear sup-norm slopes: rho -0.25 +- 0.08, "
                   "u 0.0 +- 0.08, difference -0.25 +- 0.05; "
                   f"run took {nonlinear_run.seconds:.0f} s")
    assert nonlinear_run.seconds < 600.0
    assert not bad, "; ".join(bad)


# ---------------------------------------------------------------------
#  6-10. Energy boundedness, source decay, lower bounds, vorticity,
#        convolution bound
# ---------------------------------------------------------------------

def test_criterion_06_scaled_energies_bounded(nonlinear_run):
    cols = nonlinear_run.csv_columns("energy.csv")
    t = cols["t"]
    head = t <= 1.0
    ratios = {}
    for name in ("mon_low", "mon_high"):
        series = cols[name]
        ratios[name] = float(np.max(series) / np.max(series[head]))
    ok = all(r <= 10.0 for r in ratios.values())
    _banner(6, ok, "time-scaled energies never exceed 10x their [0, 1] "
                   f"maxima (ratios {ratios['mon_low']:.3g}, "
                   f"{ratios['mon_high']:.3g})")
    assert ratios["mon_low"] <= 10.0
    assert ratios["mon_high"] <= 10.0


def test_criterion_07_source_decay_and_scaling(qdecay_run):
    bad = _require(qdecay_run, ("q_l1_slope_cap", "q_eps_scaling"))
    ok = not bad
    _banner(7, ok, "wave-form source: L1 slope under the cap and "
                   "quadratic amplitude scaling in [3.4, 4.6]")
    assert not bad, "; ".join(bad)


def test_criterion_08_conserved_mass_lower_bounds(lower_bound_run):
    bad = _require(lower_bound_run,
                   ("mass_drift", "cauchy_schwarz", "moment_inequality",
                    "lower_bound_rho", "lower_bound_u"))
    ok = not bad and lower_bound_run.seconds < 600.0
    _banner(8, ok, "mass drift < 1e-8, Cauchy-Schwarz and moment "
                   "inequalities hold, scaled margins stay positive; "
                   f"run took {lower_bound_run.seconds:.0f} s")
    assert lower_bound_run.seconds < 600.0
    assert not bad, "; ".join(bad)


def test_criterion_09_vorticity_decay(vort2d_run):
    bad = _require(vort2d_run,
                   ("vorticity_rate", "vorticity_fit_residual",
                    "irrotational_floor"))
    ok = not bad and vort2d_run.seconds < 900.0
    assert vort2d_run.report.config["N"] == 256
    _banner(9, ok, "planar vorticity: stretched rate -mu/(1-lam) +- 20%, "
                   "residual < 0.1, irrotational companion stays "
                   f"rotation-free; run took {vort2d_run.seconds:.0f} s")
    assert vort2d_run.seconds < 900.0
    assert not bad, "; ".join(bad)


def test_criterion_10_convolution_bound(conv_run):
    bad = _require(conv_run, ("conv_2_1", "conv_1.5_1.5", "conv_3_0.5"))
    ok = not bad
    _banner(10, ok, "convolution ratios gain < 10% when the last time "
                    "decade joins, for all three exponent pairs")
    assert not bad, "; ".join(bad)


# ---------------------------------------------------------------------
#  11. Numerical hygiene
# ---------------------------------------------------------------------

def test_criterion_11_numerical_hygiene(tmp_path):
    # (a) tiny-amplitude nonlinear run against the linear mode solution
    ops = SpectralOps(Grid(1, 20.0, 256))
    st0 = initial_bump(ops, 4.0, 1.1566234202668386e-07)
    times = (2.5, 5.0, 10.0)
    cfg = SolverConfig(t_final=10.0, snapshot_times=times)
    outs = Outputs()
    res = run(st0, D_HALF, GAS, ops, cfg, on_snapshot=outs)
    assert res.verdict == "completed"
    w0 = outs[0].v
    sol = solve_linear_ivp(w0, np.zeros_like(w0), ops, D_HALF,
                           np.asarray(times))
    rel_lin = max(ops.l2(snap.v - w) / ops.l2(w)
                  for snap, w in zip(outs[1:], sol.w))

    # (b) fourth-order convergence under time-step halving
    st1 = initial_bump(ops, 4.0, 0.00011566234202668386)
    fields = []
    for dt in (0.04, 0.02, 0.01):
        fields.append(march(st1, D_HALF, GAS, ops, dt, (1.0,))[-1].v)
    order = math.log2(ops.l2(fields[0] - fields[1])
                      / ops.l2(fields[1] - fields[2]))

    # (c) byte-identical artifacts when the same config runs twice
    h1 = run_preset("convolution-lemma", tmp_path)
    report_1 = (h1.outdir / "report.json").read_bytes()
    table_1 = (h1.outdir / "convolution.csv").read_bytes()
    h2 = run_preset("convolution-lemma", tmp_path)
    assert h2.outdir == h1.outdir
    same = ((h2.outdir / "report.json").read_bytes() == report_1
            and (h2.outdir / "convolution.csv").read_bytes() == table_1)

    ok = rel_lin < 1e-4 and abs(order - 4.0) <= 0.5 and same
    _banner(11, ok, f"linearized match {rel_lin:.2e}, step order "
                    f"{order:.2f}, byte-identical reruns: {same}")
    assert rel_lin < 1e-4
    assert abs(order - 4.0) <= 0.5
    assert same


# ---------------------------------------------------------------------
#  Companions: the decay rates actually measured
# ---------------------------------------------------------------------

def test_measured_kernel_slopes_follow_damping_clock(linear_lambda_runs):
    for lam, h in linear_lambda_runs.items():
        for k in (0, 1):
            slope = h.verdict(f"kernel_decay_k{k}").value
            assert slope == pytest.approx(-(1.0 + lam) * (1 + k) / 2.0,
                                          abs=0.1)


def test_measured_band_tail_is_controlled(linear_lambda_runs):
    for h in linear_lambda_runs.values():
        assert h.verdict("band_tail_fraction").passed


def test_measured_nonlinear_slopes_follow_damping_clock(nonlinear_run):
    rho = nonlinear_run.verdict("rho_slope").value
    u = nonlinear_run.verdict("u_slope").value
    assert rho == pytest.approx(-0.75, abs=0.08)
    assert u == pytest.approx(-1.0, abs=0.1)
    assert rho - u == pytest.approx(0.25, abs=0.08)


def test_measured_zone_integral_gap_is_steeper(zone_integrals_run):
    gap = zone_integrals_run.verdict("alpha_exponent_gap").value
    assert 0.9 < gap < 1.6
